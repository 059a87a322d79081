//! `serve_mixed`: an in-process `dh_serve::Server` at its default
//! settings, driven over HTTP by a closed loop of client threads, each
//! submitting `POST /jobs` and tailing `/events` to the terminal frame.
//! Jobs are one third fleet, one third checkpointed fleet, one third
//! scenario pack.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dh_exec::RetryPolicy;
use dh_fleet::{run_fleet_supervised_with, CheckpointMode, CheckpointStore, FleetConfig};
use dh_json::Json;
use dh_scenario::{run_pack_supervised, ScenarioPack};
use dh_serve::{ServeConfig, Server};

use crate::host::{peak_rss_mib, reset_peak_rss};
use crate::inputs::{
    serve_fleet_config, serve_pack_json, JobKind, JobOrder, JobPick, SERVE_FLEET_SEEDS, SERVE_PACKS,
};
use crate::ledger::Outcome;
use crate::stats::{median, percentile_nearest_rank};
use crate::Run;

/// Closed-loop client threads. Fixed, so the offered load is the same on
/// every host.
const CLIENTS: u64 = 2;
/// Daemon starts timed for `setup_s`.
const SETUP_REPS: usize = 31;
/// Untimed jobs before the window (two of each kind).
const WARM_JOBS: usize = 6;
/// Checkpoint stride of the checkpointed fleet jobs, in shards.
const CKPT_EVERY: u64 = 2;
/// Jobs after which the window's peak resident set is read. The daemon
/// keeps every job's record in memory, so a peak read at a fixed job
/// count does not grow with throughput.
const RSS_JOBS: u64 = 1000;
/// Jobs a traced window runs at least, so the p99 has ten samples
/// beyond it.
const TAIL_JOBS: u64 = 1010;
/// How long a client waits on one read before calling the job lost.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One daemon job spec with what the in-process engine says it must
/// produce.
struct Spec {
    body: String,
    fingerprint: u64,
    unit_epochs: f64,
}

/// Every spec the job order can pick, plus the engine's own timings.
struct Catalog {
    fleet: Vec<Spec>,
    scenario: Vec<Spec>,
    engine_fleet_ms: Vec<f64>,
    engine_fleet_ckpt_ms: Vec<f64>,
    engine_scenario_ms: Vec<f64>,
}

fn fleet_body(config: &FleetConfig) -> String {
    format!(
        "{{\"config\": {{\"devices\": {}, \"seed\": {}, \"years\": {}, \"shard_size\": {}, \
         \"policies\": [\"worst-first\", \"round-robin\", \"static\"]}}",
        config.devices, config.seed, config.years, config.shard_size
    )
}

/// Runs every spec once in-process through the library, the same
/// supervised entry points the daemon's runner mirrors.
fn catalog(r: &Run, packs: &Path) -> Result<Catalog, String> {
    let retry = RetryPolicy::default();
    let mut c = Catalog {
        fleet: Vec::new(),
        scenario: Vec::new(),
        engine_fleet_ms: Vec::new(),
        engine_fleet_ckpt_ms: Vec::new(),
        engine_scenario_ms: Vec::new(),
    };
    for i in 0..SERVE_FLEET_SEEDS {
        let config = serve_fleet_config(r.seed, r.size, i);
        let t = Instant::now();
        let (plain, degraded) =
            run_fleet_supervised_with(&config, None, &retry, None, CheckpointMode::Async)
                .map_err(|e| e.to_string())?;
        c.engine_fleet_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let store = CheckpointStore::new(r.work.join(format!("engine-{i}.dhfl")), 3);
        let t = Instant::now();
        let (ckpt, ckpt_degraded) = run_fleet_supervised_with(
            &config,
            None,
            &retry,
            Some((&store, CKPT_EVERY)),
            CheckpointMode::Async,
        )
        .map_err(|e| e.to_string())?;
        c.engine_fleet_ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if plain.fingerprint() != ckpt.fingerprint()
            || degraded.is_degraded()
            || ckpt_degraded.is_degraded()
        {
            return Err(format!(
                "engine reference for fleet spec {i} disagrees with itself"
            ));
        }
        c.fleet.push(Spec {
            body: fleet_body(&config),
            fingerprint: plain.fingerprint(),
            unit_epochs: (config.devices * config.total_epochs()) as f64,
        });
    }
    for i in 0..SERVE_PACKS {
        let text = serve_pack_json(r.seed, r.size, i);
        let pack = ScenarioPack::load(&text).map_err(|e| e.to_string())?;
        std::fs::write(packs.join(format!("{}.json", pack.name)), &text)
            .map_err(|e| e.to_string())?;
        let unit_epochs = (pack.total_elements() * pack.epochs) as f64;
        let body = format!("{{\"scenario\": \"{}\"}}", pack.name);
        let t = Instant::now();
        let (report, degraded) =
            run_pack_supervised(pack, None, &retry, None).map_err(|e| e.to_string())?;
        c.engine_scenario_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if degraded.is_degraded() {
            return Err(format!("engine reference for pack {i} degraded"));
        }
        c.scenario.push(Spec {
            body,
            fingerprint: report.fingerprint,
            unit_epochs,
        });
    }
    Ok(c)
}

/// One HTTP exchange head: sends the request and returns the status
/// with the reader positioned at the body.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, BufReader<TcpStream>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: dhbench\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            return Ok((status, reader));
        }
    }
}

fn healthz(addr: SocketAddr) -> bool {
    matches!(exchange(addr, "GET", "/healthz", ""), Ok((200, _)))
}

/// What a client saw of one job. Times are seconds from sending the
/// POST.
struct Sample {
    kind: JobKind,
    ok: bool,
    refused: bool,
    latency: f64,
    accepted: f64,
    started: f64,
    frames: u64,
    bytes: u64,
    unit_epochs: f64,
    /// When the job ended, seconds from the start of its window.
    ended: f64,
}

fn run_job(addr: SocketAddr, pick: JobPick, spec: &Spec, body: &str) -> (Sample, Option<String>) {
    let mut s = Sample {
        kind: pick.kind,
        ok: false,
        refused: false,
        latency: f64::INFINITY,
        accepted: 0.0,
        started: 0.0,
        frames: 0,
        bytes: 0,
        unit_epochs: spec.unit_epochs,
        ended: 0.0,
    };
    let t0 = Instant::now();
    let problem = (|| -> Result<(), String> {
        let (status, mut reader) =
            exchange(addr, "POST", "/jobs", body).map_err(|e| format!("POST /jobs: {e}"))?;
        let mut text = String::new();
        reader
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        s.accepted = t0.elapsed().as_secs_f64();
        if status != 202 {
            s.refused = status == 429 || status >= 500;
            return Err(format!("POST /jobs answered {status}: {text}"));
        }
        let id = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("no job id in {text}"))?;
        let (status, mut reader) = exchange(addr, "GET", &format!("/jobs/{id}/events"), "")
            .map_err(|e| format!("GET events: {e}"))?;
        if status != 200 {
            return Err(format!("GET /jobs/{id}/events answered {status}"));
        }
        let (mut event, mut data, mut line) = (String::new(), String::new(), String::new());
        let mut terminal = None;
        loop {
            line.clear();
            let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                break;
            }
            s.bytes += n as u64;
            let text = line.trim_end_matches('\n');
            if let Some(name) = text.strip_prefix("event: ") {
                event = name.to_string();
            } else if let Some(payload) = text.strip_prefix("data: ") {
                data = payload.to_string();
            } else if text.is_empty() && !event.is_empty() {
                s.frames += 1;
                match event.as_str() {
                    "started" => s.started = t0.elapsed().as_secs_f64(),
                    "progress" => {}
                    _ => {
                        s.latency = t0.elapsed().as_secs_f64();
                        terminal = Some((std::mem::take(&mut event), std::mem::take(&mut data)));
                    }
                }
                event.clear();
            }
        }
        let (event, data) = terminal.ok_or_else(|| format!("job {id}: no terminal frame"))?;
        let doc = Json::parse(&data).map_err(|e| format!("job {id} {event} frame: {e}"))?;
        let fingerprint = doc.get("fingerprint").and_then(Json::as_str);
        let want = format!("{:#018x}", spec.fingerprint);
        let clean = doc.get("degraded") == Some(&Json::Bool(false));
        if event != "completed" || !clean || fingerprint != Some(want.as_str()) {
            return Err(format!(
                "job {id} ended {event} (degraded: {}), fingerprint {fingerprint:?}, \
                 expected {want}",
                !clean
            ));
        }
        Ok(())
    })()
    .err();
    s.ok = problem.is_none();
    if !s.ok {
        s.latency = f64::INFINITY;
    }
    (s, problem)
}

/// Runs client `client`'s job order, one job at least, until `seconds`
/// have passed since `start` and the window has run `meter.min_jobs`;
/// returns its samples, problems, and when it stopped.
fn client_loop(
    addr: SocketAddr,
    catalog: &Catalog,
    order: impl Iterator<Item = JobPick>,
    client: u64,
    start: Instant,
    seconds: f64,
    meter: &Meter,
) -> (Vec<Sample>, Vec<String>, f64) {
    let (mut samples, mut problems) = (Vec::new(), Vec::new());
    for (n, pick) in order.enumerate() {
        let spec = match pick.kind {
            JobKind::Scenario => &catalog.scenario[pick.index as usize],
            JobKind::Fleet | JobKind::FleetCkpt => &catalog.fleet[pick.index as usize],
        };
        let body = match pick.kind {
            JobKind::FleetCkpt => format!(
                "{}, \"checkpoint\": \"c{client}-{n}.dhfl\", \"checkpoint_every\": {CKPT_EVERY}}}",
                spec.body
            ),
            JobKind::Fleet => format!("{}}}", spec.body),
            JobKind::Scenario => spec.body.clone(),
        };
        let (mut sample, problem) = run_job(addr, pick, spec, &body);
        sample.ended = start.elapsed().as_secs_f64();
        if meter.done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_JOBS {
            let _ = meter.rss.set(peak_rss_mib());
        }
        samples.push(sample);
        problems.extend(problem);
        if start.elapsed().as_secs_f64() >= seconds
            && meter.done.load(Ordering::Relaxed) >= meter.min_jobs
        {
            break;
        }
    }
    (samples, problems, start.elapsed().as_secs_f64())
}

/// Counts a window's jobs, holds it open until `min_jobs` have run, and
/// reads the peak resident set at [`RSS_JOBS`].
#[derive(Default)]
struct Meter {
    min_jobs: u64,
    done: AtomicU64,
    rss: OnceLock<Result<f64, String>>,
}

/// A closed-loop window: every client's samples, the share of client
/// time outside job spans, and the peak resident set at [`RSS_JOBS`].
struct Window {
    samples: Vec<Sample>,
    wall: f64,
    unattributed: f64,
    rss: Result<f64, String>,
}

fn window(
    addr: SocketAddr,
    catalog: &Catalog,
    r: &Run,
    first_client: u64,
    seconds: f64,
    min_jobs: u64,
    out: &mut Outcome,
) -> Window {
    let meter = Meter {
        min_jobs,
        ..Meter::default()
    };
    let rss = reset_peak_rss();
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (first_client..first_client + CLIENTS)
            .map(|c| {
                let order = JobOrder::new(r.seed, c);
                let meter = &meter;
                scope.spawn(move || client_loop(addr, catalog, order, c, start, seconds, meter))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let done = meter.done.load(Ordering::Relaxed);
    let mut w = Window {
        samples: Vec::new(),
        wall: 0.0,
        unattributed: 0.0,
        rss: rss.and_then(|()| {
            meter.rss.into_inner().unwrap_or_else(|| {
                Err(format!(
                    "the window ran {done} jobs; {RSS_JOBS} are needed to read memory"
                ))
            })
        }),
    };
    for (samples, problems, stopped) in results {
        let busy: f64 = samples
            .iter()
            .map(|s| if s.ok { s.latency } else { s.accepted })
            .sum();
        w.unattributed += (stopped - busy) / stopped / CLIENTS as f64;
        w.wall = w.wall.max(stopped);
        out.attempted += samples.len() as u64;
        for why in problems {
            out.fail(why);
        }
        w.samples.extend(samples);
    }
    w
}

/// The median over the window's whole seconds of `work` completed per
/// second: a stall on the shared host costs the seconds it covers, not
/// the whole window's rate.
fn per_second(ok: &[&Sample], wall: f64, work: impl Fn(&Sample) -> f64) -> Result<f64, String> {
    let seconds = wall.floor() as usize;
    if seconds == 0 {
        return Err(format!("a {wall:.3} s window has no whole second to rate"));
    }
    let mut buckets = vec![0.0; seconds];
    for s in ok {
        if let Some(b) = buckets.get_mut(s.ended.floor() as usize) {
            *b += work(s);
        }
    }
    Ok(median(&buckets))
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let packs = r.work.join("packs");
    std::fs::create_dir_all(&packs).map_err(|e| e.to_string())?;
    let catalog = catalog(r, &packs)?;

    let start = |i: usize| -> Result<(Server, f64), String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: r.work.join(format!("serve-data-{i}")),
            scenario_dir: Some(packs.clone()),
            ..ServeConfig::default()
        };
        let t = Instant::now();
        let server = Server::start(config).map_err(|e| format!("Server::start: {e}"))?;
        while !healthz(server.local_addr()) {
            if t.elapsed() > READ_TIMEOUT {
                server.shutdown();
                return Err("the daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t.elapsed().as_secs_f64()))
    };
    // Besides the window's own daemon, the timed starts run after the
    // window: before it they read up to twice as slow and drift while
    // the process settles.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let start_stop = |setups: &mut Vec<f64>, from: usize, count: usize| -> Result<(), String> {
        for i in from..from + count {
            let (server, secs) = start(i)?;
            server.shutdown();
            setups.push(secs);
        }
        Ok(())
    };
    let (server, secs) = start(0)?;
    let addr = server.local_addr();

    let result = (|| -> Result<(), String> {
        // Warm-up on a client id the windows never use.
        let order = JobOrder::new(r.seed, 2 * CLIENTS).take(WARM_JOBS);
        let (_, problems, _) = client_loop(
            addr,
            &catalog,
            order,
            2 * CLIENTS,
            Instant::now(),
            f64::MAX,
            &Meter::default(),
        );
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }

        let plain_secs = if r.traced { r.seconds / 2.0 } else { r.seconds };
        let plain = window(addr, &catalog, r, 0, plain_secs, 0, &mut out);
        let plain_latencies: Vec<f64> = plain.samples.iter().map(|s| s.latency).collect();
        if !r.traced {
            let ok: Vec<&Sample> = plain.samples.iter().filter(|s| s.ok).collect();
            out.set("peak_rss_mib", plain.rss?);
            out.set("jobs_per_s", per_second(&ok, plain.wall, |_| 1.0)?);
            out.set(
                "unit_epochs_per_s",
                per_second(&ok, plain.wall, |s| s.unit_epochs)?,
            );
            out.set("job_latency_p50_ms", median(&plain_latencies) * 1e3);
            return Ok(());
        }

        let traced = window(
            addr,
            &catalog,
            r,
            CLIENTS,
            r.seconds - plain_secs,
            TAIL_JOBS,
            &mut out,
        );
        let ok_traced: Vec<&Sample> = traced.samples.iter().filter(|s| s.ok).collect();
        let med = |kind: Option<JobKind>, f: fn(&Sample) -> f64| -> Result<f64, String> {
            let xs: Vec<f64> = ok_traced
                .iter()
                .filter(|s| kind.is_none_or(|k| s.kind == k))
                .map(|s| f(s))
                .collect();
            if xs.is_empty() {
                return Err(format!("no {kind:?} job completed in the traced window"));
            }
            Ok(median(&xs))
        };
        let run_ms = |s: &Sample| (s.latency - s.started) * 1e3;
        out.set("serve.submit_ms", med(None, |s| s.accepted * 1e3)?);
        out.set(
            "serve.queue_wait_ms",
            med(None, |s| (s.started - s.accepted) * 1e3)?,
        );
        out.set("serve.run_fleet_ms", med(Some(JobKind::Fleet), run_ms)?);
        out.set(
            "serve.run_fleet_ckpt_ms",
            med(Some(JobKind::FleetCkpt), run_ms)?,
        );
        out.set(
            "serve.run_scenario_ms",
            med(Some(JobKind::Scenario), run_ms)?,
        );
        out.set("serve.engine_fleet_ms", median(&catalog.engine_fleet_ms));
        out.set(
            "serve.engine_fleet_ckpt_ms",
            median(&catalog.engine_fleet_ckpt_ms),
        );
        out.set(
            "serve.engine_scenario_ms",
            median(&catalog.engine_scenario_ms),
        );
        out.set("serve.sse_frames_per_job", med(None, |s| s.frames as f64)?);
        out.set("serve.sse_bytes_per_job", med(None, |s| s.bytes as f64)?);
        let all: Vec<&Sample> = plain.samples.iter().chain(&traced.samples).collect();
        out.set(
            "serve.refused",
            all.iter().filter(|s| s.refused).count() as f64,
        );
        let latencies: Vec<f64> = all.iter().map(|s| s.latency).collect();
        out.set(
            "serve.job_latency_p99_ms",
            percentile_nearest_rank(&latencies, 99.0)? * 1e3,
        );
        out.set("serve.latency_samples", latencies.len() as f64);
        let traced_latencies: Vec<f64> = traced.samples.iter().map(|s| s.latency).collect();
        out.set("trace.unattributed_share", traced.unattributed);
        out.set(
            "trace.overhead_share",
            median(&traced_latencies) / median(&plain_latencies) - 1.0,
        );
        Ok(())
    })();
    server.shutdown();
    result?;
    setups.push(secs);
    start_stop(&mut setups, 1, SETUP_REPS - 1)?;
    out.set("setup_s", median(&setups));
    Ok(out)
}
