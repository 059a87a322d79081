//! `fleet_population`: a 10^6-device, six-epoch fleet run through the
//! `fleet --checkpoint` path, `run_fleet_checkpointed_with` with the
//! default async writer and an 8-shard stride.

use std::path::Path;
use std::time::Instant;

use dh_fleet::{
    run_fleet, run_fleet_checkpointed_with, AsyncCheckpointer, CheckpointMode, CheckpointStore,
    FleetConfig, FleetError, FleetRun, Snapshot,
};

use crate::host::{peak_rss_mib, reset_peak_rss};
use crate::inputs::fleet_config;
use crate::ledger::Outcome;
use crate::stats::{mean, median, two_point_fit};
use crate::{time_window, Run, SETUP_REPS_FAST};

/// Shards folded between checkpoint writes (the CLI's stride).
const STRIDE: u64 = 8;
/// Timed runs of the one-epoch config behind the cost fit.
const FIT_REPS: usize = 3;
/// Length of the daemon session in a traced run.
const DAEMON_SECONDS: f64 = 10.0;

fn err(e: FleetError) -> String {
    e.to_string()
}

/// What `run_fleet_checkpointed_with` does before its first step: probe
/// for a checkpoint to resume, then build the run.
fn open(config: &FleetConfig, path: &Path) -> Result<FleetRun, String> {
    if Snapshot::read_if_exists(path).map_err(err)?.is_some() {
        return Err(format!("{} exists before a fresh run", path.display()));
    }
    FleetRun::new(config.clone()).map_err(err)
}

/// Steps `config` to completion at the stride and returns the busy time
/// in `FleetRun::step`.
fn step_all(config: &FleetConfig) -> Result<f64, String> {
    let mut run = FleetRun::new(config.clone()).map_err(err)?;
    let t = Instant::now();
    while !run.step(STRIDE).map_err(err)? {}
    Ok(t.elapsed().as_secs_f64())
}

#[derive(Default)]
struct Spans {
    new_s: f64,
    step_s: f64,
    step_calls: f64,
    snapshot_s: f64,
    blocked_s: f64,
    writes: f64,
    bytes: f64,
    report_s: f64,
}

/// `run_fleet_checkpointed_with` (async mode) written out call by call
/// with a timer around each call into the library. Returns the spans,
/// the report fingerprint, and the op's wall time.
fn traced_op(config: &FleetConfig, path: &Path) -> Result<(Spans, u64, f64), String> {
    let mut s = Spans::default();
    let mut scratch = Vec::new();
    let op = Instant::now();
    let t = Instant::now();
    let mut run = open(config, path)?;
    s.new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut writer = AsyncCheckpointer::spawn(CheckpointStore::new(path, 1), None);
    s.blocked_s += t.elapsed().as_secs_f64();
    loop {
        let t = Instant::now();
        let done = run.step(STRIDE).map_err(err)?;
        s.step_s += t.elapsed().as_secs_f64();
        s.step_calls += 1.0;
        let t = Instant::now();
        let snapshot = run.snapshot();
        snapshot.encode_into(&mut scratch);
        s.snapshot_s += t.elapsed().as_secs_f64();
        s.bytes += scratch.len() as f64;
        let t = Instant::now();
        writer.submit(snapshot).map_err(err)?;
        s.blocked_s += t.elapsed().as_secs_f64();
        s.writes += 1.0;
        if done {
            break;
        }
    }
    let t = Instant::now();
    writer.finish().map_err(err)?;
    s.blocked_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fingerprint = run.report().map_err(err)?.fingerprint();
    s.report_s = t.elapsed().as_secs_f64();
    Ok((s, fingerprint, op.elapsed().as_secs_f64()))
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let workers = dh_exec::max_threads();
    let config = fleet_config(r.seed, r.size, workers);
    let path = r.work.join("fleet.dhfl");
    let devices = config.devices;
    let epochs = config.total_epochs();

    // Set-up takes microseconds, so batches of it are timed between the
    // runs of the window and the median is taken over all of them.
    let mut setups = Vec::new();
    let setup_batch = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPS_FAST {
            let t = Instant::now();
            let run = open(&config, &path)?;
            setups.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(run));
        }
        Ok(())
    };
    setup_batch(&mut setups)?;

    // The correctness reference: one untimed single-thread `run_fleet`.
    dh_exec::set_max_threads(Some(1));
    let single = Instant::now();
    let expected = run_fleet(&config).map_err(err)?.fingerprint();
    let single_s = single.elapsed().as_secs_f64();
    dh_exec::set_max_threads(None);

    let remove = || match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.to_string()),
        _ => Ok(()),
    };
    let plain_op = |out: &mut Outcome, rss: &mut Vec<f64>| -> Result<Option<f64>, String> {
        remove()?;
        reset_peak_rss()?;
        let t = Instant::now();
        let result = run_fleet_checkpointed_with(&config, &path, STRIDE, CheckpointMode::Async);
        let wall = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mib()?);
        out.attempted += 1;
        match result {
            Ok(report) if report.fingerprint() == expected => Ok(Some(wall)),
            Ok(report) => {
                out.fail(format!(
                    "fleet fingerprint {:#018x}, expected {expected:#018x}",
                    report.fingerprint()
                ));
                Ok(None)
            }
            Err(e) => {
                out.fail(format!("fleet run failed: {e}"));
                Ok(None)
            }
        }
    };

    // Warm-up: not counted, but its final checkpoint is the
    // reference the traced mirror must reproduce byte for byte.
    let mut warm = Outcome::default();
    plain_op(&mut warm, &mut Vec::new())?;
    if warm.failed > 0 {
        return Err(warm.problems.join("; "));
    }
    let reference_bytes = std::fs::read(&path).map_err(|e| e.to_string())?;

    let mut rss = Vec::new();
    let plain_secs = if r.traced { r.seconds / 2.0 } else { r.seconds };
    let mut walls = Vec::new();
    time_window(plain_secs, || {
        if let Some(wall) = plain_op(&mut out, &mut rss)? {
            walls.push(wall);
        }
        remove()?;
        setup_batch(&mut setups)
    })?;
    if walls.is_empty() {
        return Err(out.problems.join("; "));
    }
    let wall = median(&walls);
    eprintln!("dhbench: op walls (s): {walls:.3?}");
    eprintln!("dhbench: op peak rss (MiB): {rss:.1?}");
    out.set("setup_s", median(&setups));
    // The mean per-run peak. Buffers held in flight vary with thread
    // scheduling from run to run, so single peaks step between a few
    // levels and a median jumps between them.
    out.set("peak_rss_mib", mean(&rss));
    out.set("unit_epochs_per_s", (devices * epochs) as f64 / wall);
    out.set("jobs_per_s", 1.0 / wall);
    out.set("job_latency_p50_ms", wall * 1e3);

    if r.traced {
        let mut spans = Vec::new();
        let mut traced_walls = Vec::new();
        time_window(r.seconds - plain_secs, || {
            remove()?;
            out.attempted += 1;
            let (s, fingerprint, wall) = traced_op(&config, &path)?;
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            if fingerprint != expected || bytes != reference_bytes {
                out.fail(format!(
                    "traced fleet mirror: fingerprint {fingerprint:#018x} (expected \
                     {expected:#018x}), final checkpoint identical: {}",
                    bytes == reference_bytes
                ));
            }
            traced_walls.push(wall);
            spans.push(s);
            Ok(())
        })?;
        let m = |f: fn(&Spans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
        let step_s = m(|s| s.step_s);
        out.set("fleet.new_s", m(|s| s.new_s));
        out.set("fleet.step_s", step_s);
        out.set("fleet.step_calls", m(|s| s.step_calls));
        out.set("fleet.snapshot_s", m(|s| s.snapshot_s));
        out.set("fleet.ckpt_blocked_s", m(|s| s.blocked_s));
        out.set("fleet.ckpt_writes", m(|s| s.writes));
        out.set("fleet.ckpt_bytes", m(|s| s.bytes));
        out.set("fleet.report_s", m(|s| s.report_s));
        let unattributed: Vec<f64> = spans
            .iter()
            .zip(&traced_walls)
            .map(|(s, wall)| {
                let sum = s.new_s + s.step_s + s.snapshot_s + s.blocked_s + s.report_s;
                (wall - sum) / wall
            })
            .collect();
        out.set("trace.unattributed_share", median(&unattributed));
        out.set("trace.overhead_share", median(&traced_walls) / wall - 1.0);

        let one_epoch = FleetConfig {
            // Under half an epoch's worth of years rounds up to one epoch.
            years: config.years / (2.0 * epochs as f64),
            ..config.clone()
        };
        if one_epoch.total_epochs() != 1 {
            return Err("the cost-fit config must run exactly one epoch".into());
        }
        let mut one = Vec::with_capacity(FIT_REPS);
        for _ in 0..FIT_REPS {
            one.push(step_all(&one_epoch)?);
        }
        let fit = two_point_fit(devices, (epochs, step_s), (1, median(&one)));
        out.set("fleet.step_us_per_device", fit.per_device_s * 1e6);
        out.set(
            "fleet.step_ns_per_device_epoch",
            fit.per_device_epoch_s * 1e9,
        );
        out.set("exec.fleet_speedup", single_s / step_s);

        // The daemon's layer rows: its own workload is too unsteady on a
        // shared host to gate, so a daemon session rides on this run.
        let daemon = crate::serve::run(&Run {
            seed: r.seed,
            seconds: DAEMON_SECONDS.min(r.seconds),
            traced: true,
            size: r.size,
            work: r.work.join("daemon"),
        })?;
        out.attempted += daemon.attempted;
        out.failed += daemon.failed;
        out.problems.extend(daemon.problems);
        for (name, value) in daemon.values {
            if name.starts_with("serve.") {
                out.set(name, value);
            }
        }
    }
    remove()?;
    Ok(out)
}
