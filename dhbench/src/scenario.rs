//! `scenario_checkpointed`: a generated pack with one group per victim
//! model through `run_pack_supervised` (no fault plan) with a
//! three-generation checkpoint store written about every 12 epochs, on
//! one worker thread.
//!
//! `run_pack_supervised` steps one shard per worker and spawns scoped
//! threads at every step. On a shared two-core host that made a run take
//! anywhere from 1.1 s to 4 s at two workers, and the median of a 30 s
//! window moved by a quarter between runs, while one worker held within a
//! few percent. So the gated run uses one worker, and the traced run
//! times stepping at one and at N workers for `exec.scenario_speedup`.

use std::time::Instant;

use dh_exec::RetryPolicy;
use dh_fault::DegradedReport;
use dh_scenario::{
    run_pack_supervised, ScenarioCheckpointStore, ScenarioError, ScenarioPack, ScenarioRun,
};

use crate::host::{peak_rss_mib, reset_peak_rss};
use crate::inputs::scenario_pack_json;
use crate::ledger::Outcome;
use crate::stats::{mean, median};
use crate::{time_window, Run, SETUP_REPS_SLOW};

/// Worker threads the workload runs on; `measure` pins them.
pub const WORKERS: usize = 1;
/// Timed passes at each thread count behind `exec.scenario_speedup`.
const SPEEDUP_REPS: usize = 3;
/// Checkpoint generations kept.
const KEEP: usize = 3;
/// A run writes a checkpoint about this many times, plus the final one.
const WRITES_PER_RUN: u64 = 8;

fn err(e: ScenarioError) -> String {
    e.to_string()
}

/// What `run_pack_supervised` does before its first step: look for a
/// generation to resume, else build a fresh run.
fn open(pack: &ScenarioPack, store: &ScenarioCheckpointStore) -> Result<ScenarioRun, String> {
    let (found, fallbacks) = store.read_newest_valid(pack.clone()).map_err(err)?;
    if found.is_some() || !fallbacks.is_empty() {
        return Err(format!(
            "{} holds a checkpoint before a fresh run",
            store.base_path().display()
        ));
    }
    Ok(ScenarioRun::new(pack.clone()))
}

/// Busy time stepping `pack` to the end at `threads` workers (`None`:
/// the engine's default), one shard per worker per step as
/// `run_pack_supervised` does. Leaves the workload's pin in place.
fn step_all(pack: &ScenarioPack, threads: Option<usize>) -> f64 {
    dh_exec::set_max_threads(threads);
    let batch = dh_exec::max_threads().max(1);
    let mut run = ScenarioRun::new(pack.clone());
    let t = Instant::now();
    while !run.step(batch).done {}
    let busy = t.elapsed().as_secs_f64();
    dh_exec::set_max_threads(Some(WORKERS));
    busy
}

#[derive(Default)]
struct Spans {
    new_s: f64,
    step_s: f64,
    step_calls: f64,
    write_s: f64,
    writes: f64,
    bytes: f64,
    report_s: f64,
}

/// `run_pack_supervised` with no plan and a store, written out call by
/// call with a timer around each call into the library. Returns the
/// spans, the report fingerprint, whether the run degraded, the op's
/// wall time, and the run (for the extra encode).
fn traced_op(
    pack: &ScenarioPack,
    store: &ScenarioCheckpointStore,
    batch: usize,
    every: u64,
) -> Result<(Spans, u64, bool, f64, ScenarioRun), String> {
    let mut s = Spans::default();
    let retry = RetryPolicy::default();
    let op = Instant::now();
    let t = Instant::now();
    let mut run = open(pack, store)?;
    s.new_s = t.elapsed().as_secs_f64();
    let mut disk = DegradedReport::default();
    let mut write_index = 0u64;
    let mut steps = 0u64;
    let mut write = |run: &ScenarioRun, s: &mut Spans, index: u64| -> Result<(), String> {
        let t = Instant::now();
        let outcome = store.write_injected(run, None, index).map_err(err)?;
        s.write_s += t.elapsed().as_secs_f64();
        s.writes += 1.0;
        s.bytes += outcome.bytes as f64;
        disk.absorb(outcome.disk);
        Ok(())
    };
    loop {
        let t = Instant::now();
        let progress = run.step_supervised(batch, None, &retry);
        s.step_s += t.elapsed().as_secs_f64();
        s.step_calls += 1.0;
        if progress.done {
            break;
        }
        steps += 1;
        if steps.is_multiple_of(every) {
            write(&run, &mut s, write_index)?;
            write_index += 1;
        }
    }
    write(&run, &mut s, write_index)?;
    run.degraded.absorb(disk);
    let t = Instant::now();
    let report = run.report();
    s.report_s = t.elapsed().as_secs_f64();
    let wall = op.elapsed().as_secs_f64();
    Ok((s, report.fingerprint, run.degraded.is_degraded(), wall, run))
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let text = scenario_pack_json(r.seed, r.size);
    let store = ScenarioCheckpointStore::new(r.work.join("scenario.dhsp"), KEEP);

    // Set-up is timed a few times up front and once after every run of
    // the window, so its median spans the whole window.
    let (mut parses, mut news) = (Vec::new(), Vec::new());
    let setup = |parses: &mut Vec<f64>, news: &mut Vec<f64>| -> Result<(), String> {
        let t = Instant::now();
        let pack = ScenarioPack::load(&text).map_err(err)?;
        parses.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let run = open(&pack, &store)?;
        news.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(run));
        Ok(())
    };
    for _ in 0..SETUP_REPS_SLOW {
        setup(&mut parses, &mut news)?;
    }

    let pack = ScenarioPack::load(&text).map_err(err)?;
    let unit_epochs = (pack.total_elements() * pack.epochs) as f64;
    // `run_pack_supervised` steps one shard per worker thread.
    let batch = dh_exec::max_threads().max(1);
    let steps_per_epoch = pack.shard_count().div_ceil(batch as u64);
    let every = (pack.epochs / WRITES_PER_RUN).max(1) * steps_per_epoch;

    // The correctness reference: `run_pack` (new, run to end, report).
    let mut reference = ScenarioRun::new(pack.clone());
    reference.run_to_end();
    let expected = reference.report().fingerprint;
    drop(reference);

    let clear = || -> Result<(), String> {
        for generation in 0..KEEP {
            match std::fs::remove_file(store.generation_path(generation)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.to_string()),
                _ => {}
            }
        }
        Ok(())
    };
    let check = |out: &mut Outcome, what: &str, fingerprint: u64, degraded: bool| {
        if fingerprint != expected || degraded {
            out.fail(format!(
                "{what}: fingerprint {fingerprint:#018x} (expected {expected:#018x}), \
                 degraded {degraded}"
            ));
            false
        } else {
            true
        }
    };
    let plain_op = |out: &mut Outcome, rss: &mut Vec<f64>| -> Result<Option<f64>, String> {
        clear()?;
        reset_peak_rss()?;
        let t = Instant::now();
        let result = run_pack_supervised(
            pack.clone(),
            None,
            &RetryPolicy::default(),
            Some((&store, every)),
        );
        let wall = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mib()?);
        out.attempted += 1;
        match result {
            Ok((report, degraded)) => Ok(check(
                out,
                "scenario run",
                report.fingerprint,
                degraded.is_degraded(),
            )
            .then_some(wall)),
            Err(e) => {
                out.fail(format!("scenario run failed: {e}"));
                Ok(None)
            }
        }
    };

    let mut warm = Outcome::default();
    plain_op(&mut warm, &mut Vec::new())?;
    if warm.failed > 0 {
        return Err(warm.problems.join("; "));
    }

    let plain_secs = if r.traced { r.seconds / 2.0 } else { r.seconds };
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    time_window(plain_secs, || {
        if let Some(wall) = plain_op(&mut out, &mut rss)? {
            walls.push(wall);
        }
        clear()?;
        setup(&mut parses, &mut news)
    })?;
    if walls.is_empty() {
        return Err(out.problems.join("; "));
    }
    let wall = median(&walls);
    eprintln!("dhbench: op walls (s): {walls:.3?}");
    eprintln!("dhbench: op peak rss (MiB): {rss:.1?}");
    let setups: Vec<f64> = parses.iter().zip(&news).map(|(p, n)| p + n).collect();
    out.set("setup_s", median(&setups));
    out.set("scenario.parse_s", median(&parses));
    out.set("scenario.new_s", median(&news));
    // The mean per-run peak. Buffers held in flight vary with thread
    // scheduling from run to run, so single peaks step between a few
    // levels and a median jumps between them.
    out.set("peak_rss_mib", mean(&rss));
    out.set("unit_epochs_per_s", unit_epochs / wall);
    out.set("jobs_per_s", 1.0 / wall);
    out.set("job_latency_p50_ms", wall * 1e3);

    if r.traced {
        let (mut spans, mut traced_walls, mut encodes) = (Vec::new(), Vec::new(), Vec::new());
        time_window(r.seconds - plain_secs, || {
            clear()?;
            out.attempted += 1;
            let (s, fingerprint, degraded, wall, run) = traced_op(&pack, &store, batch, every)?;
            check(&mut out, "traced scenario mirror", fingerprint, degraded);
            // The encode share of a write, kept out of the span sum.
            let t = Instant::now();
            let bytes = run.encode_checkpoint();
            encodes.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(bytes));
            traced_walls.push(wall);
            spans.push(s);
            Ok(())
        })?;
        let m = |f: fn(&Spans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
        out.set("scenario.new_s", m(|s| s.new_s));
        out.set("scenario.step_s", m(|s| s.step_s));
        out.set("scenario.step_calls", m(|s| s.step_calls));
        out.set("scenario.ckpt_write_s", m(|s| s.write_s));
        out.set("scenario.ckpt_writes", m(|s| s.writes));
        out.set("scenario.ckpt_bytes", m(|s| s.bytes));
        out.set("scenario.encode_s", median(&encodes));
        out.set("scenario.report_s", m(|s| s.report_s));
        let unattributed: Vec<f64> = spans
            .iter()
            .zip(&traced_walls)
            .map(|(s, wall)| (wall - (s.new_s + s.step_s + s.write_s + s.report_s)) / wall)
            .collect();
        out.set("trace.unattributed_share", median(&unattributed));
        out.set("trace.overhead_share", median(&traced_walls) / wall - 1.0);
        let busy = |threads: Option<usize>| {
            median(
                &(0..SPEEDUP_REPS)
                    .map(|_| step_all(&pack, threads))
                    .collect::<Vec<_>>(),
            )
        };
        out.set("exec.scenario_speedup", busy(Some(1)) / busy(None));
    }
    clear()?;
    Ok(out)
}
