//! dhbench: the repository benchmark.
//!
//! ```text
//! dhbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         [--size full|tiny] [--out <record.json>]
//! dhbench --compare <base.json> <new.json>
//! ```
//!
//! One run builds its inputs from `--seed`, sets up, runs one untimed
//! warm-up operation, measures for `--seconds`, checks every output
//! against an independent reference, and prints one JSON result object
//! as its last stdout line: the end-to-end metrics, or with `--trace 1`
//! the per-layer ledger. `--out` also writes the result with its host
//! and build to a file relative to the working directory, and
//! `--compare` prints per-metric deltas between two such files.
//! The workloads, metrics and the layer each metric should move are
//! described in the README beside this package.

mod fleet;
mod host;
mod inputs;
mod ledger;
mod scenario;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Size;
use ledger::Outcome;

/// The gated workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["fleet_population", "scenario_checkpointed"];
/// The daemon workload. It runs on request but is not gated: on a shared
/// two-core host its figures moved twofold between runs minutes apart
/// (README). Its layer rows come from a daemon session in the traced
/// `fleet_population` run.
pub const DAEMON: &str = "serve_mixed";

/// Set-ups timed per run when one takes microseconds.
pub const SETUP_REPS_FAST: usize = 101;
/// Set-ups timed before the window when one takes tens of milliseconds.
pub const SETUP_REPS_SLOW: usize = 5;

/// One invocation's arguments and scratch directory.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// Private to this process; removed when it ends.
    pub work: PathBuf,
}

/// Runs `op` repeatedly until `seconds` have passed, at least once.
pub fn time_window(seconds: f64, mut op: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        op()?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Worker threads a workload pins; `None` leaves the engine's default.
pub fn pinned_threads(workload: &str) -> Option<usize> {
    (workload == "scenario_checkpointed").then_some(scenario::WORKERS)
}

/// Runs one workload at its pinned thread count and checks a traced
/// run's ledger.
pub fn measure(workload: &str, run: &Run) -> Result<Outcome, String> {
    dh_exec::set_max_threads(pinned_threads(workload));
    let outcome = match workload {
        "fleet_population" => fleet::run(run),
        "scenario_checkpointed" => scenario::run(run),
        DAEMON => serve::run(run),
        other => Err(format!("unknown workload {other:?}")),
    };
    dh_exec::set_max_threads(None);
    let mut outcome = outcome?;
    if run.traced {
        outcome.check_ledger();
    }
    Ok(outcome)
}

struct Args {
    workload: String,
    run: Run,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: dhbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|tiny] [--out <file>]\n       dhbench --compare <base> <new>\n\
         workloads: {}, {DAEMON} (not gated); held-out seed for checking claims: {}",
        WORKLOADS.join(", "),
        inputs::HELD_OUT_SEED
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut out) = (Size::Full, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, got {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) && workload != DAEMON {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or {DAEMON}"
        ));
    }
    Ok(Args {
        workload,
        run: Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            traced: trace.ok_or_else(|| missing("--trace"))?,
            size,
            work: PathBuf::from(".bench_work").join(std::process::id().to_string()),
        },
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, base, new] => match host::compare(base, new) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(why) => {
                    eprintln!("dhbench: {why}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("dhbench: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The host record names the threads the workload runs on.
    dh_exec::set_max_threads(pinned_threads(&args.workload));
    let host = host::Host::detect();
    eprintln!("dhbench: host {}", host.to_json());
    if let Err(e) = std::fs::create_dir_all(&args.run.work) {
        eprintln!("dhbench: {}: {e}", args.run.work.display());
        return ExitCode::FAILURE;
    }
    let measured = measure(&args.workload, &args.run);
    let _ = std::fs::remove_dir_all(&args.run.work);
    // Leaves `.bench_work` itself only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match measured {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("dhbench: {} failed: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let rows = match outcome.rows(&args.workload, args.run.traced) {
        Ok(rows) => rows,
        Err(why) => {
            eprintln!("dhbench: {why}");
            return ExitCode::FAILURE;
        }
    };
    if args.run.traced {
        for layer in ledger::PER_LAYER
            .iter()
            .filter(|l| l.workload == args.workload)
        {
            if let Some(v) = outcome.get(layer.name) {
                eprintln!(
                    "dhbench: {:<32} {v:>14.6} {:<6} moves {}",
                    layer.name, layer.unit, layer.moves
                );
            }
        }
    }
    for why in &outcome.problems {
        eprintln!("dhbench: {why}");
    }
    let correct = outcome.problems.is_empty();
    let result = host::result_json(correct, outcome.attempted, outcome.failed, &rows);
    if let Some(path) = &args.out {
        let record = host::record_json(
            &host,
            &args.workload,
            args.run.seed,
            args.run.traced,
            &result,
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("dhbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke mode: every workload at tiny size, both modes, emits
    /// every metric finite and with its unit, and passes its checks.
    #[test]
    fn tiny_runs_emit_every_metric() {
        for workload in WORKLOADS.into_iter().chain([DAEMON]) {
            for traced in [false, true] {
                let run = Run {
                    seed: 5,
                    // The daemon needs a thousand jobs for its memory row.
                    seconds: if workload == DAEMON && !traced {
                        8.0
                    } else {
                        0.0
                    },
                    traced,
                    size: Size::Tiny,
                    work: std::env::temp_dir().join(format!(
                        "dhbench-smoke-{}-{workload}-{traced}",
                        std::process::id()
                    )),
                };
                std::fs::create_dir_all(&run.work).unwrap();
                let outcome = measure(workload, &run);
                std::fs::remove_dir_all(&run.work).unwrap();
                let outcome = outcome.unwrap();
                assert!(
                    outcome.problems.is_empty(),
                    "{workload}: {:?}",
                    outcome.problems
                );
                assert!(outcome.attempted >= 1 && outcome.failed == 0);
                let rows = outcome.rows(workload, traced).unwrap();
                let table: &[(&str, &str)] = &if traced {
                    ledger::PER_LAYER
                        .iter()
                        .map(|l| (l.name, l.unit))
                        .collect::<Vec<_>>()
                } else {
                    ledger::END_TO_END
                        .iter()
                        .map(|m| (m.name, m.unit))
                        .collect::<Vec<_>>()
                };
                assert_eq!(rows.len(), table.len());
                for ((name, value, unit), (want, want_unit)) in rows.iter().zip(table) {
                    assert_eq!((name, unit), (want, want_unit));
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                }
                if !traced {
                    assert!(
                        rows.iter().all(|&(_, v, _)| v > 0.0),
                        "{workload}: {rows:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload serve_mixed --seed 3 --seconds 10 --trace 1 --out r.json",
        ))
        .unwrap();
        assert_eq!(
            (args.run.seed, args.run.seconds, args.run.traced),
            (3, 10.0, true)
        );
        assert_eq!(args.out, Some(PathBuf::from("r.json")));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload serve_mixed --seconds 10 --trace 0",
            "--workload serve_mixed --seed 3 --seconds 10 --trace 2",
            "--workload serve_mixed --seed 3 --seconds -1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
