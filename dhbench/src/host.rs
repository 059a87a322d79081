//! Host and build identity, peak memory, result records, and the
//! compare mode that diffs two records.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use dh_json::{escape, Json};

/// Where a result was measured and with what build. Two records are
/// comparable only when every host field matches.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores the OS offers this process.
    pub nproc: usize,
    /// Worker threads the engine resolved (`dh_exec::max_threads`).
    pub threads: usize,
    /// SIMD backend the kernels dispatch to.
    pub simd: String,
    /// CPU model, from `/proc/cpuinfo` where it exists.
    pub cpu: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

/// Runs `program args` and returns its trimmed stdout, `unknown` when it
/// cannot run or fails.
fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: dh_exec::max_threads(),
            simd: dh_simd::backend_name().to_string(),
            cpu,
            rustc: output_of("rustc", &["--version"]),
            commit: output_of("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fields that must agree for two results to be comparable.
    fn machine(&self) -> (usize, usize, &str, &str) {
        (self.nproc, self.threads, &self.simd, &self.cpu)
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"threads\": {}, \"simd\": \"{}\", \"cpu\": \"{}\", \
             \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.nproc,
            self.threads,
            escape(&self.simd),
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.commit)
        )
    }

    fn from_json(v: &Json) -> Option<Self> {
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let n = |k: &str| v.get(k).and_then(Json::as_u64).map(|n| n as usize);
        Some(Self {
            nproc: n("nproc")?,
            threads: n("threads")?,
            simd: s("simd")?,
            cpu: s("cpu")?,
            rustc: s("rustc")?,
            commit: s("commit")?,
        })
    }
}

/// The process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], MiB.
///
/// # Errors
///
/// Where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Hands the heap's free pages back to the kernel (glibc `malloc_trim`).
///
/// A run of one operation in a fresh process, as a user starts it, holds
/// no memory freed by an earlier one. Without the trim, what the
/// allocator kept from earlier operations of the same benchmark process
/// stayed resident: the smallest per-operation peak of a fleet run read
/// 80 MiB in some processes and 99 MiB in others.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` only releases free memory held by the
    // allocator; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Trims the heap and resets the peak resident set to the current one,
/// so the next [`peak_rss_mib`] reads the peak of what ran in between.
/// Affects only this process's own accounting.
///
/// # Errors
///
/// Where the kernel does not offer `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// The result object the benchmark prints as its last line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A result record for `--out`: the run's arguments, host and build,
/// and the printed result.
pub fn record_json(host: &Host, workload: &str, seed: u64, trace: bool, result: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"host\": {}, \"result\": {result}}}\n",
        escape(workload),
        u8::from(trace),
        host.to_json()
    )
}

struct Record {
    workload: String,
    trace: u64,
    host: Host,
    metrics: Vec<(String, f64, String)>,
}

fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let bad = |what: &str| format!("{path}: missing or malformed {what}");
    let metrics = doc
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .ok_or_else(|| bad("result.metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(bad(name)),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Record {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("workload"))?
            .to_string(),
        trace: doc
            .get("trace")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("trace"))?,
        host: doc
            .get("host")
            .and_then(Host::from_json)
            .ok_or_else(|| bad("host"))?,
        metrics,
    })
}

/// Per-metric deltas from record `base` to record `new`. Rows from
/// different hosts are printed but marked not comparable.
///
/// # Errors
///
/// Unreadable records, or records of different workloads or modes.
pub fn compare(base: &str, new: &str) -> Result<String, String> {
    let (a, b) = (read_record(base)?, read_record(new)?);
    if (a.workload.as_str(), a.trace) != (b.workload.as_str(), b.trace) {
        return Err(format!(
            "{base} measures {} (trace {}), {new} measures {} (trace {})",
            a.workload, a.trace, b.workload, b.trace
        ));
    }
    let comparable = a.host.machine() == b.host.machine();
    let mut out = String::new();
    let _ = writeln!(out, "workload {} (trace {})", a.workload, a.trace);
    let _ = writeln!(out, "base: {}", a.host.to_json());
    let _ = writeln!(out, "new:  {}", b.host.to_json());
    if !comparable {
        let _ = writeln!(out, "hosts differ: every row is NOT COMPARABLE");
    }
    for (name, va, unit) in &a.metrics {
        let Some((_, vb, _)) = b.metrics.iter().find(|(n, _, _)| n == name) else {
            let _ = writeln!(out, "{name:<34} {va:>14.6} -> {:>14}  {unit}", "missing");
            continue;
        };
        let delta = if *va != 0.0 {
            format!("{:+.2}%", (vb - va) / va.abs() * 100.0)
        } else {
            "n/a".into()
        };
        let tag = if comparable { "" } else { "  not comparable" };
        let _ = writeln!(
            out,
            "{name:<34} {va:>14.6} -> {vb:>14.6}  {unit:<6} {delta:>9}{tag}"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(nproc: usize) -> Host {
        Host {
            nproc,
            threads: nproc,
            simd: "avx2".into(),
            cpu: "test cpu".into(),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
        }
    }

    #[test]
    fn compare_marks_a_different_host_as_not_comparable() {
        let dir = std::env::temp_dir().join(format!("dhbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, h: &Host, v: f64| {
            let result = result_json(true, 3, 0, &[("jobs_per_s", v, "1/s")]);
            let path = dir.join(name);
            std::fs::write(&path, record_json(h, "serve_mixed", 1, false, &result)).unwrap();
            path.display().to_string()
        };
        let base = write("a.json", &host(2), 200.0);
        let same = write("b.json", &host(2), 210.0);
        let other = write("c.json", &host(8), 400.0);
        let out = compare(&base, &same).unwrap();
        assert!(
            out.contains("+5.00%") && !out.contains("NOT COMPARABLE"),
            "{out}"
        );
        let out = compare(&base, &other).unwrap();
        assert!(out.contains("not comparable"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_records_round_trip() {
        let h = host(4);
        let doc = Json::parse(&h.to_json()).unwrap();
        assert_eq!(Host::from_json(&doc), Some(h));
    }
}
