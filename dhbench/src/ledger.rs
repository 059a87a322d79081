//! The metric table and the result a workload hands back.
//!
//! End-to-end metrics are defined on every workload and never read 0.
//! Per-layer metrics belong to the one gated workload whose traced run
//! measures them (`*` for the ledger-health rows every workload reports);
//! a traced run prints them all, with 0 for the layers it does not call.

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd::new("setup_s", "s"),
    EndToEnd::new("unit_epochs_per_s", "1/s"),
    EndToEnd::new("jobs_per_s", "1/s"),
    EndToEnd::new("job_latency_p50_ms", "ms"),
    EndToEnd::new("peak_rss_mib", "MiB"),
];

impl EndToEnd {
    const fn new(name: &'static str, unit: &'static str) -> Self {
        Self { name, unit }
    }
}

/// One per-layer metric, with the workload it is measured on and the
/// end-to-end metric a change to its layer should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub workload: &'static str,
    pub moves: &'static str,
}

impl Layer {
    const fn new(
        name: &'static str,
        unit: &'static str,
        workload: &'static str,
        moves: &'static str,
    ) -> Self {
        Self {
            name,
            unit,
            workload,
            moves,
        }
    }
}

const FLEET: &str = "fleet_population";
const SCENARIO: &str = "scenario_checkpointed";
const ANY: &str = "*";

/// Measured in the traced run.
pub const PER_LAYER: &[Layer] = &[
    Layer::new("fleet.new_s", "s", FLEET, "setup_s"),
    Layer::new("fleet.step_s", "s", FLEET, "unit_epochs_per_s"),
    Layer::new("fleet.step_calls", "count", FLEET, "unit_epochs_per_s"),
    Layer::new("fleet.step_us_per_device", "us", FLEET, "unit_epochs_per_s"),
    Layer::new(
        "fleet.step_ns_per_device_epoch",
        "ns",
        FLEET,
        "unit_epochs_per_s",
    ),
    Layer::new("fleet.snapshot_s", "s", FLEET, "unit_epochs_per_s"),
    Layer::new("fleet.ckpt_blocked_s", "s", FLEET, "unit_epochs_per_s"),
    Layer::new("fleet.ckpt_writes", "count", FLEET, "unit_epochs_per_s"),
    Layer::new("fleet.ckpt_bytes", "bytes", FLEET, "unit_epochs_per_s"),
    Layer::new("fleet.report_s", "s", FLEET, "job_latency_p50_ms"),
    Layer::new("exec.fleet_speedup", "ratio", FLEET, "unit_epochs_per_s"),
    Layer::new(
        "exec.scenario_speedup",
        "ratio",
        SCENARIO,
        "unit_epochs_per_s",
    ),
    Layer::new("scenario.parse_s", "s", SCENARIO, "setup_s"),
    Layer::new("scenario.new_s", "s", SCENARIO, "setup_s"),
    Layer::new("scenario.step_s", "s", SCENARIO, "unit_epochs_per_s"),
    Layer::new(
        "scenario.step_calls",
        "count",
        SCENARIO,
        "unit_epochs_per_s",
    ),
    Layer::new("scenario.ckpt_write_s", "s", SCENARIO, "unit_epochs_per_s"),
    Layer::new(
        "scenario.ckpt_writes",
        "count",
        SCENARIO,
        "unit_epochs_per_s",
    ),
    Layer::new(
        "scenario.ckpt_bytes",
        "bytes",
        SCENARIO,
        "unit_epochs_per_s",
    ),
    Layer::new("scenario.encode_s", "s", SCENARIO, "unit_epochs_per_s"),
    Layer::new("scenario.report_s", "s", SCENARIO, "job_latency_p50_ms"),
    Layer::new("serve.submit_ms", "ms", FLEET, "job_latency_p50_ms"),
    Layer::new("serve.queue_wait_ms", "ms", FLEET, "job_latency_p50_ms"),
    Layer::new("serve.run_fleet_ms", "ms", FLEET, "job_latency_p50_ms"),
    Layer::new("serve.run_fleet_ckpt_ms", "ms", FLEET, "job_latency_p50_ms"),
    Layer::new("serve.run_scenario_ms", "ms", FLEET, "job_latency_p50_ms"),
    Layer::new("serve.engine_fleet_ms", "ms", FLEET, "job_latency_p50_ms"),
    Layer::new(
        "serve.engine_fleet_ckpt_ms",
        "ms",
        FLEET,
        "job_latency_p50_ms",
    ),
    Layer::new(
        "serve.engine_scenario_ms",
        "ms",
        FLEET,
        "job_latency_p50_ms",
    ),
    Layer::new(
        "serve.sse_frames_per_job",
        "count",
        FLEET,
        "job_latency_p50_ms",
    ),
    Layer::new(
        "serve.sse_bytes_per_job",
        "bytes",
        FLEET,
        "job_latency_p50_ms",
    ),
    Layer::new("serve.refused", "count", FLEET, "jobs_per_s"),
    Layer::new(
        "serve.job_latency_p99_ms",
        "ms",
        FLEET,
        "job_latency_p50_ms",
    ),
    Layer::new(
        "serve.latency_samples",
        "count",
        FLEET,
        "job_latency_p50_ms",
    ),
    Layer::new(
        "trace.unattributed_share",
        "ratio",
        ANY,
        "job_latency_p50_ms",
    ),
    Layer::new("trace.overhead_share", "ratio", ANY, "job_latency_p50_ms"),
];

/// The largest share of a traced operation's wall time the layer spans
/// may leave unaccounted for; a traced run above it fails.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// What one workload measured: operation counts plus named values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in timed windows (runs or daemon jobs).
    pub attempted: u64,
    /// Operations that errored, were refused, degraded, or gave a wrong
    /// fingerprint.
    pub failed: u64,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fails a traced run whose layers leave more than
    /// [`MAX_UNATTRIBUTED_SHARE`] of wall time unaccounted for.
    pub fn check_ledger(&mut self) {
        if let Some(share) = self.get("trace.unattributed_share") {
            if share.abs() > MAX_UNATTRIBUTED_SHARE {
                self.problems.push(format!(
                    "layers leave {:.1}% of wall time unattributed (limit {:.0}%)",
                    share * 100.0,
                    MAX_UNATTRIBUTED_SHARE * 100.0
                ));
            }
        }
    }

    /// The `(name, value, unit)` rows a run prints: every end-to-end
    /// metric, or every per-layer metric when traced.
    ///
    /// # Errors
    ///
    /// A metric of this workload was not measured, or is not finite.
    pub fn rows(
        &self,
        workload: &str,
        traced: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let wanted: Vec<(&'static str, &'static str, bool)> = if traced {
            PER_LAYER
                .iter()
                .map(|l| (l.name, l.unit, l.workload == workload || l.workload == ANY))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit, true)).collect()
        };
        wanted
            .into_iter()
            .map(|(name, unit, mine)| {
                let value = match (self.get(name), mine) {
                    (Some(v), _) if v.is_finite() => v,
                    (Some(v), _) => return Err(format!("{name} is not finite: {v}")),
                    (None, true) => return Err(format!("{name} was not measured")),
                    (None, false) => 0.0,
                };
                Ok((name, value, unit))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// table, names and units in order.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = dh_json::Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn every_layer_names_a_workload_and_an_end_to_end_metric() {
        for l in PER_LAYER {
            assert!(
                l.workload == ANY || crate::WORKLOADS.contains(&l.workload),
                "{}",
                l.name
            );
            assert!(END_TO_END.iter().any(|m| m.name == l.moves), "{}", l.name);
        }
    }

    #[test]
    fn rows_zero_other_workloads_layers_and_refuse_gaps() {
        let mut outcome = Outcome::default();
        for l in PER_LAYER
            .iter()
            .filter(|l| l.workload == SCENARIO || l.workload == ANY)
        {
            outcome.set(l.name, 1.5);
        }
        let rows = outcome.rows(SCENARIO, true).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (name, v, _) in rows {
            let mine = name.starts_with("scenario.")
                || name.starts_with("trace.")
                || name == "exec.scenario_speedup";
            assert_eq!(v == 1.5, mine, "{name}");
        }
        assert!(outcome.rows(FLEET, true).is_err());
        outcome.set("setup_s", f64::NAN);
        assert!(outcome.rows(SCENARIO, false).is_err());
    }
}
