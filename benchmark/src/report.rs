//! What one run of one workload reports, and the result line the driver
//! reads.

use std::collections::BTreeMap;

use crate::check::Verdict;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};

/// The five end-to-end numbers of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EndToEnd {
    /// Operations applied at every counted replica per second of measured
    /// wall time.
    pub throughput_ops_s: f64,
    /// Median latency (see the README for each workload's definition).
    pub latency_p50_ms: f64,
    /// 90th-percentile latency.
    pub latency_p90_ms: f64,
    /// Peak resident set (`VmHWM`) when the run's first episode ended.
    pub peak_rss_mb: f64,
    /// Set-up time of an episode (median on net, fastest on the simulator).
    pub setup_s: f64,
}

impl EndToEnd {
    /// The value reported under `name`.
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "throughput_ops_s" => self.throughput_ops_s,
            "latency_p50_ms" => self.latency_p50_ms,
            "latency_p90_ms" => self.latency_p90_ms,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => self.setup_s,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Measured operations not applied everywhere by their drain deadline.
    pub unapplied: u64,
    /// The correctness gate's findings.
    pub verdict: Verdict,
    /// The end-to-end metrics.
    pub e2e: EndToEnd,
    /// The per-layer metrics (filled by the traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form observations for the human reader (stderr).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Sets per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the spec table — a typo here would
    /// otherwise silently report 0 under the real name.
    pub fn layer(&mut self, name: &str, value: f64) {
        let declared = PER_LAYER.iter().find(|m| m.name == name);
        let Some(declared) = declared else {
            panic!("{name} is not a declared per-layer metric");
        };
        self.layers.insert(declared.name, value);
    }

    /// What counts against the run: every unapplied operation and every
    /// failed correctness check.
    pub fn failed(&self) -> u64 {
        self.unapplied + self.verdict.failures.len() as u64
    }

    /// Whether every output the run checked was correct. An operation the
    /// service did not apply in time is a failed operation, not a wrong
    /// output: it counts in `failed` and leaves this `true`.
    pub fn correct(&self) -> bool {
        self.verdict.ok()
    }

    /// The metrics object of the result line: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one.
    pub fn metrics_json(&self, traced: bool) -> Json {
        let entry = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        if traced {
            Json::obj(PER_LAYER.iter().map(|m| {
                let value = self.layers.get(m.name).copied().unwrap_or(0.0);
                (m.name, entry(value, m.unit))
            }))
        } else {
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|(m, _)| (m.name, entry(self.e2e.get(m.name), m.unit))),
            )
        }
    }

    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn result_line(&self, traced: bool) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed() as i64)),
            ("metrics", self.metrics_json(traced)),
        ])
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_carry_exactly_the_declared_metrics() {
        let mut result = RunResult {
            attempted: 1000,
            e2e: EndToEnd {
                throughput_ops_s: 90_000.5,
                latency_p50_ms: 10.25,
                latency_p90_ms: 11.5,
                peak_rss_mb: 150.0,
                setup_s: 0.2413,
            },
            ..RunResult::default()
        };
        result.layer("core.on_input_ns", 812.0);
        let untraced = result.result_line(false);
        assert!(
            untraced.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{")
        );
        for (m, _) in &END_TO_END {
            assert!(
                untraced.contains(&format!("\"{}\":{{\"value\":", m.name)),
                "{}",
                m.name
            );
        }
        assert!(untraced.contains("\"setup_s\":{\"value\":0.2413,\"unit\":\"s\"}"));
        assert!(!untraced.contains("core.on_input_ns"));
        let traced = result.result_line(true);
        for m in PER_LAYER {
            assert!(
                traced.contains(&format!("\"{}\":{{\"value\":", m.name)),
                "{}",
                m.name
            );
        }
        assert!(traced.contains("\"core.on_input_ns\":{\"value\":812,\"unit\":\"ns\"}"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut result = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        assert!(result.correct());
        result
            .verdict
            .failures
            .push("replica 1 applied 9 of 10".into());
        assert!(!result.correct());
        assert!(result
            .result_line(false)
            .starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1"));
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_layer_names_are_rejected() {
        RunResult::default().layer("core.on_inptu_ns", 1.0);
    }
}
