//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository root
//! is generated from these tables (`--emit-spec`) and a unit test keeps the
//! two identical.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    /// The name it is printed under.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The offered loads of the `net-ladder` steps, in operations per second.
pub const LADDER_RATES: [u32; 5] = [200, 400, 800, 1600, 3200];

/// The five workloads, in suite order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "sim-steady",
        why: "SimEngine, batched and compacted, zipf puts over 64 keys: the EtobOmega automaton and the World scheduler do the work; no codec, socket, disk or pacing",
    },
    WorkloadSpec {
        name: "sim-history",
        why: "SimEngine, default unbounded-history config: same layers, per-op cost grows with history and compaction is bypassed, so a sim-steady win bought on the paper-literal path shows",
    },
    WorkloadSpec {
        name: "net-ladder",
        why: "NetEngine over loopback TCP, open-loop rate ladder 200 to 3200 op/s: codec, sockets and the node event loop do the work; shows the timer-starvation cliff",
    },
    WorkloadSpec {
        name: "net-durable",
        why: "net-ladder's 200 op/s rate plus durable(dir) and 128-byte values: RecordLog appends, log rewrites and checkpoint fsyncs sit on the commit path; isolates what storage costs",
    },
    WorkloadSpec {
        name: "net-failover",
        why: "durable TCP cluster, open loop through repeated crash and restart of the Omega leader: service while Omega is wrong, heartbeat detection, disk recovery and catch-up",
    },
];

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The end-to-end metrics with the share of the parent's median by which
/// each may worsen before a change counts as a regression. Every workload
/// reports every one of them; none is ever 0.
pub const END_TO_END: [(MetricSpec, f64); 5] = [
    (higher("throughput_ops_s", "1/s"), 0.25),
    (lower("latency_p50_ms", "ms"), 0.25),
    (lower("latency_p90_ms", "ms"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// The per-layer metrics (prefix = the module measured). Reported by the
/// traced run, never gated. A workload that does not touch a layer reports
/// 0 for it.
pub const PER_LAYER: &[MetricSpec] = &[
    // the ladder verdict and the fault numbers: workload-specific, so they
    // cannot be end-to-end metrics (every workload reports every one of
    // those), but they are what an optimisation of the net path should move
    higher("net.max_rate_ok", "1/s"),
    lower("detectors.failover_stall_ms", "ms"),
    lower("detectors.first_post_crash_ms", "ms"),
    lower("detectors.suspect_after_timers", "count"),
    lower("durable.catchup_ms", "ms"),
    // CPU time moves with what the host's other guests do to the core, by a
    // fifth from run to run on net: too much for a bound, still worth reading
    lower("cpu_us_per_op", "us"),
    lower("latency_p99_ms", "ms"),
    higher("latency_samples", "count"),
    lower("late_ops_pct", "%"),
    // core: EtobOmega / Replica handlers in the traced lock-step replay
    lower("core.on_input_ns", "ns"),
    lower("core.on_message_ns", "ns"),
    lower("core.on_timer_ns", "ns"),
    lower("core.self_ns_per_op", "ns"),
    lower("core.handler_calls_per_op", "count"),
    lower("core.msgs_per_op", "count"),
    lower("core.updates_per_op", "count"),
    lower("core.wire_bytes_per_op", "B"),
    higher("core.compactions", "count"),
    lower("core.sync_pulls", "count"),
    lower("core.resident_entries_peak", "count"),
    // sim: the World scheduler under the timed facade run
    lower("sim.steps_per_op", "count"),
    lower("sim.timer_fires_per_op", "count"),
    lower("sim.world_ns_per_op", "ns"),
    lower("sim.wire_bytes_per_op", "B"),
    // replication: facade calls and the state machine
    lower("replication.apply_ns", "ns"),
    lower("replication.snapshot_ns", "ns"),
    lower("replication.snapshot_bytes", "B"),
    lower("replication.submit_call_us", "us"),
    lower("replication.applied_poll_us", "us"),
    // codec: WireCodec over the message corpus of the lock-step replay
    lower("codec.encode_ns_per_msg", "ns"),
    lower("codec.decode_ns_per_msg", "ns"),
    lower("codec.bytes_per_msg", "B"),
    // net: NetEngine counters per ladder step + generator bookkeeping
    lower("net.msgs_per_op", "count"),
    lower("net.wire_bytes_per_op", "B"),
    lower("net.gen_lag_p99_ms", "ms"),
    higher("net.timer_fires_per_s.r200", "1/s"),
    higher("net.timer_fires_per_s.r400", "1/s"),
    higher("net.timer_fires_per_s.r800", "1/s"),
    higher("net.timer_fires_per_s.r1600", "1/s"),
    higher("net.timer_fires_per_s.r3200", "1/s"),
    lower("net.p90_ms.r200", "ms"),
    lower("net.p90_ms.r400", "ms"),
    lower("net.p90_ms.r800", "ms"),
    lower("net.p90_ms.r1600", "ms"),
    lower("net.p90_ms.r3200", "ms"),
    lower("net.p99_ms.r200", "ms"),
    lower("net.p99_ms.r400", "ms"),
    lower("net.p99_ms.r800", "ms"),
    lower("net.p99_ms.r1600", "ms"),
    lower("net.p99_ms.r3200", "ms"),
    lower("net.late_ops_pct.r200", "%"),
    lower("net.late_ops_pct.r400", "%"),
    lower("net.late_ops_pct.r800", "%"),
    lower("net.late_ops_pct.r1600", "%"),
    lower("net.late_ops_pct.r3200", "%"),
    lower("net.backlog_at_stop.r200", "count"),
    lower("net.backlog_at_stop.r400", "count"),
    lower("net.backlog_at_stop.r800", "count"),
    lower("net.backlog_at_stop.r1600", "count"),
    lower("net.backlog_at_stop.r3200", "count"),
    // storage: RecordLog / SnapshotStore driven directly on a scratch dir
    lower("storage.append_ns", "ns"),
    lower("storage.sync_ns", "ns"),
    lower("storage.rewrite_ns", "ns"),
    lower("storage.snapshot_publish_ns", "ns"),
    lower("storage.write_bytes_per_op", "B"),
    // durable: DurableStore fed from the lock-step replay, and recovery
    lower("durable.record_tail_ns", "ns"),
    lower("durable.checkpoint_ns", "ns"),
    lower("durable.open_recover_ns", "ns"),
    // telemetry: logical-tick percentiles (exact on sim) and recorder cost
    lower("telemetry.submit_deliver_p50_ticks", "ticks"),
    lower("telemetry.submit_deliver_p99_ticks", "ticks"),
    lower("telemetry.stability_lag_p50_ticks", "ticks"),
    lower("telemetry.record_ns", "ns"),
    lower("telemetry.events_per_op", "count"),
    // the tracer itself
    lower("trace.overhead_pct", "%"),
    higher("trace.spans", "count"),
];

/// The regression bound of end-to-end metric `name`.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(m, _)| m.name == name)
        .map(|(_, bound)| *bound)
}

/// The command the driver runs from the repository root (it appends
/// `--workload … --seed … --seconds … --trace …`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Where the tables break the contract's limits (empty = valid).
pub fn violations() -> Vec<String> {
    use crate::json::{valid_name, valid_unit};
    let mut found = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            found.push(what);
        }
    };
    check(
        (2..=8).contains(&WORKLOADS.len()),
        "2 to 8 workloads".into(),
    );
    check(
        (1..=16).contains(&END_TO_END.len()),
        "1 to 16 end-to-end metrics".into(),
    );
    check(
        (1..=128).contains(&PER_LAYER.len()),
        "1 to 128 per-layer metrics".into(),
    );
    check(
        (1..=60).contains(&RUN_SECONDS),
        "run_seconds from 1 to 60".into(),
    );
    let mut names = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        check(valid_name(w.name), format!("workload name {}", w.name));
        check(
            w.why.len() <= 200 && !w.why.contains('\n'),
            format!("why of {}", w.name),
        );
        check(names.insert(w.name), format!("{} is used twice", w.name));
    }
    for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
        check(valid_name(m.name), format!("metric name {}", m.name));
        check(valid_unit(m.unit), format!("unit {} of {}", m.unit, m.name));
        check(names.insert(m.name), format!("{} is used twice", m.name));
    }
    for (m, bound) in &END_TO_END {
        check(
            *bound > 0.0 && *bound <= 0.25,
            format!("bound of {}", m.name),
        );
    }
    let setup = END_TO_END.iter().find(|(m, _)| m.name == "setup_s");
    check(
        setup.is_some_and(|(m, b)| {
            (m.unit, m.better) == ("s", Better::Lower) && END_TO_END.iter().all(|(_, o)| o <= b)
        }),
        "setup_s in s, lower is better, with the largest bound".into(),
    );
    for part in COMMAND {
        let local = part.len() <= 200 && !part.starts_with('/') && !part.contains("..");
        check(local, format!("command part {part}"));
    }
    check(
        benchmark_json().pretty().len() < 64 * 1024,
        "at most 64 KiB".into(),
    );
    found
}

/// `BENCHMARK.json` as a JSON document.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        let mut pairs = metric(m);
                        pairs.push(("bound", Json::Num(*bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| Json::obj(metric(m))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn the_tables_meet_the_contract_limits() {
        assert_eq!(violations(), Vec::<String>::new());
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json().pretty(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --emit-spec > BENCHMARK.json"
        );
    }
}
