//! Experiment E12 driver: wire bytes and wall clock vs history length, for
//! the delta-state wire format against the paper-literal full-graph format.
//!
//! The grid is deterministic (fixed seeds, fixed-delay network, virtual
//! time), so everything except the wall-clock column is bit-reproducible —
//! which is what lets the `perf-smoke` CI job regenerate `BENCH_delta.json`
//! twice and diff the outputs. The same driver backs the Criterion bench
//! target (`cargo bench -p ec-bench`, experiment E12) and the standalone
//! `e12_delta` binary.

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::types::{Instrumented, MsgId};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::OmegaOracle;
use ec_sim::{FailurePattern, NetworkModel, ProcessId, WorldBuilder};
use ec_telemetry::{Recorder, TelemetryReport, TimeSource, FLIGHT_CAPACITY};

/// Number of processes in every E12 run (the acceptance grid is a
/// 5-process group).
pub const E12_PROCESSES: usize = 5;

/// One measured grid point of experiment E12.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPoint {
    /// History length: number of operations broadcast.
    pub history: usize,
    /// `true` for the delta wire format, `false` for full-graph.
    pub delta: bool,
    /// Encoded wire bytes handed to the network over the whole run.
    pub bytes_sent: u64,
    /// Messages handed to the network over the whole run.
    pub messages_sent: u64,
    /// `update` broadcasts performed (flush events).
    pub updates_sent: u64,
    /// Digest pulls performed (0 in full-graph mode, and 0 on this
    /// loss-free grid unless reordering opened a gap).
    pub sync_pulls: u64,
    /// Final stable sequence, as identifiers (identical across modes —
    /// asserted by the caller and by `tests/delta_wire.rs`).
    pub sequence: Vec<MsgId>,
    /// Submit→deliver latency p50 across all processes, in logical ticks
    /// (virtual time, so the column is bit-reproducible like the byte
    /// counters).
    pub submit_deliver_p50: u64,
    /// Submit→deliver latency p90, in logical ticks.
    pub submit_deliver_p90: u64,
    /// Submit→deliver latency p99, in logical ticks.
    pub submit_deliver_p99: u64,
    /// Wall-clock microseconds of the serving phase (host-dependent; not
    /// part of the deterministic JSON artifact).
    pub wall_micros: u128,
}

/// Runs one E12 grid point: `history` operations from round-robin origins
/// over a 5-process loss-free fixed-delay group, in the chosen wire format.
/// Panics if any process fails to deliver the full history — the point is
/// wire cost, not partial progress.
pub fn delta_run(history: usize, delta: bool) -> DeltaPoint {
    let n = E12_PROCESSES;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let workload = BroadcastWorkload::uniform(n, history, 10, 2);
    let config = EtobConfig::default().with_delta_sync(delta);
    let started = std::time::Instant::now();
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .seed(12)
        .build_with(
            |p| {
                let mut algorithm = EtobOmega::new(p, config);
                algorithm.attach_recorder(Recorder::new(
                    p.index() as u32,
                    TimeSource::Logical,
                    FLIGHT_CAPACITY,
                ));
                algorithm
            },
            omega,
        );
    workload.submit_to(&mut world);
    world.run_until(workload.last_submission_time() + 600);
    let wall_micros = started.elapsed().as_micros();
    let sequence: Vec<MsgId> = world
        .algorithm(ProcessId::new(0))
        .delivered()
        .iter()
        .map(|m| m.id)
        .collect();
    for p in world.process_ids() {
        assert_eq!(
            world.algorithm(p).delivered().len(),
            history,
            "{p} did not deliver the full history (delta = {delta})"
        );
    }
    let mut telemetry = TelemetryReport::default();
    for p in world.process_ids() {
        if let Some(recorder) = world.algorithm(p).recorder() {
            telemetry.merge(&recorder.report());
        }
    }
    let metrics = world.metrics();
    DeltaPoint {
        history,
        delta,
        bytes_sent: metrics.bytes_sent,
        messages_sent: metrics.messages_sent,
        updates_sent: world
            .process_ids()
            .map(|p| world.algorithm(p).updates_sent())
            .sum(),
        sync_pulls: world
            .process_ids()
            .map(|p| world.algorithm(p).sync_pulls())
            .sum(),
        sequence,
        submit_deliver_p50: telemetry.submit_deliver.quantile(500),
        submit_deliver_p90: telemetry.submit_deliver.quantile(900),
        submit_deliver_p99: telemetry.submit_deliver.quantile(990),
        wall_micros,
    }
}

/// The E12 history-length grid: the acceptance criterion is evaluated at
/// the largest point (500).
pub const E12_GRID: [usize; 3] = [100, 250, 500];

/// Runs the full E12 grid once: one `(full, delta)` measurement pair per
/// history length, with the cross-mode sequence-identity assertion applied.
/// Both renderers below consume this, so a caller that wants the table
/// *and* the JSON simulates each point exactly once.
pub fn run_grid() -> Vec<(DeltaPoint, DeltaPoint)> {
    E12_GRID
        .iter()
        .map(|&history| {
            let full = delta_run(history, false);
            let delta = delta_run(history, true);
            assert_eq!(
                full.sequence, delta.sequence,
                "wire formats must deliver identical stable sequences"
            );
            (full, delta)
        })
        .collect()
}

/// Prints the human-readable E12 table (including the host-dependent
/// wall-clock column, which the JSON artifact deliberately omits) — shared
/// by the Criterion bench target and the `e12_delta` binary so the two
/// outputs cannot drift apart.
pub fn print_table(pairs: &[(DeltaPoint, DeltaPoint)]) {
    println!(
        "{:<10} {:<7} {:>14} {:>10} {:>10} {:>9} {:>9} {:>12}",
        "history", "mode", "bytes sent", "messages", "updates", "lat p50", "lat p99", "wall [ms]"
    );
    for (full, delta) in pairs {
        for p in [full, delta] {
            println!(
                "{:<10} {:<7} {:>14} {:>10} {:>10} {:>9} {:>9} {:>12.2}",
                p.history,
                if p.delta { "delta" } else { "full" },
                p.bytes_sent,
                p.messages_sent,
                p.updates_sent,
                p.submit_deliver_p50,
                p.submit_deliver_p99,
                p.wall_micros as f64 / 1_000.0,
            );
        }
        println!(
            "  -> {:.1}x fewer wire bytes at history {}",
            full.bytes_sent as f64 / delta.bytes_sent as f64,
            full.history
        );
    }
}

/// Renders the deterministic JSON artifact (`BENCH_delta.json`) from a
/// measured grid: one record per (history, mode) plus the per-history byte
/// ratio. Wall-clock numbers are deliberately excluded so the artifact
/// diffs clean across runs and hosts.
pub fn grid_json(pairs: &[(DeltaPoint, DeltaPoint)]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E12\",\n  \"points\": [\n");
    for (i, (full, delta)) in pairs.iter().enumerate() {
        for (j, p) in [full, delta].into_iter().enumerate() {
            out.push_str(&format!(
                "    {{\"history\": {}, \"mode\": \"{}\", \"bytes_sent\": {}, \
                 \"messages_sent\": {}, \"updates_sent\": {}, \"sync_pulls\": {}, \
                 \"submit_deliver_p50\": {}, \"submit_deliver_p90\": {}, \
                 \"submit_deliver_p99\": {}}}{}\n",
                p.history,
                if p.delta { "delta" } else { "full" },
                p.bytes_sent,
                p.messages_sent,
                p.updates_sent,
                p.sync_pulls,
                p.submit_deliver_p50,
                p.submit_deliver_p90,
                p.submit_deliver_p99,
                if i + 1 == pairs.len() && j == 1 {
                    ""
                } else {
                    ","
                },
            ));
        }
    }
    out.push_str("  ],\n  \"bytes_ratio_full_over_delta\": {");
    for (i, (full, delta)) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{}\": {:.1}",
            if i == 0 { "" } else { ", " },
            full.history,
            full.bytes_sent as f64 / delta.bytes_sent as f64
        ));
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_json_is_deterministic_and_shows_the_win() {
        // a reduced grid keeps the unit test fast while exercising the same
        // measurement + rendering paths as the real artifact
        let pair = |history| {
            let full = delta_run(history, false);
            let delta = delta_run(history, true);
            assert_eq!(full.sequence, delta.sequence);
            (full, delta)
        };
        let pairs = vec![pair(30), pair(60)];
        let a = grid_json(&pairs);
        let again = vec![pair(30), pair(60)];
        assert_eq!(
            a,
            grid_json(&again),
            "the artifact must be bit-reproducible"
        );
        assert!(a.contains("\"mode\": \"delta\""));
        let (full, delta) = &pairs[1];
        assert!(full.bytes_sent > delta.bytes_sent);
        // the latency percentiles are tick-based, so they are measured,
        // nonzero, ordered, and part of the reproducible artifact
        assert!(a.contains("\"submit_deliver_p50\""));
        assert!(delta.submit_deliver_p50 > 0);
        assert!(delta.submit_deliver_p99 >= delta.submit_deliver_p90);
        assert!(delta.submit_deliver_p90 >= delta.submit_deliver_p50);
        print_table(&pairs); // smoke the shared renderer
    }
}
