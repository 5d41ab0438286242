//! Experiment E13: resident graph size and wire bytes over a long run,
//! with stable-prefix compaction on vs off.
//!
//! The claim under test: without compaction the causality graph and the
//! delivered tail are **unbounded** — resident entries grow linearly with
//! history — while with compaction the stable prefix is folded away and the
//! resident footprint is bounded by the fold cadence plus in-flight traffic,
//! at *equal correctness* (same delivered count, same rolling delivered
//! hash).
//!
//! The grid is deterministic (a simulated `World`, fixed-delay network,
//! virtual time), so every column is bit-reproducible — the `perf-smoke` CI
//! job regenerates `BENCH_compaction.json` twice and diffs the outputs.
//! Wall-clock cost per operation is measured by `benchmark/` (`sim-steady`
//! against `sim-history`). This module backs the E13 table of the
//! `experiments` binary and the standalone `e13_compaction` binary.

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::OmegaOracle;
use ec_sim::{FailurePattern, NetworkModel, ProcessId, World, WorldBuilder};

/// Number of processes in every E13 run.
pub const E13_PROCESSES: usize = 3;

/// Virtual ticks between resident-size samples.
const SAMPLE_EVERY: u64 = 250;

/// One measured E13 run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionPoint {
    /// Number of operations broadcast.
    pub ops: usize,
    /// Compaction chunk (0 = compaction off).
    pub chunk: u64,
    /// Peak resident entries across processes and samples: causality-graph
    /// nodes plus the resident delivered tail of the worst process.
    pub resident_peak: usize,
    /// Resident entries at the end of the run (worst process).
    pub resident_final: usize,
    /// Stable-prefix folds performed, summed over processes.
    pub compactions: u64,
    /// Entries folded out of resident state at process 0.
    pub folded: u64,
    /// Messages delivered at process 0 (must equal `ops`).
    pub delivered_total: u64,
    /// Rolling FNV-1a hash over the full delivered sequence at process 0 —
    /// identical across modes, which is the equal-correctness anchor.
    pub delivered_hash: u64,
    /// Encoded wire bytes handed to the network over the whole run.
    pub bytes_sent: u64,
}

/// The worst process's resident footprint: causality-graph nodes plus the
/// not-yet-folded delivered tail.
fn resident(world: &World<EtobOmega, OmegaOracle>) -> usize {
    let footprint = |p| {
        let automaton = world.algorithm(p);
        automaton.causal_graph().len() + automaton.delivered().len()
    };
    world.process_ids().map(footprint).max().unwrap_or(0)
}

/// Runs one E13 point: `ops` operations from round-robin origins over a
/// loss-free fixed-delay group with Ω stable on process 0, folding every
/// `chunk` stable entries (`chunk = 0` disables compaction). The run stops
/// at the first tick after the last submission at which every process has
/// delivered the full history and no message is in flight. Panics if that
/// tick does not come within 10 000 ticks.
pub fn compaction_run(ops: usize, chunk: u64) -> CompactionPoint {
    let n = E13_PROCESSES;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let workload = BroadcastWorkload::uniform(n, ops, 10, 2);
    let mut config = EtobConfig::default();
    if chunk > 0 {
        config = config.with_compaction(chunk);
    }
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .build_with(|p| EtobOmega::new(p, config), omega);
    workload.submit_to(&mut world);
    let mut resident_peak = 0usize;
    let last_submission = workload.last_submission_time();
    let hard_cap = last_submission + 10_000;
    let mut t = 0u64;
    loop {
        world.run_until(t);
        if t.is_multiple_of(SAMPLE_EVERY) {
            resident_peak = resident_peak.max(resident(&world));
        }
        let metrics = world.metrics();
        let drained = metrics.messages_delivered == metrics.messages_sent;
        let complete = || {
            let total = |p| world.algorithm(p).delivered_total();
            world.process_ids().all(|p| total(p) == ops as u64)
        };
        if t > last_submission && drained && complete() {
            break;
        }
        assert!(
            t < hard_cap,
            "run did not converge by tick {hard_cap} (chunk = {chunk})"
        );
        t += 1;
    }
    let resident_final = resident(&world);
    let p0 = world.algorithm(ProcessId::new(0));
    CompactionPoint {
        ops,
        chunk,
        resident_peak: resident_peak.max(resident_final),
        resident_final,
        compactions: world
            .process_ids()
            .map(|p| world.algorithm(p).compactions())
            .sum(),
        folded: p0.folded(),
        delivered_total: p0.delivered_total(),
        delivered_hash: p0.delivered_hash(),
        bytes_sent: world.metrics().bytes_sent,
    }
}

/// The E13 operation-count grid: the acceptance criterion (bounded vs
/// unbounded residency at equal correctness) is evaluated at the largest
/// point.
pub const E13_GRID: [usize; 3] = [10_000, 30_000, 100_000];

/// The fold cadence used for the "on" column of the artifact.
pub const E13_CHUNK: u64 = 64;

/// Ceiling on [`overhead_pct`] at every grid size, asserted per pair by
/// [`run_grid_over`] — so the `e13_compaction` binary, and with it the
/// `perf-smoke` CI job, fails above it. Both fold evidences ride on deltas
/// that are sent anyway; what is left is the quiet-link beacons.
pub const E13_OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// What compaction costs on the wire: encoded bytes sent with compaction on
/// over bytes sent with it off, minus one, in percent.
pub fn overhead_pct(off: &CompactionPoint, on: &CompactionPoint) -> f64 {
    (on.bytes_sent as f64 / off.bytes_sent.max(1) as f64 - 1.0) * 100.0
}

/// Runs the full E13 grid once: one `(off, on)` measurement pair per
/// operation count, with the equal-correctness and wire-overhead
/// assertions applied.
pub fn run_grid() -> Vec<(CompactionPoint, CompactionPoint)> {
    run_grid_over(&E13_GRID)
}

/// [`run_grid`] over an explicit grid — the unit test and the `experiments`
/// binary use reduced ones.
pub fn run_grid_over(grid: &[usize]) -> Vec<(CompactionPoint, CompactionPoint)> {
    grid.iter()
        .map(|&ops| {
            let off = compaction_run(ops, 0);
            let on = compaction_run(ops, E13_CHUNK);
            assert_eq!(
                (off.delivered_total, off.delivered_hash),
                (on.delivered_total, on.delivered_hash),
                "compaction must not change the delivered sequence"
            );
            assert!(
                overhead_pct(&off, &on) <= E13_OVERHEAD_BUDGET_PCT,
                "compaction costs {:+.1} % wire bytes at {ops} ops",
                overhead_pct(&off, &on)
            );
            (off, on)
        })
        .collect()
}

/// Prints the human-readable E13 table.
pub fn print_table(pairs: &[(CompactionPoint, CompactionPoint)]) {
    println!(
        "{:<9} {:<5} {:>13} {:>14} {:>12}",
        "ops", "mode", "resident max", "resident end", "compactions"
    );
    for (off, on) in pairs {
        for p in [off, on] {
            println!(
                "{:<9} {:<5} {:>13} {:>14} {:>12}",
                p.ops,
                if p.chunk > 0 { "on" } else { "off" },
                p.resident_peak,
                p.resident_final,
                p.compactions,
            );
        }
        println!(
            "  -> {:.1}x smaller peak residency at {} ops, {:+.1} % wire bytes",
            off.resident_peak as f64 / on.resident_peak.max(1) as f64,
            off.ops,
            overhead_pct(off, on)
        );
    }
}

/// Renders the deterministic JSON artifact (`BENCH_compaction.json`) from a
/// measured grid.
pub fn grid_json(pairs: &[(CompactionPoint, CompactionPoint)]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E13\",\n  \"points\": [\n");
    for (i, (off, on)) in pairs.iter().enumerate() {
        for (j, p) in [off, on].into_iter().enumerate() {
            out.push_str(&format!(
                "    {{\"ops\": {}, \"mode\": \"{}\", \"resident_peak\": {}, \
                 \"resident_final\": {}, \"compactions\": {}, \"folded\": {}, \
                 \"delivered_total\": {}, \"delivered_hash\": {}, \"bytes_sent\": {}}}{}\n",
                p.ops,
                if p.chunk > 0 { "on" } else { "off" },
                p.resident_peak,
                p.resident_final,
                p.compactions,
                p.folded,
                p.delivered_total,
                p.delivered_hash,
                p.bytes_sent,
                if i + 1 == pairs.len() && j == 1 {
                    ""
                } else {
                    ","
                },
            ));
        }
    }
    out.push_str("  ],\n  \"residency_ratio_off_over_on\": {");
    for (i, (off, on)) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{}\": {:.1}",
            if i == 0 { "" } else { ", " },
            off.ops,
            off.resident_peak as f64 / on.resident_peak.max(1) as f64
        ));
    }
    out.push_str("},\n  \"overhead_pct\": {");
    for (i, (off, on)) in pairs.iter().enumerate() {
        let (sep, pct) = (if i == 0 { "" } else { ", " }, overhead_pct(off, on));
        out.push_str(&format!("{sep}\"{}\": {pct:.1}", off.ops));
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_bounds_residency_at_equal_correctness() {
        // a reduced grid keeps the unit test fast while exercising the same
        // measurement + rendering paths as the real artifact
        let pairs = run_grid_over(&[600, 1_200]);
        let again = run_grid_over(&[600, 1_200]);
        assert_eq!(
            grid_json(&pairs),
            grid_json(&again),
            "the artifact must be bit-reproducible"
        );
        for (off, on) in &pairs {
            // off: the graph retains (nearly) the whole history; on: the
            // fold keeps residency near the chunk size
            assert!(
                off.resident_final >= off.ops,
                "uncompacted residency tracks history: {} < {}",
                off.resident_final,
                off.ops
            );
            assert!(
                on.resident_peak * 4 < off.resident_peak,
                "compaction must shrink peak residency: on {} vs off {}",
                on.resident_peak,
                off.resident_peak
            );
            assert!(on.compactions > 0);
            assert_eq!(off.compactions, 0);
            assert_eq!(on.delivered_hash, off.delivered_hash);
        }
        // residency off grows with history; on stays flat(ish)
        let (off_a, on_a) = &pairs[0];
        let (off_b, on_b) = &pairs[1];
        assert!(off_b.resident_peak > off_a.resident_peak + 400);
        assert!(on_b.resident_peak < on_a.resident_peak * 3);
        print_table(&pairs); // smoke the shared renderer
    }
}
