//! Experiment E13 driver: resident graph size and operation cost over a
//! long run, with stable-prefix compaction on vs off.
//!
//! The claim under test: without compaction the causality graph and the
//! delivered tail are **unbounded** — resident entries grow linearly with
//! history — while with compaction the stable prefix is folded away and the
//! resident footprint is bounded by the fold cadence plus in-flight traffic,
//! at *equal correctness* (same delivered count, same rolling delivered
//! hash).
//!
//! The grid is deterministic (fixed seed, fixed-delay network, virtual
//! time), so everything except the wall-clock column is bit-reproducible —
//! the `perf-smoke` CI job regenerates `BENCH_compaction.json` twice and
//! diffs the outputs. The same driver backs the Criterion bench target
//! (experiment E13) and the standalone `e13_compaction` binary.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ec_core::etob_omega::{EtobConfig, EtobMsg, EtobOmega};
use ec_core::workload::BroadcastWorkload;
use ec_sim::{Actions, Algorithm, Context, ProcessId, Time};

/// Number of processes in every E13 run.
pub const E13_PROCESSES: usize = 3;

/// Virtual ticks between resident-size samples.
const SAMPLE_EVERY: u64 = 250;

/// Fixed link delay of the lock-step network, in ticks.
const DELAY: u64 = 2;

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
    /// Wall-clock microseconds of the run (host-dependent; not part of the
    /// deterministic JSON artifact).
    pub wall_micros: u128,
}

/// The resident footprint of one process: causality-graph nodes plus the
/// not-yet-folded delivered tail.
fn resident(automaton: &EtobOmega) -> usize {
    automaton.causal_graph().len() + automaton.delivered().len()
}

/// One in-flight message of the lock-step network.
type InFlight = (u64, ProcessId, EtobMsg);

/// The lock-step network: one FIFO inbox per destination (uniform delay
/// keeps each queue sorted by arrival tick) plus the encoded wire-byte
/// tally.
struct Net {
    inbox: Vec<VecDeque<InFlight>>,
    bytes_sent: u64,
}

/// Drives one handler activation of `alg` and routes its effects: sends go
/// into the per-destination inboxes (fixed [`DELAY`]), timers into the
/// process's timer heap, and outputs — the full delivered sequence per
/// delivery — are deliberately **dropped**. Retaining them (as the tracing
/// simulator does) is what makes 100k-op runs quadratic in memory; the
/// measured quantities are all readable from the automaton afterwards.
fn drive(
    alg: &mut EtobOmega,
    p: ProcessId,
    now: u64,
    n: usize,
    net: &mut Net,
    timers: &mut BinaryHeap<Reverse<u64>>,
    f: impl FnOnce(&mut EtobOmega, &mut Context<'_, EtobOmega>),
) {
    let mut actions = Actions::<EtobOmega>::new();
    {
        // Ω is stable from the start: process 0 leads forever
        let mut ctx = Context::new(p, Time::new(now), n, ProcessId::new(0), &mut actions);
        f(alg, &mut ctx);
    }
    for (to, msg) in actions.sends {
        net.bytes_sent += EtobOmega::wire_size(&msg);
        net.inbox[to.index()].push_back((now + DELAY, p, msg));
    }
    for delay in actions.timers {
        timers.push(Reverse(now + delay));
    }
}

/// Runs one E13 point: `ops` operations from round-robin origins over a
/// loss-free fixed-delay group, folding every `chunk` stable entries
/// (`chunk = 0` disables compaction). The network is a deterministic
/// lock-step tick loop driving the three automata directly — no tracing, so
/// time and memory stay linear in `ops`. Panics if any process fails to
/// deliver the full history.
pub fn compaction_run(ops: usize, chunk: u64) -> CompactionPoint {
    let n = E13_PROCESSES;
    let workload = BroadcastWorkload::uniform(n, ops, 10, 2);
    let entries = workload.entries();
    let mut config = EtobConfig::default();
    if chunk > 0 {
        config = config.with_compaction(chunk);
    }
    let started = std::time::Instant::now();
    let mut algs: Vec<EtobOmega> = (0..n)
        .map(|i| EtobOmega::new(ProcessId::new(i), config))
        .collect();
    let mut net = Net {
        inbox: vec![VecDeque::new(); n],
        bytes_sent: 0,
    };
    let mut timers: Vec<BinaryHeap<Reverse<u64>>> = vec![BinaryHeap::new(); n];
    let mut resident_peak = 0usize;
    let mut sub_idx = 0usize;
    let last_submission = workload.last_submission_time();
    let hard_cap = last_submission + 10_000;
    let mut t = 0u64;
    loop {
        if t == 0 {
            for i in 0..n {
                let p = ProcessId::new(i);
                drive(&mut algs[i], p, t, n, &mut net, &mut timers[i], |a, ctx| {
                    a.on_start(ctx)
                });
            }
        }
        // deliveries due this tick (FIFO per destination: uniform delay
        // keeps the queue sorted by arrival)
        for i in 0..n {
            while net.inbox[i].front().is_some_and(|(at, _, _)| *at <= t) {
                let Some((_, from, msg)) = net.inbox[i].pop_front() else {
                    break;
                };
                let p = ProcessId::new(i);
                drive(&mut algs[i], p, t, n, &mut net, &mut timers[i], |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
            }
        }
        // timers due this tick
        for i in 0..n {
            while timers[i].peek().is_some_and(|Reverse(at)| *at <= t) {
                timers[i].pop();
                let p = ProcessId::new(i);
                drive(&mut algs[i], p, t, n, &mut net, &mut timers[i], |a, ctx| {
                    a.on_timer(ctx)
                });
            }
        }
        // client submissions due this tick
        while sub_idx < entries.len() && entries[sub_idx].1 <= t {
            let (origin, _, input) = entries[sub_idx].clone();
            let i = origin.index();
            drive(
                &mut algs[i],
                origin,
                t,
                n,
                &mut net,
                &mut timers[i],
                |a, ctx| a.on_input(input, ctx),
            );
            sub_idx += 1;
        }
        if t.is_multiple_of(SAMPLE_EVERY) {
            let worst = algs.iter().map(resident).max().unwrap_or(0);
            resident_peak = resident_peak.max(worst);
        }
        let drained = net.inbox.iter().all(VecDeque::is_empty);
        if t > last_submission && drained && algs.iter().all(|a| a.delivered_total() == ops as u64)
        {
            break;
        }
        assert!(
            t < hard_cap,
            "run did not converge by tick {hard_cap} (chunk = {chunk})"
        );
        t += 1;
    }
    let wall_micros = started.elapsed().as_micros();
    let resident_final = algs.iter().map(resident).max().unwrap_or(0);
    resident_peak = resident_peak.max(resident_final);
    let p0 = &algs[0];
    CompactionPoint {
        ops,
        chunk,
        resident_peak,
        resident_final,
        compactions: algs.iter().map(EtobOmega::compactions).sum(),
        folded: p0.folded(),
        delivered_total: p0.delivered_total(),
        delivered_hash: p0.delivered_hash(),
        bytes_sent: net.bytes_sent,
        wall_micros,
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

/// [`run_grid`] over an explicit grid — the unit test uses a reduced one.
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

/// Prints the human-readable E13 table (including the host-dependent
/// wall-clock columns, which the JSON artifact deliberately omits).
pub fn print_table(pairs: &[(CompactionPoint, CompactionPoint)]) {
    println!(
        "{:<9} {:<5} {:>13} {:>14} {:>12} {:>11} {:>12}",
        "ops", "mode", "resident max", "resident end", "compactions", "wall [ms]", "ns/op"
    );
    for (off, on) in pairs {
        for p in [off, on] {
            println!(
                "{:<9} {:<5} {:>13} {:>14} {:>12} {:>11.2} {:>12.0}",
                p.ops,
                if p.chunk > 0 { "on" } else { "off" },
                p.resident_peak,
                p.resident_final,
                p.compactions,
                p.wall_micros as f64 / 1_000.0,
                p.wall_micros as f64 * 1_000.0 / p.ops as f64,
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
/// measured grid. Wall-clock numbers are deliberately excluded so the
/// artifact diffs clean across runs and hosts.
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
