//! The two simulator workloads, driven through the public facade
//! (`ClusterBuilder` → `SimEngine` → `World`).
//!
//! A run is a sequence of **episodes**. Each episode generates its own
//! seeded put stream, deploys a fresh three-replica cluster, warms it up
//! (that much is set-up), then feeds the measured operations one per tick,
//! round-robin over the entry replicas, in slices of a fixed size, timing
//! each slice; the episode ends when every replica has applied everything.
//! Episodes repeat until the measured time reaches `--seconds`; the run
//! reports, slice position by slice position, the fastest time any episode
//! took for it (see [`run`]), so what the host does to some slices of some
//! episodes does not move the result.
//!
//! Sizes are smaller than a single long run would use because the
//! simulator retains every replica output (≈ 1.3 KB per operation): 120 k
//! operations already hold 150 MB, and page-fault time starts to dominate
//! beyond that.

use std::time::Instant;

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, ReplicaCommand, Session, SimEngine};
use ec_sim::ProcessId;

use crate::check::{self, Verdict};
use crate::inputs::{puts, KeyMix, PutMix, Rng};
use crate::lockstep;
use crate::probes;
use crate::procfs;
use crate::report::{EndToEnd, RunResult};
use crate::spans::Tracer;
use crate::stats::{fastest_per_position, median, percentile};
use crate::Options;

/// Replicas in every deployment.
const N: usize = 3;

/// Tick of the first submission.
const FIRST_TICK: u64 = 10;

/// The fixed sizes of a simulator workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Algorithm 5 configuration.
    pub etob: EtobConfig,
    /// Operations applied before the clock starts.
    pub warmup: usize,
    /// Operations measured per episode.
    pub measured: usize,
    /// Operations per timed slice.
    pub slice: usize,
    /// The put stream.
    pub mix: PutMix,
    /// Whether the full delivered history stays resident (no compaction),
    /// so it can be replayed through a fresh store.
    pub full_history: bool,
    /// Operations replayed by the traced lock-step run.
    pub replay_ops: usize,
}

/// The shape of `workload` (`quick` divides every size by ten).
pub fn shape(workload: &str, quick: bool) -> Shape {
    let mix = PutMix {
        keys: 64,
        value_len: 8,
        mix: KeyMix::Zipf,
    };
    let div = if quick { 10 } else { 1 };
    match workload {
        "sim-steady" => Shape {
            etob: EtobConfig::batched(5).with_compaction(64),
            warmup: 10_000 / div,
            measured: 40_000 / div,
            slice: 1_000 / div,
            mix,
            full_history: false,
            replay_ops: 20_000 / div,
        },
        "sim-history" => Shape {
            // what `ClusterBuilder::new(3)` gives: no batching, no
            // compaction — the paper's unbounded-history model
            etob: EtobConfig::default(),
            warmup: 4_000 / div,
            measured: 8_000 / div,
            slice: 250 / div,
            mix,
            full_history: true,
            replay_ops: 8_000 / div,
        },
        other => unreachable!("{other} is not a simulator workload"),
    }
}

/// Counters of one episode that depend only on the seed — two runs with the
/// same seed must produce identical fingerprints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over every generated command.
    pub input_hash: u64,
    /// Messages handed to the simulated network.
    pub messages: u64,
    /// Modelled wire bytes.
    pub bytes: u64,
    /// `World` steps executed.
    pub steps: u64,
    /// Timers fired.
    pub timer_fires: u64,
    /// FNV-1a over replica 0's final snapshot.
    pub snapshot_hash: u64,
    /// Logical-tick percentiles of submit → deliver and stability lag.
    pub ticks: [u64; 3],
    /// Lifecycle events recorded by the replicas' recorders.
    pub events: u64,
}

/// What one episode measured.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Input generation + deploy + warm-up, in seconds.
    pub setup_s: f64,
    /// Wall time of the measured phase, in seconds.
    pub wall_s: f64,
    /// Wall time of each slice, in ms (the last one includes the wait until
    /// every replica has applied everything).
    pub slices_ms: Vec<f64>,
    /// CPU time of each slice, in ms.
    pub slices_cpu_ms: Vec<f64>,
    /// Peak resident set size of the process when the episode ended, in MB.
    pub peak_rss_mb: f64,
    /// The deterministic counters (measured phase only, except the hashes).
    pub fingerprint: Fingerprint,
    /// The correctness gate.
    pub verdict: Verdict,
    /// The generated operations (for the traced replay).
    pub ops: Vec<ReplicaCommand>,
    /// Replica 0's final snapshot (for the state-machine probe).
    pub snapshot: Vec<u8>,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn replica_ids() -> impl Iterator<Item = ProcessId> {
    (0..N).map(ProcessId::new)
}

/// Runs one episode of `shape` on operations drawn from `rng`.
pub fn episode(shape: &Shape, rng: &mut Rng, keep_ops: bool) -> Episode {
    let started = Instant::now();
    let total = shape.warmup + shape.measured;
    let ops = puts(rng, total, shape.mix);
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(N)
        .etob(shape.etob)
        .deploy(&SimEngine::new());
    let horizon = |ops: usize| FIRST_TICK + ops as u64 + 1_000_000;
    let mut tick = FIRST_TICK;
    // one client session per entry replica: its commands are causally
    // chained, so the broadcast layer must keep their order
    let mut sessions: Vec<Session> = replica_ids().map(|p| cluster.session_at(p)).collect();
    let mut submit = |cluster: &mut Cluster<KvStore>, index: usize, tick: u64| {
        cluster.submit(&mut sessions[index % N], ops[index].clone(), tick);
    };
    for index in 0..shape.warmup {
        submit(&mut cluster, index, tick);
        tick += 1;
    }
    let warmed = cluster.run_until_applied(shape.warmup, horizon(shape.warmup));
    let setup_s = started.elapsed().as_secs_f64();

    let before = cluster.metrics();
    let slices = shape.measured.div_ceil(shape.slice);
    let mut slices_ms = Vec::with_capacity(slices);
    let mut slices_cpu_ms = Vec::with_capacity(slices);
    tick = tick.max(cluster.clock() + 1);
    let mut index = shape.warmup;
    let mut applied = false;
    let mut cpu_before = procfs::cpu_seconds();
    let measured = Instant::now();
    while index < total {
        let slice_started = Instant::now();
        let end = (index + shape.slice).min(total);
        while index < end {
            submit(&mut cluster, index, tick);
            index += 1;
            tick += 1;
        }
        cluster.run_until(tick);
        if index == total {
            applied = cluster.run_until_applied(total, horizon(total));
        }
        slices_ms.push(slice_started.elapsed().as_secs_f64() * 1e3);
        let cpu = procfs::cpu_seconds();
        slices_cpu_ms.push((cpu - cpu_before) * 1e3);
        cpu_before = cpu;
    }
    let wall_s = measured.elapsed().as_secs_f64();
    let after = cluster.metrics();

    let mut verdict = Verdict::default();
    verdict.expect(warmed && applied, || {
        format!("the cluster did not apply all {total} operations")
    });
    let counts: Vec<usize> = replica_ids().map(|p| cluster.applied(p)).collect();
    let snapshots: Vec<Vec<u8>> = replica_ids().map(|p| cluster.snapshot(p)).collect();
    verdict.merge(check::agreement(&counts, &snapshots, &[0, 1, 2], total));
    verdict.merge(check::last_writer_wins(
        &snapshots[0],
        &check::by_entry(&[(&[0, 1, 2], &ops)], N),
    ));
    let delivered: Vec<_> = replica_ids()
        .map(|p| cluster.delivered(p).unwrap_or_default())
        .collect();
    verdict.merge(check::delivered_order(&delivered));
    if shape.full_history {
        verdict.expect(delivered[0].len() == total, || {
            format!(
                "replica 0 holds {} of {total} delivered entries",
                delivered[0].len()
            )
        });
        verdict.merge(check::replay_matches(&delivered[0], &snapshots[0]));
    }
    let telemetry = cluster.telemetry();
    let fingerprint = Fingerprint {
        input_hash: ops.iter().fold(FNV_SEED, |h, op| fnv1a(h, &op.command)),
        messages: after.messages_sent - before.messages_sent,
        bytes: after.bytes_sent - before.bytes_sent,
        steps: after.steps - before.steps,
        timer_fires: after.timer_fires - before.timer_fires,
        snapshot_hash: fnv1a(FNV_SEED, &snapshots[0]),
        ticks: [
            telemetry.submit_deliver.quantile(500),
            telemetry.submit_deliver.quantile(990),
            telemetry.stability_lag.quantile(500),
        ],
        events: telemetry.events_recorded,
    };
    Episode {
        setup_s,
        wall_s,
        slices_ms,
        slices_cpu_ms,
        peak_rss_mb: procfs::peak_rss_mb(),
        fingerprint,
        verdict,
        // 120 k commands are 7 MB: only the traced run needs them back
        ops: if keep_ops { ops } else { Vec::new() },
        snapshot: snapshots.into_iter().next().unwrap_or_default(),
    }
}

/// Runs `workload` for about `options.seconds` of measured time.
pub fn run(workload: &str, options: &Options) -> RunResult {
    let shape = shape(workload, options.quick);
    let mut rng = Rng::new(options.seed);
    let mut episodes: Vec<Episode> = Vec::new();
    let mut measured_s = 0.0;
    // the timed run: at least three episodes, then as many as fit; the
    // traced run: two, for the counters — its time goes into the replays
    let enough = |episodes: &[Episode], measured_s: f64| match options.trace {
        true => episodes.len() >= 2,
        false => episodes.len() >= 3 && measured_s + episodes[0].wall_s > options.seconds,
    };
    while !enough(&episodes, measured_s) {
        let episode = episode(&shape, &mut rng.fork(episodes.len() as u64), options.trace);
        measured_s += episode.wall_s;
        episodes.push(episode);
    }

    let mut result = RunResult::default();
    let ops_per_episode = shape.measured as f64;
    result.attempted = (shape.measured * episodes.len()) as u64;
    for episode in &episodes {
        result.verdict.merge(episode.verdict.clone());
    }
    let stable = episodes
        .windows(2)
        .all(|w| w[0].fingerprint.ticks == w[1].fingerprint.ticks);
    result.notes.push(format!(
        "{} episodes of {} warm-up + {} measured ops; slices of {} ops; tick percentiles equal across episodes: {stable}",
        episodes.len(),
        shape.warmup,
        shape.measured,
        shape.slice
    ));
    // An episode is a deterministic single-threaded computation: whatever
    // else the host runs can only make a slice slower, never faster, and on
    // a shared host the speed of one core moves by a tenth or two from one
    // 50 ms stretch to the next (and the median over episodes by 25 % between
    // two calibrations of the same code). So each slice position is taken
    // from the episode that got through it fastest: the sum over positions is
    // the time of an episode nothing disturbed. The median over whole
    // episodes is printed next to it.
    let rows =
        |slices: fn(&Episode) -> &[f64]| -> Vec<&[f64]> { episodes.iter().map(slices).collect() };
    let wall_ms = fastest_per_position(&rows(|e| &e.slices_ms));
    let cpu_ms = fastest_per_position(&rows(|e| &e.slices_cpu_ms));
    let throughputs: Vec<f64> = episodes
        .iter()
        .map(|e| ops_per_episode / e.wall_s)
        .collect();
    result.notes.push(format!(
        "throughput over whole episodes: fastest {:.0}, median {:.0}, slowest {:.0} op/s",
        percentile(&throughputs, 100.0).value,
        median(&throughputs),
        percentile(&throughputs, 0.0).value,
    ));
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    // CPU time is not gated (see `spec::PER_LAYER`), but it is the timed
    // run's number: both kinds of run carry it
    result.layer(
        "cpu_us_per_op",
        cpu_ms.iter().sum::<f64>() * 1e3 / ops_per_episode,
    );
    result.e2e = EndToEnd {
        throughput_ops_s: ops_per_episode * 1e3 / wall_ms.iter().sum::<f64>(),
        latency_p50_ms: percentile(&wall_ms, 50.0).value,
        latency_p90_ms: percentile(&wall_ms, 90.0).value,
        // of a fresh process that ran one episode: later episodes start in
        // whatever heap the allocator kept, and 1 run in 10 kept 3 × as much
        peak_rss_mb: episodes[0].peak_rss_mb,
        setup_s: percentile(&setups, 0.0).value,
    };
    if options.trace {
        trace(workload, &shape, &episodes, options, &mut result);
    }
    result
}

/// The traced half: lock-step replays (untraced, then traced) of the first
/// episode's operations plus the layer probes, folded into `result.layers`.
fn trace(
    workload: &str,
    shape: &Shape,
    episodes: &[Episode],
    options: &Options,
    result: &mut RunResult,
) {
    let first = &episodes[0];
    let ops = &first.ops[..shape.replay_ops.min(first.ops.len())];
    let config = lockstep::Config {
        etob: shape.etob,
        durable_dir: None,
    };
    let replayed = probes::replay_layers(workload, ops, &config, options, result);
    probes::state_machine(&first.snapshot, &first.ops, result);
    probes::telemetry_record(result);

    // the World scheduler: counters from the timed facade run, and what is
    // left of its wall time once the handlers' own time is taken out
    let f = &first.fingerprint;
    let measured = shape.measured as f64;
    result.layer("sim.steps_per_op", f.steps as f64 / measured);
    result.layer("sim.timer_fires_per_op", f.timer_fires as f64 / measured);
    result.layer("sim.wire_bytes_per_op", f.bytes as f64 / measured);
    let world_ns_per_op = median(
        &episodes
            .iter()
            .map(|e| e.wall_s * 1e9 / measured)
            .collect::<Vec<_>>(),
    );
    // derived: facade wall per op minus lock-step handler time per op
    result.layer(
        "sim.world_ns_per_op",
        (world_ns_per_op - replayed.handler_ns_per_op).max(0.0),
    );

    let all_slices: Vec<f64> = episodes.iter().flat_map(|e| e.slices_ms.clone()).collect();
    let p99 = percentile(&all_slices, 99.0);
    result.layer("latency_p99_ms", p99.value);
    result.layer("latency_samples", p99.samples as f64);
}

/// The determinism self-check: the same seed must give identical
/// fingerprints, another seed a different operation stream. Returns the
/// findings (empty = passed).
pub fn selfcheck(seed: u64, quick: bool) -> Vec<String> {
    let mut findings = Vec::new();
    for workload in ["sim-steady", "sim-history"] {
        let shape = shape(workload, quick);
        let run = |seed: u64| episode(&shape, &mut Rng::new(seed).fork(0), false).fingerprint;
        let (a, b, other) = (run(seed), run(seed), run(seed.wrapping_add(1)));
        if a != b {
            findings.push(format!(
                "{workload}: same seed, different counters: {a:?} vs {b:?}"
            ));
        }
        if a.input_hash == other.input_hash {
            findings.push(format!(
                "{workload}: seeds {seed} and {} gave the same inputs",
                seed.wrapping_add(1)
            ));
        }
        // the replay must repeat exactly too, traced or not
        let ops = puts(&mut Rng::new(seed), shape.replay_ops.min(2_000), shape.mix);
        let config = lockstep::Config {
            etob: shape.etob,
            durable_dir: None,
        };
        let plain = lockstep::replay(&ops, &config, &mut Tracer::new(false));
        let traced = lockstep::replay(&ops, &config, &mut Tracer::new(true));
        let counters = |o: &lockstep::Outcome| {
            (
                o.msgs,
                o.encoded_bytes,
                o.handler_calls,
                o.ticks,
                o.delivered_hash.clone(),
            )
        };
        if counters(&plain) != counters(&traced) || !plain.agrees() {
            findings.push(format!("{workload}: lock-step replay is not deterministic"));
        }
        eprintln!(
            "selfcheck {workload}: msgs {} bytes {} steps {} snapshot {:016x} ticks {:?} — identical twice",
            a.messages, a.bytes, a.steps, a.snapshot_hash, a.ticks
        );
    }
    findings
}
