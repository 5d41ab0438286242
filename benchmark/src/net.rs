//! The three socket workloads, driven through the public facade
//! (`ClusterBuilder` → `NetEngine`: real loopback TCP, the wire codec, one
//! event-loop thread per node, heartbeat Ω).
//!
//! All three are **open loop** (see [`crate::openloop`]): Poisson arrivals
//! at a fixed rate, each operation timed from when it was due to when
//! `Cluster::applied(p)` has reached its index at every replica that counts.
//! Like the simulator workloads a run is a sequence of **episodes**, each on
//! a freshly deployed cluster: deploy + warm-up is the episode's set-up, the
//! open-loop phase is what is measured, and every episode ends with the
//! correctness gate. A fresh cluster per episode keeps one step's backlog
//! out of the next step's latency and gives a run several set-up samples.
//!
//! The measured phase is cut into **windows** of about a second (on
//! `net-failover`: a whole crash cycle) by when its operations were due. Latency percentiles and CPU time per operation are
//! taken window by window, and the run reports the median over its windows:
//! what a typical second looked like. A few seconds during which the host
//! was busy with something else raise some windows and leave the median
//! where it was; pooled over the whole run they moved p90 by a quarter.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, NetEngine, ReplicaCommand, Session};
use ec_sim::{Metrics, ProcessId};

use crate::check::{self, Verdict};
use crate::inputs::{puts, KeyMix, PutMix, Rng};
use crate::lockstep;
use crate::openloop::{
    max_rate_ok, run_phase, Phase, PhaseResult, StepVerdict, Target, WallClock, BACKLOG_LIMIT_S,
    LATENCY_LIMIT_MS,
};
use crate::probes;
use crate::procfs;
use crate::report::{EndToEnd, RunResult};
use crate::spans::Tracer;
use crate::spec::LADDER_RATES;
use crate::stats::{median, percentile};
use crate::Options;

/// Replicas in every deployment.
const N: usize = 3;

/// Offered load of every warm-up, in operations per second.
const WARM_RATE: f64 = 200.0;

/// How long the generator keeps polling after the last send before the
/// rest count as failed. Observed drains are 0.05–0.3 s, even for a step
/// that applied nothing until its arrivals stopped.
const DRAIN: Duration = Duration::from_secs(5);

/// Fault actions of the failover workload.
const CRASH: usize = 0;
const RESTART: usize = 1;

/// After the leader crash, operations due within this window count toward
/// the stall.
const STALL_WINDOW: Duration = Duration::from_millis(400);

/// Shortest window a fault-free measured phase is cut into, in seconds.
const WINDOW_S: f64 = 1.0;

/// Batched, with anti-entropy, and **without** stable-prefix compaction.
/// The issue asked for `with_compaction(64)` here too, but on this engine
/// compaction makes digest pulls routine, and under real-time load they
/// escalate into a `SyncRequest`/`Delta` storm the cluster never leaves:
/// 6 of 16 `net-ladder` runs and 1 of 16 `net-failover` runs lost
/// operations with it, 0 of 16 each without (see the README). A fresh
/// cluster per episode keeps the uncompacted history under ≈ 2000 entries.
fn etob() -> EtobConfig {
    EtobConfig::batched(5).with_resend(20)
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// One episode's plan.
#[derive(Clone, Debug)]
struct Plan {
    /// Durable data directory (`None` = in-memory replicas).
    durable: Option<PathBuf>,
    /// The put stream.
    mix: PutMix,
    /// Warm-up length in seconds at [`WARM_RATE`].
    warm_s: f64,
    /// Offered load of the measured phase.
    rate: f64,
    /// Length of the measured phase's arrival window, in seconds.
    measured_s: f64,
    /// Entry replicas, round-robin.
    entries: Vec<usize>,
    /// Fault actions of the measured phase.
    actions: Vec<(Duration, usize)>,
    /// Cut the measured phase short once this many operations are unapplied.
    backlog_limit: Option<usize>,
    /// Shortest window the measured phase is cut into, in seconds.
    window_s: f64,
}

/// What the operations due in one window of the measured phase saw.
#[derive(Debug)]
struct Window {
    /// Due → applied-everywhere of those that were applied, in ms.
    latency_ms: Vec<f64>,
    /// CPU time of the process over the window per operation due in it.
    cpu_us_per_op: f64,
}

/// What one episode measured.
#[derive(Debug)]
struct Episode {
    setup_s: f64,
    phase: PhaseResult,
    /// The measured phase window by window.
    windows: Vec<Window>,
    /// Peak resident set size of the process when the episode ended, in MB.
    peak_rss_mb: f64,
    /// `Cluster::metrics()` over the measured phase.
    delta: Metrics,
    /// Storage-layer bytes written over the measured phase.
    storage_bytes: u64,
    /// `restart(p0)` returned → `applied(p0)` first reached the survivors'.
    catchup_ms: Option<f64>,
    /// When each measured operation was due, relative to the phase start.
    due: Vec<Duration>,
    verdict: Verdict,
    /// Operations (set-up included) some replica had not applied when the
    /// drain deadline expired.
    unapplied: usize,
    /// The measured operations.
    ops: Vec<ReplicaCommand>,
    /// The agreed final snapshot.
    snapshot: Vec<u8>,
}

/// The facade as the open-loop generator sees it.
struct FacadeTarget<'a> {
    cluster: &'a mut Cluster<KvStore>,
    ops: &'a [ReplicaCommand],
    entries: &'a [usize],
    /// One client session per replica: commands entering at the same
    /// replica are causally chained, so their order is guaranteed.
    sessions: &'a mut [Session],
    /// Replicas whose applied count gates an operation.
    counted: Vec<usize>,
    /// Operations applied before this phase began.
    base: usize,
    /// When the phase began.
    began: Instant,
    /// Length of a window, and how many the phase has.
    window: (Duration, usize),
    /// `(time since the phase began, CPU seconds so far)` at the start of
    /// every window: read by the first poll after the boundary.
    marks: Vec<(Duration, f64)>,
    tracer: &'a mut Tracer,
    restarted: Option<Instant>,
    catchup_ms: Option<f64>,
}

impl Target for FacadeTarget<'_> {
    fn submit(&mut self, index: usize) {
        let session = &mut self.sessions[self.entries[index % self.entries.len()]];
        let span = self.tracer.enter("replication.submit", None, None);
        // facade time 0: never sleep inside the call, the schedule is ours
        self.cluster.submit(session, self.ops[index].clone(), 0);
        self.tracer.exit(span);
    }

    fn applied(&mut self) -> usize {
        let span = self.tracer.enter("replication.applied", None, None);
        let applied = self
            .counted
            .iter()
            .map(|p| self.cluster.applied(pid(*p)))
            .min()
            .unwrap_or(0);
        self.tracer.exit(span);
        if let (Some(restarted), None) = (self.restarted, self.catchup_ms) {
            if self.cluster.applied(pid(0)) >= applied {
                self.catchup_ms = Some(restarted.elapsed().as_secs_f64() * 1e3);
            }
        }
        let (window, count) = self.window;
        if self.marks.len() < count && self.began.elapsed() >= window * self.marks.len() as u32 {
            self.marks
                .push((self.began.elapsed(), procfs::cpu_seconds()));
        }
        applied.saturating_sub(self.base)
    }

    fn action(&mut self, id: usize) {
        match id {
            CRASH => {
                let span = self.tracer.enter("replication.crash", None, None);
                self.cluster.crash(pid(0));
                self.tracer.exit(span);
            }
            RESTART => {
                let span = self.tracer.enter("replication.restart", None, None);
                self.cluster.restart(pid(0));
                self.tracer.exit(span);
                self.restarted = Some(Instant::now());
            }
            other => unreachable!("no fault action {other}"),
        }
    }
}

/// Recovers what replica directory `dir` holds: `(entries covered, store)`.
fn recover_dir(dir: &Path) -> Option<(usize, KvStore)> {
    use ec_replication::{DurableOptions, DurableStore, StateMachine};
    let (_, recovered) = DurableStore::open(&DurableOptions::new(dir)).ok()?;
    let rec = recovered?;
    let mut state = if rec.base == 0 {
        KvStore::default()
    } else {
        KvStore::from_snapshot(&rec.state)?
    };
    for message in &rec.tail {
        state.apply(&message.payload);
    }
    Some((rec.base as usize + rec.tail.len(), state))
}

/// Cuts a measured phase into windows at `marks` — `(time since the phase
/// began, CPU seconds so far)`, the last one closing the last window — by
/// when each operation was due. A window none of whose operations was
/// applied is left out.
fn windows(marks: &[(Duration, f64)], due: &[Duration], latency_ms: &[Option<f64>]) -> Vec<Window> {
    marks
        .windows(2)
        .map(|w| {
            let due_in = due.partition_point(|d| *d < w[0].0)..due.partition_point(|d| *d < w[1].0);
            Window {
                cpu_us_per_op: (w[1].1 - w[0].1) * 1e6 / due_in.len().max(1) as f64,
                latency_ms: latency_ms[due_in].iter().flatten().copied().collect(),
            }
        })
        .filter(|w| !w.latency_ms.is_empty())
        .collect()
}

/// Runs one episode of `plan`.
fn episode(plan: &Plan, rng: &mut Rng, tracer: &mut Tracer) -> Episode {
    use ec_replication::StateMachine;
    let started = Instant::now();
    let warm_count = (WARM_RATE * plan.warm_s).round() as usize;
    let warm = puts(rng, warm_count, plan.mix);
    let mut phase = Phase::poisson(rng, plan.rate, plan.measured_s, DRAIN);
    phase.actions = plan.actions.clone();
    phase.backlog_limit = plan.backlog_limit;
    let mut ops = puts(rng, phase.count(), plan.mix);
    if let Some(dir) = &plan.durable {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut builder = ClusterBuilder::<KvStore>::new(N).etob(etob());
    if let Some(dir) = &plan.durable {
        builder = builder.durable(dir.clone());
    }
    let mut cluster = builder.deploy(&NetEngine::new());
    let mut sessions: Vec<Session> = (0..N).map(|p| cluster.session_at(pid(p))).collect();
    let mut clock = WallClock::start();
    let all: Vec<usize> = (0..N).collect();
    let mut verdict = Verdict::default();

    // set-up: the warm-up enters everywhere and is waited for at every
    // replica; whatever does not get applied shows in the counts at the end
    let mut base = 0usize;
    if !warm.is_empty() {
        let mut target = FacadeTarget {
            cluster: &mut cluster,
            ops: &warm,
            entries: &all,
            sessions: &mut sessions,
            counted: all.clone(),
            base,
            began: Instant::now(),
            window: (Duration::ZERO, 0),
            marks: Vec::new(),
            tracer: &mut Tracer::new(false),
            restarted: None,
            catchup_ms: None,
        };
        let warm_up = Phase::uniform(WARM_RATE, warm.len(), DRAIN);
        run_phase(&mut target, &warm_up, &mut clock);
        base += warm.len();
    }
    let setup_s = started.elapsed().as_secs_f64();

    // the measured phase
    let crashes = plan.actions.iter().any(|(_, id)| *id == CRASH);
    let counted: Vec<usize> = if crashes { vec![1, 2] } else { all.clone() };
    let before = cluster.metrics();
    let storage_before = procfs::storage_write_bytes();
    // whole windows of at least `window_s`
    let window_count = ((plan.measured_s / plan.window_s) as usize).max(1);
    let window = Duration::from_secs_f64(plan.measured_s / window_count as f64);
    let cpu_before = procfs::cpu_seconds();
    let mut target = FacadeTarget {
        cluster: &mut cluster,
        ops: &ops,
        entries: &plan.entries,
        sessions: &mut sessions,
        counted: counted.clone(),
        base,
        began: Instant::now(),
        window: (window, window_count),
        marks: vec![(Duration::ZERO, cpu_before)],
        tracer,
        restarted: None,
        catchup_ms: None,
    };
    let measured = run_phase(&mut target, &phase, &mut clock);
    let mut catchup_ms = target.catchup_ms;
    let restarted = target.restarted;
    let mut marks = std::mem::take(&mut target.marks);
    // the last window ends with the phase: its operations' work is done
    marks.push((Duration::MAX, procfs::cpu_seconds()));
    let storage_bytes = procfs::storage_write_bytes() - storage_before;
    let after = cluster.metrics();
    // a step cut short at its backlog limit never sent the rest
    ops.truncate(measured.latency_ms.len());
    phase.due.truncate(ops.len());
    let submitted = base + ops.len();
    let windows = windows(&marks, &phase.due, &measured.latency_ms);

    // Eventual consistency: having applied everything is not yet having
    // agreed on its order, and a restarted leader must catch up on its own.
    // Give every replica until the drain deadline to hold the same state.
    let deadline = Instant::now() + DRAIN;
    let converged = |cluster: &Cluster<KvStore>| {
        let first = cluster.snapshot(pid(0));
        (0..N).all(|p| cluster.applied(pid(p)) >= submitted)
            && (1..N).all(|p| cluster.snapshot(pid(p)) == first)
    };
    while !converged(&cluster) && Instant::now() < deadline {
        if let (Some(restarted), None) = (restarted, catchup_ms) {
            if cluster.applied(pid(0)) >= submitted {
                catchup_ms = Some(restarted.elapsed().as_secs_f64() * 1e3);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // the correctness gate: live view first, exact final states after
    let span = tracer.enter("replication.finish", None, None);
    let report = cluster.finish();
    tracer.exit(span);
    let shard = &report.shards[0];
    let snapshot = shard.snapshots.first().cloned().unwrap_or_default();
    // An operation some replica never applied by the deadline is a *failed
    // operation* — the service did not serve it — not a wrong output; and
    // the state checks below mean nothing until everything is applied.
    let least = shard.applied.iter().copied().min().unwrap_or(0);
    let unapplied = submitted.saturating_sub(least).max(measured.failed());
    if unapplied == 0 {
        verdict.merge(check::agreement(
            &shard.applied,
            &shard.snapshots,
            &all,
            submitted,
        ));
        let streams = check::by_entry(&[(&all, &warm), (&plan.entries, &ops)], N);
        verdict.merge(check::last_writer_wins(&snapshot, &streams));
        if let Some(dir) = &plan.durable {
            for p in 0..N {
                let recovered = recover_dir(&dir.join(p.to_string()));
                let matches = recovered.as_ref().is_some_and(|(covered, state)| {
                    *covered == submitted && state.snapshot() == snapshot
                });
                verdict.expect(matches, || {
                    format!(
                        "replica {p}: the data directory recovers to {:?} entries, not the cluster's state at {submitted}",
                        recovered.as_ref().map(|(covered, _)| *covered)
                    )
                });
            }
        }
    }
    Episode {
        setup_s,
        phase: measured,
        windows,
        peak_rss_mb: procfs::peak_rss_mb(),
        delta: Metrics {
            messages_sent: after.messages_sent - before.messages_sent,
            bytes_sent: after.bytes_sent - before.bytes_sent,
            timer_fires: after.timer_fires - before.timer_fires,
            ..Metrics::default()
        },
        storage_bytes,
        catchup_ms,
        due: phase.due,
        verdict,
        unapplied,
        ops,
        snapshot,
    }
}

/// Sets the end-to-end metrics (and the CPU time, a layer metric taken the
/// same way) from the episodes `from` — set-up from all episodes — and
/// returns their pooled latencies. Latency percentiles and CPU per operation
/// are the median over the windows of those episodes.
fn end_to_end(episodes: &[Episode], from: &[usize], result: &mut RunResult) -> Vec<f64> {
    let chosen = || from.iter().map(|i| &episodes[*i]);
    let applied: usize = chosen().map(|e| e.ops.len() - e.phase.failed()).sum();
    let wall: f64 = chosen().map(|e| e.phase.end.as_secs_f64()).sum();
    let over_windows = |f: &dyn Fn(&Window) -> f64| -> f64 {
        median(&chosen().flat_map(|e| &e.windows).map(f).collect::<Vec<_>>())
    };
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    result.e2e = EndToEnd {
        throughput_ops_s: applied as f64 / wall,
        latency_p50_ms: over_windows(&|w| percentile(&w.latency_ms, 50.0).value),
        latency_p90_ms: over_windows(&|w| percentile(&w.latency_ms, 90.0).value),
        // of a fresh process that ran one episode
        peak_rss_mb: episodes.first().map_or(0.0, |e| e.peak_rss_mb),
        setup_s: median(&setups),
    };
    result.layer("cpu_us_per_op", over_windows(&|w| w.cpu_us_per_op));
    chosen().flat_map(|e| e.phase.applied_latencies()).collect()
}

fn fold_episodes(episodes: &[Episode], result: &mut RunResult) {
    result.attempted = episodes.iter().map(|e| e.ops.len() as u64).sum();
    result.unapplied = episodes.iter().map(|e| e.unapplied as u64).sum();
    for episode in episodes {
        result.verdict.merge(episode.verdict.clone());
    }
}

/// The per-layer numbers every net workload shares.
fn common_layers(
    workload: &str,
    episodes: &[Episode],
    latencies: &[f64],
    durable: bool,
    options: &Options,
    result: &mut RunResult,
) {
    let ops: f64 = episodes.iter().map(|e| e.ops.len() as f64).sum();
    let sum = |f: &dyn Fn(&Episode) -> f64| episodes.iter().map(f).sum::<f64>();
    result.layer(
        "net.msgs_per_op",
        sum(&|e| e.delta.messages_sent as f64) / ops,
    );
    result.layer(
        "net.wire_bytes_per_op",
        sum(&|e| e.delta.bytes_sent as f64) / ops,
    );
    let lags: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.phase.gen_lag_ms.clone())
        .collect();
    result.layer("net.gen_lag_p99_ms", percentile(&lags, 99.0).value);
    result.layer(
        "replication.submit_call_us",
        sum(&|e| e.phase.submit_busy.as_secs_f64()) * 1e6 / ops,
    );
    result.layer(
        "replication.applied_poll_us",
        sum(&|e| e.phase.poll_busy.as_secs_f64()) * 1e6 / sum(&|e| e.phase.polls as f64).max(1.0),
    );
    let p99 = percentile(latencies, 99.0);
    result.layer("latency_p99_ms", p99.value);
    result.layer("latency_samples", p99.samples as f64);
    let late = latencies.iter().filter(|l| **l > LATENCY_LIMIT_MS).count();
    result.layer(
        "late_ops_pct",
        late as f64 * 100.0 / latencies.len().max(1) as f64,
    );

    // the layers below the facade, replayed in lock-step on the first
    // episode's operations with the workload's configuration
    let first = &episodes[0];
    let scratch = options.out_dir.join(format!("{workload}-lockstep"));
    let config = lockstep::Config {
        etob: etob(),
        durable_dir: durable.then(|| scratch.clone()),
    };
    let replay_ops = &first.ops[..first.ops.len().min(4_000)];
    probes::replay_layers(workload, replay_ops, &config, options, result);
    let _ = std::fs::remove_dir_all(&scratch);
    probes::state_machine(&first.snapshot, &first.ops, result);
    probes::telemetry_record(result);
    if durable {
        let record_len = first.ops.first().map_or(32, |op| op.command.len() + 32);
        probes::storage(
            &options.out_dir.join(format!("{workload}-storage-probe")),
            record_len,
            first.snapshot.len() + 64,
            result,
        );
        result.layer(
            "storage.write_bytes_per_op",
            sum(&|e| e.storage_bytes as f64) / ops,
        );
    }
}

fn data_dir(options: &Options, workload: &str, episode: usize) -> PathBuf {
    options
        .out_dir
        .join(format!("{workload}-data-{}", std::process::id()))
        .join(format!("episode-{episode}"))
}

/// Warm-up length: half a second at [`WARM_RATE`] (a tenth of that in
/// `--quick` runs).
fn warm_s(options: &Options) -> f64 {
    if options.quick {
        0.1
    } else {
        0.5
    }
}

fn small_mix() -> PutMix {
    PutMix {
        keys: 64,
        value_len: 8,
        mix: KeyMix::Zipf,
    }
}

/// `net-ladder`: one episode per rate step, each on a fresh cluster.
pub fn ladder(options: &Options) -> RunResult {
    let mut rng = Rng::new(options.seed);
    let mut tracer = Tracer::new(options.trace);
    // the 200 op/s step is the reference step: every end-to-end number is
    // taken from it, so it gets most of the measured time; the steps past
    // the knee are cut short at their backlog limit anyway
    let episodes: Vec<Episode> = LADDER_RATES
        .iter()
        .enumerate()
        .map(|(i, rate)| {
            let share = [0.6, 0.2, 0.1, 0.05, 0.05][i];
            let plan = Plan {
                durable: None,
                mix: small_mix(),
                warm_s: warm_s(options),
                rate: f64::from(*rate),
                measured_s: options.seconds * share,
                entries: (0..N).collect(),
                actions: Vec::new(),
                // a step whose backlog passes the ladder's own limit is
                // decided: stop feeding it (see `Phase::backlog_limit`). The
                // reference step always runs in full: one host hiccup must
                // not truncate the sample the latency metrics come from.
                backlog_limit: (i > 0).then(|| (BACKLOG_LIMIT_S * f64::from(*rate)) as usize),
                window_s: WINDOW_S,
            };
            episode(&plan, &mut rng.fork(i as u64), &mut tracer)
        })
        .collect();

    let mut result = RunResult::default();
    fold_episodes(&episodes, &mut result);
    let latencies = end_to_end(&episodes, &[0], &mut result);
    let verdicts: Vec<StepVerdict> = LADDER_RATES
        .iter()
        .zip(&episodes)
        .map(|(rate, e)| StepVerdict {
            rate: *rate,
            p90_ms: percentile(&e.phase.applied_latencies(), 90.0).value,
            backlog_at_stop: e.phase.backlog_at_stop,
            failed: e.phase.failed(),
        })
        .collect();
    let best = max_rate_ok(&verdicts);
    result.notes.push(format!(
        "ladder: {}; max_rate_ok = {best} op/s",
        verdicts
            .iter()
            .zip(&episodes)
            .map(|(v, e)| format!(
                "{}:{} (p90 {:.0} ms, backlog {}{})",
                v.rate,
                if v.passes() { "ok" } else { "FAIL" },
                v.p90_ms,
                v.backlog_at_stop,
                if e.phase.cut_short { ", cut short" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if options.trace {
        common_layers(
            "net-ladder",
            &episodes,
            &latencies,
            false,
            options,
            &mut result,
        );
        result.layer("net.max_rate_ok", f64::from(best));
        for (rate, e) in LADDER_RATES.iter().zip(&episodes) {
            let step = e.phase.applied_latencies();
            let late = step.iter().filter(|l| **l > LATENCY_LIMIT_MS).count() + e.phase.failed();
            // per node: with a 5 ms tick an idle node fires 200 times a second
            let fires = e.delta.timer_fires as f64 / e.phase.end.as_secs_f64() / N as f64;
            result.layer(&format!("net.timer_fires_per_s.r{rate}"), fires);
            result.layer(
                &format!("net.p90_ms.r{rate}"),
                percentile(&step, 90.0).value,
            );
            result.layer(
                &format!("net.p99_ms.r{rate}"),
                percentile(&step, 99.0).value,
            );
            result.layer(
                &format!("net.late_ops_pct.r{rate}"),
                late as f64 * 100.0 / e.ops.len().max(1) as f64,
            );
            result.layer(
                &format!("net.backlog_at_stop.r{rate}"),
                e.phase.backlog_at_stop as f64,
            );
        }
        write_facade_trace("net-ladder", &tracer, options, &mut result);
    }
    result
}

/// `net-durable`: the ladder's reference rate on durable replicas with a
/// store large enough that checkpoints are not free.
pub fn durable(options: &Options) -> RunResult {
    let mut rng = Rng::new(options.seed);
    let mut tracer = Tracer::new(options.trace);
    let count = 3;
    // Bigger records than the ladder's (128-byte values), so the log has
    // something to write. The issue's 150 KB store was there to make
    // snapshot publishing expensive, but that needs compaction (see
    // `etob`): without folds the checkpointed base state stays empty and a
    // checkpoint costs its fsyncs plus a rewrite of the whole logged tail.
    let mix = PutMix {
        keys: if options.quick { 32 } else { 128 },
        value_len: 128,
        mix: KeyMix::Uniform,
    };
    let episodes: Vec<Episode> = (0..count)
        .map(|i| {
            let plan = Plan {
                durable: Some(data_dir(options, "net-durable", i)),
                mix,
                warm_s: warm_s(options),
                rate: 200.0,
                measured_s: options.seconds / count as f64,
                entries: (0..N).collect(),
                actions: Vec::new(),
                backlog_limit: None,
                window_s: WINDOW_S,
            };
            episode(&plan, &mut rng.fork(i as u64), &mut tracer)
        })
        .collect();
    let mut result = RunResult::default();
    fold_episodes(&episodes, &mut result);
    let pooled: Vec<usize> = (0..episodes.len()).collect();
    let latencies = end_to_end(&episodes, &pooled, &mut result);
    let fs = procfs::fs_type(&options.out_dir);
    result
        .notes
        .push(format!("data directories on a {fs} file system"));
    if options.trace {
        common_layers(
            "net-durable",
            &episodes,
            &latencies,
            true,
            options,
            &mut result,
        );
        let left_behind = data_dir(options, "net-durable", 0).join("0");
        probes::durable_recover(&left_behind, &mut result);
        write_facade_trace("net-durable", &tracer, options, &mut result);
    }
    cleanup(options, "net-durable");
    result
}

/// `net-failover`: open-loop service at p1/p2 while the heartbeat-Ω leader
/// p0 is crashed and restarted, one crash cycle per episode.
pub fn failover(options: &Options) -> RunResult {
    let mut rng = Rng::new(options.seed);
    let mut tracer = Tracer::new(options.trace);
    let count = 5;
    let cycle = options.seconds / count as f64;
    let episodes: Vec<Episode> = (0..count)
        .map(|i| {
            let plan = Plan {
                durable: Some(data_dir(options, "net-failover", i)),
                mix: small_mix(),
                warm_s: warm_s(options),
                rate: 100.0,
                measured_s: cycle,
                // p0 is the leader (lowest unsuspected id): clients keep
                // entering at the survivors through every fault
                entries: vec![1, 2],
                actions: vec![
                    (Duration::from_secs_f64(cycle * 0.3), CRASH),
                    (Duration::from_secs_f64(cycle * 0.65), RESTART),
                ],
                backlog_limit: None,
                // a cycle passes through four states (leader up, crashed,
                // down, back): seconds of it are not alike, whole cycles are
                window_s: cycle,
            };
            episode(&plan, &mut rng.fork(i as u64), &mut tracer)
        })
        .collect();
    let mut result = RunResult::default();
    fold_episodes(&episodes, &mut result);
    let pooled: Vec<usize> = (0..episodes.len()).collect();
    let latencies = end_to_end(&episodes, &pooled, &mut result);

    // per crash: the worst latency among operations due in the window after
    // crash(p0) returned, and how long until an operation due after the
    // crash was first applied at both survivors
    let mut stalls = Vec::new();
    let mut first_served = Vec::new();
    for e in &episodes {
        let Some(crash) = e.phase.actions.iter().find(|a| a.id == CRASH) else {
            continue;
        };
        let after_crash = |i: &usize| e.due[*i] >= crash.end;
        let in_window = |i: &usize| e.due[*i] < crash.end + STALL_WINDOW;
        let indices = 0..e.ops.len();
        let worst = indices
            .clone()
            .filter(|i| after_crash(i) && in_window(i))
            .filter_map(|i| e.phase.latency_ms[i])
            .fold(0.0f64, f64::max);
        stalls.push(worst);
        if let Some(first) = indices.clone().find(|i| after_crash(i)) {
            if let Some(latency) = e.phase.latency_ms[first] {
                let due_after_crash = (e.due[first] - crash.end).as_secs_f64() * 1e3;
                first_served.push(due_after_crash + latency);
            }
        }
    }
    let catchups: Vec<f64> = episodes.iter().filter_map(|e| e.catchup_ms).collect();
    result.verdict.expect(catchups.len() == episodes.len(), || {
        format!(
            "the restarted leader caught up in {} of {} cycles",
            catchups.len(),
            episodes.len()
        )
    });
    result.notes.push(format!(
        "failover: stall per crash {stalls:.1?} ms, catch-up per restart {catchups:.1?} ms"
    ));
    if options.trace {
        common_layers(
            "net-failover",
            &episodes,
            &latencies,
            true,
            options,
            &mut result,
        );
        result.layer("detectors.failover_stall_ms", median(&stalls));
        result.layer("detectors.first_post_crash_ms", median(&first_served));
        probes::detector(&mut result);
        result.layer("durable.catchup_ms", median(&catchups));
        let left_behind = data_dir(options, "net-failover", 0).join("0");
        probes::durable_recover(&left_behind, &mut result);
        write_facade_trace("net-failover", &tracer, options, &mut result);
    }
    cleanup(options, "net-failover");
    result
}

fn cleanup(options: &Options, workload: &str) {
    let dir = options
        .out_dir
        .join(format!("{workload}-data-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(dir);
}

/// Appends the facade spans to the workload's trace file summary.
fn write_facade_trace(workload: &str, tracer: &Tracer, options: &Options, result: &mut RunResult) {
    let path = options
        .out_dir
        .join(format!("trace-{workload}-facade.json"));
    match std::fs::write(&path, tracer.to_json(workload, 20_000).encode()) {
        Ok(()) => result.notes.push(format!(
            "facade trace: {} spans ({})",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => result.notes.push(format!("facade trace not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_second_raises_its_window_and_not_the_median() {
        // 5 s at 10 op/s; everything takes 50 ms and 100 µs of CPU, except
        // the operations due in the third second: 400 ms and 300 µs
        let due: Vec<Duration> = (0..50).map(|i| Duration::from_millis(i * 100)).collect();
        let busy = |i: usize| (20..30).contains(&i);
        let latency_ms: Vec<Option<f64>> = (0..50)
            .map(|i| Some(if busy(i) { 400.0 } else { 50.0 }))
            .collect();
        // marks are read by the first poll after a boundary: a little late
        let mut marks = vec![(Duration::ZERO, 1.0)];
        for second in 1..5u64 {
            let cpu = marks[marks.len() - 1].1 + if second == 3 { 0.003 } else { 0.001 };
            marks.push((Duration::from_millis(second * 1000 + 1), cpu));
        }
        marks.push((Duration::MAX, marks[4].1 + 0.001));
        let windows = windows(&marks, &due, &latency_ms);
        assert_eq!(windows.len(), 5);
        // the first window got the operation due at 1000 ms too
        assert_eq!(windows[0].latency_ms.len(), 11);
        assert_eq!(windows[4].latency_ms.len(), 9);
        let p90s: Vec<f64> = windows
            .iter()
            .map(|w| percentile(&w.latency_ms, 90.0).value)
            .collect();
        assert_eq!(p90s, vec![50.0, 50.0, 400.0, 50.0, 50.0]);
        assert_eq!(median(&p90s), 50.0);
        assert!((windows[2].cpu_us_per_op - 300.0).abs() < 1e-6);
        assert!((windows[1].cpu_us_per_op - 100.0).abs() < 1e-6);
        // pooled, the busy second is a fifth of the run and sets p90
        let pooled: Vec<f64> = latency_ms.iter().flatten().copied().collect();
        assert_eq!(percentile(&pooled, 90.0).value, 400.0);
        // a window in which nothing was applied is left out
        let none: Vec<Option<f64>> = vec![None; 50];
        assert!(super::windows(&marks, &due, &none).is_empty());
    }
}
