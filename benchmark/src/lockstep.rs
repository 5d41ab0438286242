//! The traced lock-step replay: a single-threaded driver, owned by the
//! benchmark, that feeds a workload's seeded operations through the layers'
//! public functions in protocol order —
//!
//! ```text
//! Replica::on_input → encode_body → (fixed link delay) → decode_body
//!   → Replica::on_message / on_timer → DurableStore::record_tail / checkpoint
//! ```
//!
//! — and records a span around every call. Three `Replica<KvStore,
//! EtobOmega>` automata, Ω fixed on p0, one operation per tick round-robin
//! over the entry replicas, every message really encoded and decoded by the
//! wire codec. No `World`, no sockets, no threads: what is left is the cost
//! of the automaton, the state machine and the codec, attributable call by
//! call. The durable variant mirrors replica 0's delivered tail into a
//! driver-owned [`DurableStore`] after every handler, exactly as
//! `Replica::persist` does from the inside.
//!
//! The same driver with a disabled [`Tracer`] is the untraced reference for
//! the tracing overhead.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ec_core::etob_omega::{EtobConfig, EtobMsg, EtobOmega};
use ec_core::types::{Compactable, Instrumented, MsgId};
use ec_replication::net::codec::{decode_body, encode_body, Frame};
use ec_replication::{
    DurableOptions, DurableStore, KvStore, Replica, ReplicaCommand, StateMachine,
};
use ec_sim::{Actions, Algorithm, Context, ProcessId, Time};
use ec_telemetry::{Recorder, TelemetryReport, TimeSource, FLIGHT_CAPACITY};

use crate::spans::{SpanId, Tracer};

/// Replicas in every replay.
pub const N: usize = 3;

/// Fixed link delay in ticks (the `SimEngine` default).
const DELAY: u64 = 2;

/// Tick of the first submission.
const FIRST_SUBMISSION: u64 = 10;

type Node = Replica<KvStore, EtobOmega>;

/// One encoded frame in flight.
struct InFlight {
    arrives: u64,
    body: Vec<u8>,
    cause: Option<SpanId>,
}

/// What a replay is configured with.
#[derive(Clone, Debug)]
pub struct Config {
    /// The Algorithm 5 configuration of the workload.
    pub etob: EtobConfig,
    /// Scratch directory for the driver-owned durable store of replica 0
    /// (`None` = the workload is not durable).
    pub durable_dir: Option<PathBuf>,
}

/// What a replay measured. Every count is deterministic for a fixed op
/// stream; only `wall` depends on the host.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations replayed.
    pub ops: usize,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Ticks simulated.
    pub ticks: u64,
    /// Handler activations (`on_start`, `on_input`, `on_message`, `on_timer`).
    pub handler_calls: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Modelled wire bytes (`Algorithm::wire_size`) of the messages sent.
    pub modelled_bytes: u64,
    /// Encoded frame bytes of the messages sent.
    pub encoded_bytes: u64,
    /// `update` broadcasts, summed over replicas.
    pub updates: u64,
    /// Stable-prefix folds, summed over replicas.
    pub compactions: u64,
    /// Digest pulls, summed over replicas.
    pub sync_pulls: u64,
    /// Peak of `causal_graph().len() + delivered().len()` at the worst
    /// replica, sampled every 64 ticks.
    pub resident_peak: usize,
    /// Commands applied, per replica.
    pub applied: Vec<usize>,
    /// Rolling hash of the whole delivered sequence, per replica.
    pub delivered_hash: Vec<u64>,
    /// Canonical snapshot, per replica.
    pub snapshots: Vec<Vec<u8>>,
    /// Merged recorder reports (logical ticks).
    pub telemetry: TelemetryReport,
}

impl Outcome {
    /// Whether every replica applied every operation, delivered the same
    /// sequence and holds the same state.
    pub fn agrees(&self) -> bool {
        self.applied.iter().all(|a| *a == self.ops)
            && self.delivered_hash.windows(2).all(|w| w[0] == w[1])
            && self.snapshots.windows(2).all(|w| w[0] == w[1])
    }
}

struct Driver<'t> {
    nodes: Vec<Node>,
    inbox: Vec<VecDeque<InFlight>>,
    timers: Vec<Vec<u64>>,
    store: Option<DurableStore>,
    tracer: &'t mut Tracer,
    handler_calls: u64,
    msgs: u64,
    modelled_bytes: u64,
    encoded_bytes: u64,
}

enum Step {
    Start,
    Timer,
    Input(ReplicaCommand),
    Message(InFlight),
}

impl Driver<'_> {
    /// One handler activation of replica `p` at tick `now`, with everything
    /// it causes: decode before, encodes and durable mirroring after.
    fn step(&mut self, p: ProcessId, now: u64, step: Step) {
        let (cause, op) = match &step {
            Step::Message(m) => (m.cause, None),
            Step::Input(c) => (None, c.id.map(|id| (id.origin.index() as u32, id.seq))),
            Step::Start | Step::Timer => (None, None),
        };
        let outer = self.tracer.enter("lockstep.step", cause, op);
        let mut actions = Actions::<Node>::new();
        {
            // Ω is stable from the start: p0 leads forever
            let mut ctx = Context::new(p, Time::new(now), N, ProcessId::new(0), &mut actions);
            let node = &mut self.nodes[p.index()];
            match step {
                Step::Start => {
                    let id = self.tracer.enter("core.on_start", None, None);
                    node.on_start(&mut ctx);
                    self.tracer.exit(id);
                }
                Step::Timer => {
                    let id = self.tracer.enter("core.on_timer", None, None);
                    node.on_timer(&mut ctx);
                    self.tracer.exit(id);
                }
                Step::Input(command) => {
                    let id = self.tracer.enter("core.on_input", None, op);
                    node.on_input(command, &mut ctx);
                    self.tracer.exit(id);
                }
                Step::Message(m) => {
                    let id = self.tracer.enter("codec.decode", None, None);
                    let decoded = decode_body::<EtobMsg>(&m.body);
                    self.tracer.exit(id);
                    let Ok(Frame::App { from, msg }) = decoded else {
                        unreachable!("the driver only ships App frames it encoded itself");
                    };
                    let id = self.tracer.enter("core.on_message", None, None);
                    node.on_message(from, msg, &mut ctx);
                    self.tracer.exit(id);
                }
            }
        }
        self.handler_calls += 1;
        for (to, msg) in actions.sends {
            self.msgs += 1;
            self.modelled_bytes += Node::wire_size(&msg);
            let id = self.tracer.enter("codec.encode", None, None);
            let body = encode_body(&Frame::App { from: p, msg });
            self.tracer.exit(id);
            self.encoded_bytes += 4 + body.len() as u64;
            self.inbox[to.index()].push_back(InFlight {
                arrives: now + DELAY,
                body,
                cause: outer,
            });
        }
        for delay in actions.timers {
            self.timers[p.index()].push(now + delay);
        }
        if p.index() == 0 {
            self.persist();
        }
        self.tracer.exit(outer);
    }

    /// Mirrors replica 0's delivered tail into the driver-owned store and
    /// checkpoints when due — `Replica::persist`, from the outside.
    fn persist(&mut self) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let node = &self.nodes[0];
        let layer = node.broadcast_layer();
        let (base, hash) = (layer.stable_base(), layer.stable_hash());
        let id = self.tracer.enter("durable.record_tail", None, None);
        store.record_tail(base, hash, layer.delivered());
        self.tracer.exit(id);
        if store.checkpoint_due() {
            let frontier = layer.stable_frontier();
            // the replica checkpoints its private base state; the live
            // state has the same size and, for a put-only stream, recovers
            // to the same store once the tail is replayed over it
            let state = node.state().snapshot();
            let id = self.tracer.enter("durable.checkpoint", None, None);
            store.checkpoint(base, hash, &frontier, &state, layer.delivered(), 0);
            self.tracer.exit(id);
        }
    }
}

/// Gives every command what the facade's sessions would: identifier
/// `(entry, k)` for the `k`-th command entering at `entry` (entries
/// round-robin) and a causal dependency on that entry's previous command.
pub fn with_session_ids(ops: &[ReplicaCommand]) -> Vec<(ProcessId, ReplicaCommand)> {
    let mut next_seq = [0u64; N];
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let entry = ProcessId::new(i % N);
            let seq = &mut next_seq[entry.index()];
            let mut command = op.clone();
            if *seq > 0 {
                command.deps.push(MsgId::new(entry, *seq));
            }
            *seq += 1;
            (entry, command.with_id(MsgId::new(entry, *seq)))
        })
        .collect()
}

/// Replays `ops` (one per tick, round-robin over the entry replicas) until
/// every replica has applied all of them.
///
/// # Panics
///
/// Panics if the replay does not converge within 100 000 ticks of the last
/// submission — the automata are deterministic, so that is a bug in them or
/// in this driver, never noise.
pub fn replay(ops: &[ReplicaCommand], config: &Config, tracer: &mut Tracer) -> Outcome {
    let store = config.durable_dir.as_ref().map(|dir| {
        let _ = std::fs::remove_dir_all(dir);
        let (store, _) = DurableStore::open(&DurableOptions::new(dir.clone()))
            .unwrap_or_else(|e| panic!("cannot open scratch store in {}: {e}", dir.display()));
        store
    });
    let nodes = (0..N)
        .map(|i| {
            let mut layer = EtobOmega::new(ProcessId::new(i), config.etob);
            layer.attach_recorder(Recorder::new(
                i as u32,
                TimeSource::Logical,
                FLIGHT_CAPACITY,
            ));
            Replica::new(layer)
        })
        .collect();
    let submissions = with_session_ids(ops);
    let started = Instant::now();
    let mut driver = Driver {
        nodes,
        inbox: (0..N).map(|_| VecDeque::new()).collect(),
        timers: vec![Vec::new(); N],
        store,
        tracer,
        handler_calls: 0,
        msgs: 0,
        modelled_bytes: 0,
        encoded_bytes: 0,
    };
    let last_submission = FIRST_SUBMISSION + ops.len() as u64;
    let mut next = 0usize;
    let mut resident_peak = 0usize;
    let mut t = 0u64;
    loop {
        if t == 0 {
            for i in 0..N {
                driver.step(ProcessId::new(i), t, Step::Start);
            }
        }
        for i in 0..N {
            // uniform delay keeps each inbox sorted by arrival tick
            while driver.inbox[i].front().is_some_and(|m| m.arrives <= t) {
                let Some(message) = driver.inbox[i].pop_front() else {
                    break;
                };
                driver.step(ProcessId::new(i), t, Step::Message(message));
            }
        }
        for i in 0..N {
            let due = driver.timers[i].iter().filter(|at| **at <= t).count();
            driver.timers[i].retain(|at| *at > t);
            for _ in 0..due {
                driver.step(ProcessId::new(i), t, Step::Timer);
            }
        }
        if t >= FIRST_SUBMISSION && next < submissions.len() {
            let (entry, command) = submissions[next].clone();
            driver.step(entry, t, Step::Input(command));
            next += 1;
        }
        if t.is_multiple_of(64) {
            let worst = driver
                .nodes
                .iter()
                .map(|n| {
                    let layer = n.broadcast_layer();
                    layer.causal_graph().len() + layer.delivered().len()
                })
                .max()
                .unwrap_or(0);
            resident_peak = resident_peak.max(worst);
        }
        if next == submissions.len() && driver.nodes.iter().all(|n| n.applied() == ops.len()) {
            break;
        }
        assert!(
            t < last_submission + 100_000,
            "lock-step replay of {} ops did not converge by tick {t}",
            ops.len()
        );
        t += 1;
    }
    let wall = started.elapsed();
    let mut telemetry = TelemetryReport::default();
    for node in &driver.nodes {
        if let Some(recorder) = node.broadcast_layer().recorder() {
            telemetry.merge(&recorder.report());
        }
    }
    let layers = || driver.nodes.iter().map(Node::broadcast_layer);
    Outcome {
        ops: ops.len(),
        wall,
        ticks: t,
        handler_calls: driver.handler_calls,
        msgs: driver.msgs,
        modelled_bytes: driver.modelled_bytes,
        encoded_bytes: driver.encoded_bytes,
        updates: layers().map(EtobOmega::updates_sent).sum(),
        compactions: layers().map(EtobOmega::compactions).sum(),
        sync_pulls: layers().map(EtobOmega::sync_pulls).sum(),
        resident_peak,
        applied: driver.nodes.iter().map(Node::applied).collect(),
        delivered_hash: layers().map(EtobOmega::delivered_hash).collect(),
        snapshots: driver.nodes.iter().map(|n| n.state().snapshot()).collect(),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{puts, KeyMix, PutMix, Rng};

    fn ops(count: usize) -> Vec<ReplicaCommand> {
        let mix = PutMix {
            keys: 16,
            value_len: 8,
            mix: KeyMix::Zipf,
        };
        puts(&mut Rng::new(5), count, mix)
    }

    #[test]
    fn the_replay_converges_agrees_and_repeats_exactly() {
        let config = Config {
            etob: EtobConfig::batched(5).with_compaction(64),
            durable_dir: None,
        };
        let ops = ops(600);
        let a = replay(&ops, &config, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let b = replay(&ops, &config, &mut tracer);
        assert!(a.agrees() && b.agrees());
        // tracing changes nothing the protocol can see
        assert_eq!(
            (
                a.msgs,
                a.encoded_bytes,
                a.handler_calls,
                a.ticks,
                &a.delivered_hash
            ),
            (
                b.msgs,
                b.encoded_bytes,
                b.handler_calls,
                b.ticks,
                &b.delivered_hash
            )
        );
        assert!(a.compactions > 0, "600 ops must fold at chunk 64");
        // the final state is what replaying p0's order from scratch gives:
        // a put stream's state is the last value per key in delivery order,
        // so equal snapshots + equal delivered hashes pin it
        assert_eq!(
            KvStore::from_snapshot(&a.snapshots[0]).map(|s| s.len()),
            Some(16)
        );
        // every handler activation and every message left a span
        let layers = tracer.layer_times();
        assert_eq!(layers["lockstep.step"].calls, b.handler_calls);
        assert_eq!(layers["codec.encode"].calls, b.msgs);
        // all but the frames still in flight at the end were decoded
        let undecoded = b.msgs - layers["codec.decode"].calls;
        assert!(undecoded <= 32, "{undecoded} frames never arrived");
        assert_eq!(layers["core.on_input"].calls, 600);
    }

    #[test]
    fn the_durable_variant_mirrors_replica_zero_to_disk() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-lockstep-{}", std::process::id()));
        let config = Config {
            etob: EtobConfig::batched(5).with_compaction(64),
            durable_dir: Some(dir.clone()),
        };
        let mut tracer = Tracer::new(true);
        let outcome = replay(&ops(300), &config, &mut tracer);
        assert!(outcome.agrees());
        let layers = tracer.layer_times();
        assert!(layers["durable.record_tail"].calls > 300);
        // entries arrive in batches, so a checkpoint covers ≥ 8 of them
        let checkpoints = layers["durable.checkpoint"].calls;
        assert!((5..=300 / 8).contains(&checkpoints), "{checkpoints}");
        // what is on disk recovers to replica 0's state
        let (_, recovered) = DurableStore::open(&DurableOptions::new(dir.clone())).expect("reopen");
        let recovered = recovered.expect("the directory holds state");
        let mut state = KvStore::from_snapshot(&recovered.state).expect("snapshot decodes");
        for m in &recovered.tail {
            state.apply(&m.payload);
        }
        assert_eq!(recovered.base as usize + recovered.tail.len(), 300);
        assert_eq!(state.snapshot(), outcome.snapshots[0]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
