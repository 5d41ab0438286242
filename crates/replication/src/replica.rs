//! A generic replicated-service replica over any (eventual) total order
//! broadcast implementation.

use std::fmt;

use ec_core::types::{
    AppMessage, Compactable, DeliveryDelta, EtobBroadcast, EventualTotalOrderBroadcast,
    Instrumented, MsgId, Payload,
};
use ec_sim::{Algorithm, Context, ProcessId};
use ec_telemetry::{Event, Recorder, TelemetryReport};

use crate::durable::{DurableOptions, DurableStore};
use crate::state_machine::StateMachine;

/// A client command submitted to a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaCommand {
    /// The state-machine command. Stored behind an [`Payload`] `Arc` so the
    /// broadcast layer's per-recipient fan-out and the thread runtime's
    /// channel sends share one buffer instead of deep-copying it.
    pub command: Payload,
    /// Identifiers of commands this one causally depends on (passed through
    /// to the broadcast layer as `C(m)`).
    pub deps: Vec<MsgId>,
    /// Explicit message identifier, or `None` to let the receiving replica
    /// assign one from its own counter.
    ///
    /// The `Cluster`/`Session` facade pre-assigns identifiers so client
    /// sessions can thread causal dependencies across commands without
    /// reaching into replica state. An explicit identifier must be unique in
    /// the run and must not collide with replica-assigned ones — within one
    /// deployment, either let every command be assigned automatically or
    /// route every command through the facade, not both.
    pub id: Option<MsgId>,
}

impl ReplicaCommand {
    /// A command with no declared causal dependencies.
    pub fn new(command: impl Into<Payload>) -> Self {
        ReplicaCommand {
            command: command.into(),
            deps: Vec::new(),
            id: None,
        }
    }

    /// A command with declared causal dependencies.
    pub fn with_deps(command: impl Into<Payload>, deps: Vec<MsgId>) -> Self {
        ReplicaCommand {
            command: command.into(),
            deps,
            id: None,
        }
    }

    /// Sets an explicit message identifier (see [`ReplicaCommand::id`]).
    pub fn with_id(mut self, id: MsgId) -> Self {
        self.id = Some(id);
        self
    }
}

impl From<Vec<u8>> for ReplicaCommand {
    fn from(command: Vec<u8>) -> Self {
        ReplicaCommand::new(command)
    }
}

impl From<&[u8]> for ReplicaCommand {
    fn from(command: &[u8]) -> Self {
        ReplicaCommand::new(command)
    }
}

impl From<&str> for ReplicaCommand {
    fn from(command: &str) -> Self {
        ReplicaCommand::new(command.as_bytes())
    }
}

impl From<String> for ReplicaCommand {
    fn from(command: String) -> Self {
        ReplicaCommand::new(command.into_bytes())
    }
}

/// What a replica shows of itself every time the applied command sequence
/// or the state changes: how far it got and a fingerprint of where it is —
/// enough to tell when replicas agree. The state itself is read from the
/// replica ([`crate::Cluster::snapshot`], [`crate::Cluster::state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaOutput {
    /// Number of commands currently applied.
    pub applied: usize,
    /// [`StateMachine::digest`] of the state after applying them — kept up
    /// to date by the machine where it can ([`crate::KvStore`]), so an
    /// output costs the same whatever the size of the state.
    pub digest: u64,
}

/// A replica: a deterministic state machine `S` fed by the delivered sequence
/// of a broadcast layer `B`.
///
/// With `B = EtobOmega` (Algorithm 5) this is an **eventually consistent**
/// replicated service that only needs Ω; with `B = ConsensusTob` it is a
/// **strongly consistent** one that needs Ω + Σ. The replica keeps its own
/// copy of the delivered sequence and applies every [`DeliveryDelta`] the
/// broadcast layer emits to it, so divergence and convergence of the
/// broadcast layer translate directly into divergence and convergence of
/// replica snapshots.
///
/// ## Adoption: extension, rewrite, below-fold
///
/// A delta `{ keep, suffix }` is one of three things (`DESIGN.md`, "Replica
/// adoption"): `keep` at the end of the replica's copy is an **extension** —
/// the suffix is applied to the live state, O(|suffix|), whatever the length
/// of the history; `keep` inside the resident tail is a genuine **rewrite**
/// (Ω was unstable) — the tail is cut there and the state rebuilt from
/// `base_state`; `keep` below the folded prefix, or beyond the copy, cannot
/// be applied — it is **rejected** and counted
/// ([`Replica::rejected_deltas`]), never a panic or a mis-truncation.
///
/// ## Stable-prefix folding
///
/// When the broadcast layer compacts ([`Compactable::stable_base`] grows)
/// it emits nothing — `keep` is absolute, so a fold changes no position.
/// The replica mirrors the fold: the folded prefix's effect is absorbed into
/// `base_state` (the state machine at absolute index `base_applied`) and
/// dropped from the tail, so replica memory tracks the broadcast layer's
/// instead of the full history. With compaction off, `base_applied` stays 0.
///
/// ## Durability
///
/// [`Replica::durable`] attaches a [`DurableStore`]: every delivered-tail
/// change is mirrored into the record log — the change only, so an
/// activation that delivered nothing does not touch the store — periodic
/// checkpoints fsync the log and, once a fold moved the base, snapshot
/// `base_state`, and on (re)start the replica recovers
/// from disk and primes the broadcast layer
/// ([`Compactable::prime_recovery`]) so anti-entropy only fetches the suffix
/// missed while down. Recovery is **lazy** — nothing touches the disk until
/// `on_start` runs — so a pre-built spare automaton recovers the state of
/// the instance it replaces.
pub struct Replica<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented> {
    broadcast: B,
    state: S,
    applied: usize,
    next_seq: u64,
    last_output: Option<ReplicaOutput>,
    /// State machine with exactly the folded prefix applied.
    base_state: S,
    /// Absolute length of the folded prefix baked into `base_state`.
    base_applied: usize,
    /// Resident delivered tail: the broadcast layer's deltas folded into
    /// this replica's own copy, from absolute index `base_applied` on.
    tail: Vec<AppMessage>,
    /// Times the state was rebuilt from `base_state` (rewrites, recovery).
    rebuilds: u64,
    /// Deltas that could not be applied (below the fold or beyond the tail).
    rejected_deltas: u64,
    durable_options: Option<DurableOptions>,
    durable: Option<DurableStore>,
}

impl<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented> Replica<S, B> {
    /// Wraps a broadcast layer.
    ///
    /// # Example
    ///
    /// A single eventually consistent KV replica over Algorithm 5 (run a
    /// whole group of them with [`ec_sim::WorldBuilder`], or a hash-sharded
    /// cluster with [`crate::shard::ShardedKv`]):
    ///
    /// ```
    /// use ec_core::etob_omega::{EtobConfig, EtobOmega};
    /// use ec_replication::{KvStore, Replica};
    /// use ec_sim::ProcessId;
    ///
    /// let replica: Replica<KvStore, EtobOmega> =
    ///     Replica::new(EtobOmega::new(ProcessId::new(0), EtobConfig::default()));
    /// assert_eq!(replica.applied(), 0);
    /// assert!(replica.state().is_empty());
    /// ```
    pub fn new(broadcast: B) -> Self {
        Replica {
            broadcast,
            state: S::default(),
            applied: 0,
            next_seq: 0,
            last_output: None,
            base_state: S::default(),
            base_applied: 0,
            tail: Vec::new(),
            rebuilds: 0,
            rejected_deltas: 0,
            durable_options: None,
            durable: None,
        }
    }

    /// Wraps a broadcast layer with durability: delivered state persists
    /// under `options.dir` and is recovered (lazily, at `on_start`) after a
    /// crash. Persistence is best-effort — an I/O failure degrades to the
    /// in-memory behavior of [`Replica::new`], never to a panic.
    pub fn durable(broadcast: B, options: DurableOptions) -> Self {
        let mut replica = Replica::new(broadcast);
        replica.durable_options = Some(options);
        replica
    }

    /// The current state machine.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Number of commands applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// The wrapped broadcast layer.
    pub fn broadcast_layer(&self) -> &B {
        &self.broadcast
    }

    /// Absolute length of the folded prefix baked into the base state.
    pub fn base_applied(&self) -> usize {
        self.base_applied
    }

    /// Times the state was rebuilt by replaying the resident tail over the
    /// base state: once per activation that rewrote the delivered suffix
    /// (possible only while Ω is unstable) and once per durable recovery.
    /// Extensions never rebuild.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Delivery deltas rejected because they could not be placed: `keep`
    /// below the folded prefix or beyond the delivered copy. A correct
    /// broadcast layer never emits one.
    pub fn rejected_deltas(&self) -> u64 {
        self.rejected_deltas
    }

    /// The latency summary of this replica's recorder (empty without one).
    pub fn telemetry(&self) -> TelemetryReport {
        let recorder = self.broadcast.recorder();
        recorder.map(Recorder::report).unwrap_or_default()
    }

    /// The flight-recorder trace of this replica (empty without a recorder).
    pub fn flight_events(&self) -> Vec<Event> {
        let recorder = self.broadcast.recorder();
        recorder.map(Recorder::events).unwrap_or_default()
    }

    /// Recomputes `state` as `base_state` plus the resident tail and emits
    /// an output if the visible state changed.
    fn rebuild(&mut self, ctx: &mut Context<'_, Self>) {
        let mut state = self.base_state.clone();
        for m in &self.tail {
            state.apply(m.payload.as_ref());
        }
        self.state = state;
        self.rebuilds += 1;
        self.emit_output(ctx);
    }

    /// Folds one delivery delta into the resident tail (the state follows
    /// in [`Replica::drive`]). Returns the absolute index from which the
    /// tail changed, or `None` if the delta was rejected.
    fn splice(&mut self, delta: DeliveryDelta) -> Option<usize> {
        let rel = delta
            .keep
            .checked_sub(self.base_applied)
            .filter(|rel| *rel <= self.tail.len());
        let Some(rel) = rel else {
            self.rejected_deltas += 1;
            return None;
        };
        self.tail.truncate(rel);
        self.tail.extend(delta.suffix);
        Some(delta.keep)
    }

    /// Emits a [`ReplicaOutput`] if the visible state changed since the
    /// last one, keeping `applied` in sync with the adopted tail.
    fn emit_output(&mut self, ctx: &mut Context<'_, Self>) {
        self.applied = self.base_applied + self.tail.len();
        let output = ReplicaOutput {
            applied: self.applied,
            digest: self.state.digest(),
        };
        if self.last_output == Some(output) {
            return;
        }
        // flight-record the newest applied command (one event per visible
        // state change, not per replayed tail entry)
        if let Some(m) = self.tail.last() {
            let (origin, seq) = (m.id.origin.index() as u32, m.id.seq);
            if let Some(recorder) = self.broadcast.recorder_mut() {
                recorder.applied(origin, seq);
            }
        }
        self.last_output = Some(output);
        ctx.output(output);
    }

    /// Absorbs a broadcast-layer fold into the base state: the broadcast
    /// only folds a globally stable prefix, so the tail entries below the
    /// new stable base are final and can be applied permanently.
    ///
    /// Runs *before* the activation's deltas are applied: the stored tail
    /// always starts at `base_applied`, and the broadcast layer never folds
    /// and emits a delta in the same activation (folds happen on the promote
    /// timer, deltas on message receipt), so draining the prefix from the
    /// tail as it stood is correct in every interleaving. Returns whether
    /// the base advanced.
    fn reconcile_fold(&mut self) -> bool {
        let stable = usize::try_from(self.broadcast.stable_base()).unwrap_or(usize::MAX);
        if stable <= self.base_applied {
            return false;
        }
        let drain = (stable - self.base_applied).min(self.tail.len());
        for m in self.tail.drain(..drain) {
            self.base_state.apply(m.payload.as_ref());
        }
        self.base_applied += drain;
        drain > 0
    }

    /// Mirrors a change of the tail — everything from absolute index `keep`
    /// on — into the durable store and checkpoints when due. A no-op
    /// without a store.
    fn persist(&mut self, keep: usize) {
        if self.durable.is_none() {
            return;
        }
        let base = self.base_applied as u64;
        let hash = self.broadcast.stable_hash();
        if let Some(store) = self.durable.as_mut() {
            store.record_change(base, hash, &self.tail, keep as u64);
        }
        if self
            .durable
            .as_ref()
            .is_some_and(DurableStore::checkpoint_due)
        {
            let frontier = self.broadcast.stable_frontier();
            let state = self.base_state.snapshot();
            let own_seq = self.next_seq;
            if let Some(store) = self.durable.as_mut() {
                store.checkpoint(base, hash, &frontier, &state, &self.tail, own_seq);
            }
        }
    }

    /// Opens the durable store and, when the directory holds state, primes
    /// the broadcast layer and rebuilds from the checkpoint + logged tail.
    /// Failures at any stage degrade to a blank start (anti-entropy then
    /// refetches everything) — recovery never panics and never merges.
    fn recover(&mut self, ctx: &mut Context<'_, Self>) {
        let Some(options) = self.durable_options.as_ref() else {
            return;
        };
        let Ok((store, recovered)) = DurableStore::open(options) else {
            return;
        };
        self.durable = Some(store);
        let Some(rec) = recovered else {
            return;
        };
        // Never reuse a locally assigned sequence number from the previous
        // incarnation, even when the rest of the recovery is not adopted.
        self.next_seq = self.next_seq.max(rec.own_seq);
        for m in &rec.tail {
            if m.id.origin == ctx.me() {
                self.next_seq = self.next_seq.max(m.id.seq);
            }
        }
        let base_state = if rec.base == 0 {
            Some(S::default())
        } else {
            S::from_snapshot(&rec.state)
        };
        let Some(base_state) = base_state else {
            return;
        };
        if !self
            .broadcast
            .prime_recovery(rec.base, rec.hash, rec.frontier, rec.tail.clone())
        {
            return;
        }
        self.base_state = base_state;
        self.base_applied = usize::try_from(rec.base).unwrap_or(0);
        self.tail = rec.tail;
        self.rebuild(ctx);
    }

    fn drive<F>(&mut self, ctx: &mut Context<'_, Self>, f: F)
    where
        F: FnOnce(&mut B, &mut Context<'_, B>),
    {
        let deltas = ctx.nest(&mut self.broadcast, |m| m, f);
        // Where the delivered copy ended before this activation. A fold
        // moves the base under an unchanged tail: a change that starts
        // there.
        let end = self.base_applied + self.tail.len();
        let mut changed_from = self.reconcile_fold().then_some(end);
        // Every delta of the activation is applied, in order; the state,
        // the visible output and the durable store follow once.
        for delta in deltas {
            if let Some(keep) = self.splice(delta) {
                changed_from = Some(changed_from.map_or(keep, |from| from.min(keep)));
            }
        }
        let Some(from) = changed_from else {
            return;
        };
        if from < end {
            // entries the state had already absorbed were replaced
            self.rebuild(ctx);
        } else {
            let appended = end.saturating_sub(self.base_applied);
            for m in self.tail.get(appended..).unwrap_or_default() {
                self.state.apply(m.payload.as_ref());
            }
            self.emit_output(ctx);
        }
        self.persist(from);
    }
}

impl<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented + fmt::Debug>
    fmt::Debug for Replica<S, B>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("applied", &self.applied)
            .field("base_applied", &self.base_applied)
            .field("state", &self.state)
            .field("broadcast", &self.broadcast)
            .finish()
    }
}

impl<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented> Algorithm
    for Replica<S, B>
{
    type Msg = B::Msg;
    type Input = ReplicaCommand;
    type Output = ReplicaOutput;
    type Fd = B::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        self.recover(ctx);
        self.drive(ctx, |b, ictx| b.on_start(ictx));
        ctx.set_timer(3);
    }

    fn on_input(&mut self, input: ReplicaCommand, ctx: &mut Context<'_, Self>) {
        let id = match input.id {
            Some(id) => {
                // keep the local counter ahead of explicit ids so a later
                // auto-assigned id cannot collide with this one
                self.next_seq = self.next_seq.max(id.seq);
                id
            }
            None => {
                self.next_seq += 1;
                MsgId::new(ctx.me(), self.next_seq)
            }
        };
        // Persist the high-water mark *before* the command enters the
        // broadcast layer: a crash right after the send must not lead the
        // next incarnation to reuse this identifier.
        let next_seq = self.next_seq;
        if let Some(store) = self.durable.as_mut() {
            store.record_own_seq(next_seq);
        }
        let message = AppMessage::with_deps(id, input.command, input.deps);
        self.drive(ctx, |b, ictx| b.on_input(EtobBroadcast { message }, ictx));
    }

    fn on_message(&mut self, from: ProcessId, msg: B::Msg, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |b, ictx| b.on_message(from, msg, ictx));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |b, ictx| b.on_timer(ictx));
        ctx.set_timer(3);
    }

    fn on_idle(&mut self, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |b, ictx| b.on_idle(ictx));
    }

    fn wire_size(msg: &B::Msg) -> u64 {
        B::wire_size(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_machine::KvStore;
    use ec_core::etob_omega::{EtobConfig, EtobOmega};
    use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
    use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
    use ec_sim::{FailurePattern, NetworkModel, PartitionSpec, ProcessSet, Time, WorldBuilder};

    type EventualReplica = Replica<KvStore, EtobOmega>;
    type StrongReplica = Replica<KvStore, ConsensusTob>;

    #[test]
    fn eventually_consistent_kv_replicas_converge() {
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .seed(7)
            .build_with(
                |p| -> EventualReplica { Replica::new(EtobOmega::new(p, EtobConfig::default())) },
                omega,
            );
        for k in 0..6u64 {
            world.schedule_input(
                ProcessId::new((k % 4) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), &format!("v{k}"))),
                10 + 10 * k,
            );
        }
        world.run_until(2_000);
        let outputs: Vec<ReplicaOutput> = world
            .process_ids()
            .map(|p| *world.output_history().last(p).expect("output"))
            .collect();
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "replicas diverged"
        );
        // an output is 16 plain bytes, and its digest is the state's
        assert_eq!(std::mem::size_of::<ReplicaOutput>(), 16);
        let state = world.algorithm(ProcessId::new(0)).state();
        assert_eq!(outputs[0].digest, state.digest());
        let read_back = KvStore::from_snapshot(&state.snapshot()).expect("round trip");
        assert_eq!(outputs[0].digest, read_back.digest());
        assert_eq!(world.algorithm(ProcessId::new(0)).applied(), 6);
        assert_eq!(
            world.algorithm(ProcessId::new(0)).state().get("k3"),
            Some("v3")
        );
    }

    #[test]
    fn eventual_replicas_keep_serving_in_the_leaders_minority_partition() {
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(50),
            Time::new(900),
            PartitionSpec::isolate(minority, n),
        );
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(8)
            .build_with(
                |p| -> EventualReplica { Replica::new(EtobOmega::new(p, EtobConfig::default())) },
                omega,
            );
        for k in 0..4u64 {
            world.schedule_input(
                ProcessId::new((k % 2) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), "v")),
                100 + 20 * k,
            );
        }
        world.run_until(2_500);
        let history = world.output_history();
        // during the partition, the leader-side replica p1 made progress
        let during = history
            .value_at(ProcessId::new(1), Time::new(850))
            .map(|o| o.applied)
            .unwrap_or(0);
        assert!(
            during >= 1,
            "eventually consistent replica must serve during the partition"
        );
        // after the heal everyone has everything
        for p in world.process_ids() {
            assert_eq!(world.algorithm(p).applied(), 4, "{p}");
        }
    }

    #[test]
    fn strongly_consistent_replicas_block_in_a_minority_partition() {
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::majority(failures.clone()),
        );
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(50),
            Time::new(900),
            PartitionSpec::isolate(minority, n),
        );
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(8)
            .build_with(
                |p| -> StrongReplica {
                    Replica::new(ConsensusTob::new(p, ConsensusTobConfig::default()))
                },
                fd,
            );
        for k in 0..4u64 {
            world.schedule_input(
                ProcessId::new((k % 2) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), "v")),
                100 + 20 * k,
            );
        }
        world.run_until(2_500);
        let history = world.output_history();
        // during the partition, nothing new is applied anywhere
        for p in world.process_ids() {
            let during = history
                .value_at(p, Time::new(850))
                .map(|o| o.applied)
                .unwrap_or(0);
            assert_eq!(
                during, 0,
                "strongly consistent replica {p} applied during the partition"
            );
        }
        // after the heal everything commits
        for p in world.process_ids() {
            assert_eq!(world.algorithm(p).applied(), 4, "{p}");
        }
    }

    /// A broadcast layer scripted by its "peers": it emits the delta, or
    /// folds to the base, that a message tells it to.
    #[derive(Debug, Default)]
    struct Scripted {
        stable: u64,
    }

    #[derive(Clone, Debug)]
    enum Script {
        Emit(DeliveryDelta),
        FoldTo(u64),
    }

    impl Algorithm for Scripted {
        type Msg = Script;
        type Input = EtobBroadcast;
        type Output = DeliveryDelta;
        type Fd = ();

        fn on_input(&mut self, _: EtobBroadcast, _: &mut Context<'_, Self>) {}

        fn on_message(&mut self, _: ProcessId, msg: Script, ctx: &mut Context<'_, Self>) {
            match msg {
                Script::Emit(delta) => ctx.output(delta),
                Script::FoldTo(base) => self.stable = base,
            }
        }
    }

    impl Compactable for Scripted {
        fn stable_base(&self) -> u64 {
            self.stable
        }
    }

    impl Instrumented for Scripted {}

    #[test]
    fn deltas_extend_rewrite_or_are_rejected_by_where_keep_falls() {
        let put = |seq: u64, key: &str, value: &str| {
            AppMessage::new(MsgId::new(ProcessId::new(1), seq), KvStore::put(key, value))
        };
        let mut replica: Replica<KvStore, Scripted> = Replica::new(Scripted::default());
        let step = |replica: &mut Replica<KvStore, Scripted>, script: Script| {
            let mut actions = ec_sim::Actions::<Replica<KvStore, Scripted>>::new();
            let mut ctx = Context::new(ProcessId::new(0), Time::new(1), 2, (), &mut actions);
            replica.on_message(ProcessId::new(1), script, &mut ctx);
            actions.outputs
        };
        let emit = |keep, suffix: Vec<AppMessage>| Script::Emit(DeliveryDelta { keep, suffix });

        // extension of the empty sequence, then of a longer one
        let out = step(
            &mut replica,
            emit(0, vec![put(1, "a", "1"), put(2, "b", "2")]),
        );
        assert_eq!(out.last().map(|o| o.applied), Some(2));
        step(&mut replica, emit(2, vec![put(3, "a", "3")]));
        assert_eq!(
            (replica.applied(), replica.state().get("a")),
            (3, Some("3"))
        );
        assert_eq!(replica.rebuilds(), 0, "extensions never rebuild");

        // rewrite from inside the tail: entries 1.. are replaced
        let out = step(&mut replica, emit(1, vec![put(4, "c", "9")]));
        assert_eq!(out.last().map(|o| o.applied), Some(2));
        assert_eq!(replica.rebuilds(), 1);
        let state = replica.state();
        assert_eq!(
            (state.get("a"), state.get("b"), state.get("c")),
            (Some("1"), None, Some("9"))
        );

        // a fold moves the base and shows nothing
        assert!(step(&mut replica, Script::FoldTo(1)).is_empty());
        assert_eq!((replica.base_applied(), replica.applied()), (1, 2));

        // below the fold, and beyond the copy: rejected, nothing moves
        let before = replica.state().snapshot();
        assert!(step(&mut replica, emit(0, vec![put(5, "z", "0")])).is_empty());
        assert!(step(&mut replica, emit(5, vec![put(5, "z", "0")])).is_empty());
        assert_eq!(replica.rejected_deltas(), 2);
        assert_eq!((replica.applied(), replica.state().snapshot()), (2, before));

        // positions stay absolute across the fold
        step(&mut replica, emit(2, vec![put(6, "d", "4")]));
        assert_eq!(
            (replica.applied(), replica.state().get("d")),
            (3, Some("4"))
        );
        assert_eq!(replica.rebuilds(), 1);
    }

    #[test]
    fn accessors_and_debug() {
        let replica: EventualReplica =
            Replica::new(EtobOmega::new(ProcessId::new(0), EtobConfig::default()));
        assert_eq!(replica.applied(), 0);
        assert!(replica.state().is_empty());
        assert!(replica.broadcast_layer().delivered().is_empty());
        assert!(format!("{replica:?}").contains("Replica"));
        let cmd = ReplicaCommand::with_deps(b"x".to_vec(), vec![MsgId::new(ProcessId::new(0), 1)]);
        assert_eq!(cmd.deps.len(), 1);
    }

    #[test]
    fn commands_convert_from_bytes_and_strings() {
        let from_vec: ReplicaCommand = KvStore::put("a", "1").into();
        let from_str: ReplicaCommand = "put a 1".into();
        let from_string: ReplicaCommand = String::from("put a 1").into();
        let from_slice: ReplicaCommand = b"put a 1".as_slice().into();
        assert_eq!(from_vec, from_str);
        assert_eq!(from_str, from_string);
        assert_eq!(from_string, from_slice);
        assert!(from_str.id.is_none() && from_str.deps.is_empty());
    }

    #[test]
    fn explicit_ids_are_honored_and_keep_the_counter_ahead() {
        let n = 2;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .build_with(
                |p| -> EventualReplica { Replica::new(EtobOmega::new(p, EtobConfig::default())) },
                omega,
            );
        let explicit = MsgId::new(ProcessId::new(0), 7);
        world.schedule_input(
            ProcessId::new(0),
            ReplicaCommand::new(KvStore::put("a", "1")).with_id(explicit),
            10,
        );
        // a later auto-assigned command must not collide with seq 7
        world.schedule_input(
            ProcessId::new(0),
            ReplicaCommand::new(KvStore::put("b", "2")),
            50,
        );
        world.run_until(2_000);
        let delivered = world
            .algorithm(ProcessId::new(0))
            .broadcast_layer()
            .delivered();
        let ids: Vec<MsgId> = delivered.iter().map(|m| m.id).collect();
        assert!(ids.contains(&explicit));
        assert_eq!(ids.len(), 2);
        assert!(ids[0] != ids[1], "auto id must not collide: {ids:?}");
        assert_eq!(
            world.algorithm(ProcessId::new(1)).state().get("b"),
            Some("2")
        );
    }
}
