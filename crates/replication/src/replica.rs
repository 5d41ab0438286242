//! A generic replicated-service replica over any (eventual) total order
//! broadcast implementation.

use std::fmt;

use ec_core::types::{
    AppMessage, Compactable, EtobBroadcast, EventualTotalOrderBroadcast, Instrumented, MsgId,
    Payload,
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
/// **strongly consistent** one that needs Ω + Σ. The replica holds no copy
/// of the delivered sequence: it reads the layer's resident one
/// ([`Compactable::delivered`]) and keeps only the state machines, so
/// divergence and convergence of the broadcast layer translate directly
/// into divergence and convergence of replica snapshots.
///
/// ## Adoption: extension, rewrite, rejection
///
/// The deltas `{ keep, suffix }` an activation emits say where the layer's
/// sequence changed (`DESIGN.md`, "Replica adoption"); the replica checks
/// each `keep` against a running length that starts at `applied`, the
/// entries `state` has absorbed. If no `keep` falls below `applied`, the
/// activation is an **extension** — the new resident entries are applied
/// to the live state, O(new entries), whatever the length of the history.
/// A `keep` below it is a genuine **rewrite** (Ω was unstable) — the state
/// is rebuilt from `base_state` plus the resident sequence. A `keep` below
/// the folded prefix or beyond the running length is **rejected** and
/// counted ([`Replica::rejected_deltas`]), never a panic: the layer's
/// sequence is the one truth, so the state is rebuilt from it.
///
/// ## Stable-prefix folding
///
/// When the broadcast layer compacts ([`Compactable::stable_base`] grows)
/// it emits nothing — `keep` is absolute, so a fold changes no position.
/// The replica absorbs the entries the fold hands out
/// ([`Compactable::drain_folded`]) into `base_state` (the state machine at
/// absolute index `base_applied`), so replica memory tracks the broadcast
/// layer's instead of the full history. With compaction off,
/// `base_applied` stays 0.
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
    /// `base_state` plus the layer's resident delivered sequence, up to
    /// absolute index `applied`.
    state: S,
    /// Absolute number of delivered entries `state` has absorbed; after
    /// every activation `base_applied` plus the layer's resident length.
    applied: usize,
    next_seq: u64,
    last_output: Option<ReplicaOutput>,
    /// State machine with exactly the folded prefix applied.
    base_state: S,
    /// Absolute length of the folded prefix baked into `base_state`.
    base_applied: usize,
    /// Times the state was rebuilt from `base_state` (rewrites, recovery,
    /// rejected deltas).
    rebuilds: u64,
    /// Deltas that could not be placed (below the fold or beyond the
    /// sequence).
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
    /// whole group of them with [`ec_sim::WorldBuilder`], or deploy one with
    /// [`crate::ClusterBuilder`]):
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

    /// Times the state was rebuilt by replaying the resident sequence over
    /// the base state: once per activation that rewrote the delivered
    /// suffix (possible only while Ω is unstable) or emitted a rejected
    /// delta, and once per durable recovery. Extensions never rebuild.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Delivery deltas rejected because they could not be placed: `keep`
    /// below the folded prefix or beyond the sequence the activation's
    /// earlier deltas left. A correct broadcast layer never emits one.
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

    /// Recomputes `state` as `base_state` plus the layer's resident
    /// sequence and emits an output if the visible state changed.
    fn rebuild(&mut self, ctx: &mut Context<'_, Self>) {
        let mut state = self.base_state.clone();
        let resident = self.broadcast.delivered();
        for m in resident {
            state.apply(m.payload.as_ref());
        }
        self.state = state;
        self.applied = self.base_applied + resident.len();
        self.rebuilds += 1;
        self.emit_output(ctx);
    }

    /// Emits a [`ReplicaOutput`] if the visible state changed since the
    /// last one.
    fn emit_output(&mut self, ctx: &mut Context<'_, Self>) {
        let output = ReplicaOutput {
            applied: self.applied,
            digest: self.state.digest(),
        };
        if self.last_output == Some(output) {
            return;
        }
        // flight-record the newest applied command (one event per visible
        // state change, not per replayed entry)
        if let Some(m) = self.broadcast.delivered().last() {
            let (origin, seq) = (m.id.origin.index() as u32, m.id.seq);
            if let Some(recorder) = self.broadcast.recorder_mut() {
                recorder.applied(origin, seq);
            }
        }
        self.last_output = Some(output);
        ctx.output(output);
    }

    /// Absorbs a broadcast-layer fold into the base state: the broadcast
    /// only folds a globally stable prefix, so the entries it hands out are
    /// final and can be applied permanently. Returns whether the base
    /// advanced.
    fn reconcile_fold(&mut self) -> bool {
        let base_state = &mut self.base_state;
        let drained = self
            .broadcast
            .drain_folded(&mut |m| base_state.apply(m.payload.as_ref()));
        self.base_applied += drained;
        debug_assert_eq!(
            self.base_applied as u64,
            self.broadcast.stable_base(),
            "a fold moved the base without handing its entries out"
        );
        drained > 0
    }

    /// Mirrors a change of the layer's resident sequence — everything from
    /// absolute index `keep` on — into the durable store and checkpoints
    /// when due. A no-op without a store.
    fn persist(&mut self, keep: usize) {
        let Some(store) = self.durable.as_mut() else {
            return;
        };
        let base = self.base_applied as u64;
        let hash = self.broadcast.stable_hash();
        let resident = self.broadcast.delivered();
        store.record_change(base, hash, resident, keep as u64);
        if store.checkpoint_due() {
            let frontier = self.broadcast.stable_frontier();
            let state = self.base_state.snapshot();
            store.checkpoint(base, hash, &frontier, &state, resident, self.next_seq);
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
            .prime_recovery(rec.base, rec.hash, rec.frontier, rec.tail)
        {
            return;
        }
        self.base_state = base_state;
        self.base_applied = usize::try_from(rec.base).unwrap_or(0);
        self.rebuild(ctx);
    }

    fn drive<F>(&mut self, ctx: &mut Context<'_, Self>, f: F)
    where
        F: FnOnce(&mut B, &mut Context<'_, B>),
    {
        let deltas = ctx.nest(&mut self.broadcast, |m| m, f);
        // What the state had absorbed before this activation. A fold moves
        // the base under it: a change that starts there.
        let absorbed = self.applied;
        let mut changed_from = self.reconcile_fold().then_some(absorbed);
        // The deltas only say where the layer's sequence changed; each
        // `keep` is checked against the length the earlier ones left.
        let mut len = absorbed;
        let mut rejected = false;
        for delta in deltas {
            if delta.keep < self.base_applied || delta.keep > len {
                self.rejected_deltas += 1;
                rejected = true;
                continue;
            }
            len = delta.keep + delta.suffix.len();
            changed_from = Some(changed_from.map_or(delta.keep, |from| from.min(delta.keep)));
        }
        if rejected {
            changed_from = Some(self.base_applied);
        }
        let Some(from) = changed_from else {
            return;
        };
        // the resident entries the state has not absorbed yet, unless the
        // activation replaced or folded some it had
        let fresh = absorbed
            .checked_sub(self.base_applied)
            .filter(|_| from >= absorbed && !rejected)
            .and_then(|at| self.broadcast.delivered().get(at..));
        if let Some(fresh) = fresh {
            for m in fresh {
                self.state.apply(m.payload.as_ref());
            }
            self.applied = self.base_applied + self.broadcast.delivered().len();
            self.emit_output(ctx);
        } else {
            self.rebuild(ctx);
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
    use ec_core::types::DeliveryDelta;
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

    /// A broadcast layer scripted by its "peers": each message is one
    /// activation's steps. It owns its delivered sequence, as a real layer
    /// does, and keeps every entry it folded for the checks.
    #[derive(Debug, Default)]
    struct Scripted {
        stable: u64,
        delivered: Vec<AppMessage>,
        folded_out: Vec<AppMessage>,
        retired: Vec<AppMessage>,
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// Applies the delta to the sequence and emits it.
        Emit(DeliveryDelta),
        /// Emits the delta without applying it: one that cannot be placed.
        Bogus(DeliveryDelta),
        /// Folds the resident sequence up to absolute index `base`.
        FoldTo(u64),
    }

    impl Algorithm for Scripted {
        type Msg = Vec<Step>;
        type Input = EtobBroadcast;
        type Output = DeliveryDelta;
        type Fd = ();

        fn on_input(&mut self, _: EtobBroadcast, _: &mut Context<'_, Self>) {}

        fn on_message(&mut self, _: ProcessId, steps: Vec<Step>, ctx: &mut Context<'_, Self>) {
            for step in steps {
                match step {
                    Step::Emit(delta) => {
                        self.delivered
                            .truncate((delta.keep as u64 - self.stable) as usize);
                        self.delivered.extend(delta.suffix.iter().cloned());
                        ctx.output(delta);
                    }
                    Step::Bogus(delta) => ctx.output(delta),
                    Step::FoldTo(base) => {
                        let fold = (base - self.stable) as usize;
                        self.folded_out.clear();
                        self.folded_out.extend(self.delivered.drain(..fold));
                        self.retired.extend(self.folded_out.iter().cloned());
                        self.stable = base;
                    }
                }
            }
        }
    }

    impl Compactable for Scripted {
        fn delivered(&self) -> &[AppMessage] {
            &self.delivered
        }

        fn drain_folded(&mut self, f: &mut dyn FnMut(&AppMessage)) -> usize {
            for m in &self.folded_out {
                f(m);
            }
            let drained = self.folded_out.len();
            self.folded_out.clear();
            drained
        }

        fn stable_base(&self) -> u64 {
            self.stable
        }
    }

    impl Instrumented for Scripted {}

    type ScriptedReplica = Replica<KvStore, Scripted>;

    /// Runs one activation of `steps` and returns what the replica output.
    fn activate(replica: &mut ScriptedReplica, steps: Vec<Step>) -> Vec<ReplicaOutput> {
        let mut actions = ec_sim::Actions::<ScriptedReplica>::new();
        let mut ctx = Context::new(ProcessId::new(0), Time::new(1), 2, (), &mut actions);
        replica.on_message(ProcessId::new(1), steps, &mut ctx);
        actions.outputs
    }

    fn put(seq: u64, key: &str, value: &str) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(1), seq), KvStore::put(key, value))
    }

    #[test]
    fn deltas_extend_rewrite_or_are_rejected_by_where_keep_falls() {
        let mut replica = ScriptedReplica::new(Scripted::default());
        let emit = |keep, suffix: Vec<AppMessage>| vec![Step::Emit(DeliveryDelta { keep, suffix })];
        let bogus =
            |keep, suffix: Vec<AppMessage>| vec![Step::Bogus(DeliveryDelta { keep, suffix })];

        // extension of the empty sequence, then of a longer one
        let out = activate(
            &mut replica,
            emit(0, vec![put(1, "a", "1"), put(2, "b", "2")]),
        );
        assert_eq!(out.last().map(|o| o.applied), Some(2));
        activate(&mut replica, emit(2, vec![put(3, "a", "3")]));
        assert_eq!(
            (replica.applied(), replica.state().get("a")),
            (3, Some("3"))
        );
        assert_eq!(replica.rebuilds(), 0, "extensions never rebuild");

        // rewrite from inside the sequence: entries 1.. are replaced
        let out = activate(&mut replica, emit(1, vec![put(4, "c", "9")]));
        assert_eq!(out.last().map(|o| o.applied), Some(2));
        assert_eq!(replica.rebuilds(), 1);
        let state = replica.state();
        assert_eq!(
            (state.get("a"), state.get("b"), state.get("c")),
            (Some("1"), None, Some("9"))
        );

        // a fold moves the base and shows nothing
        assert!(activate(&mut replica, vec![Step::FoldTo(1)]).is_empty());
        assert_eq!((replica.base_applied(), replica.applied()), (1, 2));
        assert_eq!(replica.base_state.get("a"), Some("1"));

        // below the fold, and beyond the sequence: rejected and rebuilt
        // from the layer's sequence, which did not move
        let before = replica.state().snapshot();
        assert!(activate(&mut replica, bogus(0, vec![put(5, "z", "0")])).is_empty());
        assert!(activate(&mut replica, bogus(5, vec![put(5, "z", "0")])).is_empty());
        assert_eq!((replica.rejected_deltas(), replica.rebuilds()), (2, 3));
        assert_eq!((replica.applied(), replica.state().snapshot()), (2, before));

        // positions stay absolute across the fold
        activate(&mut replica, emit(2, vec![put(6, "d", "4")]));
        assert_eq!(
            (replica.applied(), replica.state().get("d")),
            (3, Some("4"))
        );
        assert_eq!(replica.rebuilds(), 3);
    }

    proptest::proptest! {
        /// After every activation of random extensions, rewrites, folds and
        /// out-of-range deltas, the state is `base_state` plus the layer's
        /// resident sequence replayed, `base_state` is the folded entries
        /// replayed, and only rewrites and rejections rebuild.
        #[test]
        fn the_state_is_the_base_plus_the_resident_sequence_after_every_activation(
            activations in proptest::collection::vec((0u8..5, 0u64..1_000, 0u64..1_000), 1..60),
        ) {
            let mut replica = ScriptedReplica::new(Scripted::default());
            let (mut seq, mut rejected, mut rebuilds) = (0u64, 0u64, 0u64);
            let mut fresh = |n: u64| -> Vec<AppMessage> {
                (0..n)
                    .map(|_| {
                        seq += 1;
                        put(seq, &format!("k{}", seq % 3), &seq.to_string())
                    })
                    .collect()
            };
            for (kind, a, b) in activations {
                let layer = replica.broadcast_layer();
                let (base, end) = (layer.stable, layer.stable + layer.delivered.len() as u64);
                let at = |x: u64| base + x % (end - base + 1);
                let delta = |keep: u64, suffix| DeliveryDelta { keep: keep as usize, suffix };
                let steps = match kind {
                    // an extension, or two in one activation
                    0 => {
                        let first = fresh(1 + a % 3);
                        let second_keep = end + first.len() as u64;
                        let mut steps = vec![Step::Emit(delta(end, first))];
                        if b % 2 == 0 {
                            steps.push(Step::Emit(delta(second_keep, fresh(1 + b % 3))));
                        }
                        steps
                    }
                    // a rewrite anywhere in the resident sequence
                    1 => vec![Step::Emit(delta(at(a), fresh(b % 4)))],
                    // a fold of a resident prefix
                    2 => vec![Step::FoldTo(at(a))],
                    // a delta below the fold or beyond the sequence
                    3 => {
                        let keep = if a % 2 == 0 && base > 0 { b % base } else { end + 1 + b % 3 };
                        vec![Step::Bogus(delta(keep, fresh(1)))]
                    }
                    // an extension, then a rewrite in the same activation
                    _ => {
                        let first = fresh(1 + a % 3);
                        let rewrite_at = base + b % (end + first.len() as u64 - base + 1);
                        vec![
                            Step::Emit(delta(end, first)),
                            Step::Emit(delta(rewrite_at, fresh(b % 3))),
                        ]
                    }
                };
                let absorbed = replica.applied() as u64;
                let min_keep = steps.iter().filter_map(|step| match step {
                    Step::Emit(d) => Some(d.keep as u64),
                    _ => None,
                }).min();
                let bogus = steps.iter().filter(|s| matches!(s, Step::Bogus(_))).count() as u64;
                rejected += bogus;
                if bogus > 0 || min_keep.is_some_and(|keep| keep < absorbed) {
                    rebuilds += 1;
                }
                activate(&mut replica, steps);

                let layer = replica.broadcast_layer();
                let mut expected = replica.base_state.clone();
                for m in &layer.delivered {
                    expected.apply(m.payload.as_ref());
                }
                let folded = KvStore::replay(layer.retired.iter().map(|m| m.payload.as_ref()));
                proptest::prop_assert_eq!(replica.state().snapshot(), expected.snapshot());
                proptest::prop_assert_eq!(replica.base_state.snapshot(), folded.snapshot());
                proptest::prop_assert_eq!(
                    replica.applied(),
                    layer.stable as usize + layer.delivered.len()
                );
                proptest::prop_assert_eq!(replica.base_applied() as u64, layer.stable);
                proptest::prop_assert_eq!(replica.rejected_deltas(), rejected);
                proptest::prop_assert_eq!(replica.rebuilds(), rebuilds);
            }
        }
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
