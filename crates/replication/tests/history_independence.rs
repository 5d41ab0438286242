//! History independence, as a deterministic gate (no wall clock).
//!
//! Delivering an operation must cost what the operation adds, not what the
//! history already holds. Under a stable leader that is an exact count: a
//! run of `N` operations moves exactly `N` entries through each process's
//! delivery deltas (it was ≈ N²/10 when every delta was the whole
//! sequence), calls `StateMachine::apply` exactly `N` times per replica,
//! and never rebuilds a replica's state. Under an Ω that changes its mind
//! the rewrite path must be taken — and must leave the state a fresh replay
//! of the delivered sequence would give.

use std::cell::Cell;

use ec_core::etob_omega::{EtobConfig, EtobMsg, EtobOmega};
use ec_core::types::{AppMessage, Compactable, DeliveryDelta, EtobBroadcast, Instrumented, MsgId};
use ec_detectors::omega::{OmegaOracle, PreStabilization};
use ec_replication::{KvStore, Replica, ReplicaCommand, StateMachine};
use ec_sim::{
    Algorithm, Context, FailureDetector, FailurePattern, NetworkModel, ProcessId, Time, World,
    WorldBuilder,
};

const REPLICAS: usize = 3;

thread_local! {
    /// `apply` calls of every [`Counting`] machine on this thread (a test
    /// runs its whole simulation on its own thread).
    static APPLIES: Cell<usize> = const { Cell::new(0) };
}

/// A key–value store that counts every `apply` it is asked for — replays
/// over a cloned base state included, which is what a rebuild costs.
#[derive(Clone, Debug, Default)]
struct Counting(KvStore);

impl StateMachine for Counting {
    fn apply(&mut self, command: &[u8]) {
        APPLIES.with(|applies| applies.set(applies.get() + 1));
        self.0.apply(command);
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot()
    }
}

/// Algorithm 5 with a tally of what its delivery deltas carried.
struct Tallied {
    inner: EtobOmega,
    deltas: usize,
    suffix_entries: usize,
}

impl Tallied {
    fn new(p: ProcessId) -> Self {
        Tallied {
            inner: EtobOmega::new(p, EtobConfig::default()),
            deltas: 0,
            suffix_entries: 0,
        }
    }

    fn run<F>(&mut self, ctx: &mut Context<'_, Self>, handler: F)
    where
        F: FnOnce(&mut EtobOmega, &mut Context<'_, EtobOmega>),
    {
        for delta in ctx.nest(&mut self.inner, |m| m, handler) {
            self.deltas += 1;
            self.suffix_entries += delta.suffix.len();
            ctx.output(delta);
        }
    }
}

impl Algorithm for Tallied {
    type Msg = EtobMsg;
    type Input = EtobBroadcast;
    type Output = DeliveryDelta;
    type Fd = ProcessId;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        self.run(ctx, |inner, ctx| inner.on_start(ctx));
    }

    fn on_input(&mut self, input: EtobBroadcast, ctx: &mut Context<'_, Self>) {
        self.run(ctx, |inner, ctx| inner.on_input(input, ctx));
    }

    fn on_message(&mut self, from: ProcessId, msg: EtobMsg, ctx: &mut Context<'_, Self>) {
        self.run(ctx, |inner, ctx| inner.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        self.run(ctx, |inner, ctx| inner.on_timer(ctx));
    }

    fn wire_size(msg: &EtobMsg) -> u64 {
        EtobOmega::wire_size(msg)
    }
}

// the sequence is the inner layer's; nothing is folded and nothing
// recorded, so the other defaults are the behaviour
impl Compactable for Tallied {
    fn delivered(&self) -> &[AppMessage] {
        self.inner.delivered()
    }
}
impl Instrumented for Tallied {}

/// Schedules `ops` puts, one per tick from tick 10, round-robin over the
/// replicas; each replica's commands form one session (every command
/// depends on the previous one that entered there).
fn submit_session_chained_puts<A, D>(world: &mut World<A, D>, ops: usize)
where
    A: Algorithm<Input = ReplicaCommand>,
    D: FailureDetector<Output = A::Fd>,
{
    let mut next_seq = [0u64; REPLICAS];
    for k in 0..ops {
        let entry = ProcessId::new(k % REPLICAS);
        let seq = &mut next_seq[entry.index()];
        let deps = if *seq > 0 {
            vec![MsgId::new(entry, *seq)]
        } else {
            Vec::new()
        };
        *seq += 1;
        let put = KvStore::put(&format!("k{}", k % 64), &format!("v{k}"));
        let command = ReplicaCommand::with_deps(put, deps).with_id(MsgId::new(entry, *seq));
        world.schedule_input(entry, command, 10 + k as u64);
    }
}

#[test]
fn a_stable_leader_run_moves_each_entry_once() {
    const N: usize = 4_000;
    let failures = FailurePattern::no_failures(REPLICAS);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut world = WorldBuilder::new(REPLICAS)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .seed(7)
        .build_with(
            |p| Replica::<Counting, Tallied>::new(Tallied::new(p)),
            omega,
        );
    submit_session_chained_puts(&mut world, N);
    world.run_until(10 + N as u64 + 200);
    for p in world.process_ids() {
        let replica = world.algorithm(p);
        assert_eq!(replica.applied(), N, "{p} did not apply everything");
        let layer = replica.broadcast_layer();
        assert_eq!(layer.inner.delivered().len(), N);
        assert_eq!(
            layer.suffix_entries, N,
            "{p}: {} deltas carried {} entries for {N} operations",
            layer.deltas, layer.suffix_entries
        );
        assert_eq!(replica.rebuilds(), 0, "{p} rebuilt its state");
        assert_eq!(replica.rejected_deltas(), 0);
    }
    assert_eq!(
        APPLIES.with(Cell::get),
        REPLICAS * N,
        "apply must run once per operation per replica"
    );
}

#[test]
fn an_unstable_omega_takes_the_rewrite_path_and_ends_in_the_replayed_state() {
    const N: usize = 300;
    let failures = FailurePattern::no_failures(REPLICAS);
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(250))
        .with_pre_stabilization(PreStabilization::RoundRobin { period: 20 });
    let mut world = WorldBuilder::new(REPLICAS)
        .network(NetworkModel::uniform_delay(1, 4))
        .failures(failures)
        .seed(11)
        .build_with(
            |p| Replica::<KvStore, EtobOmega>::new(EtobOmega::new(p, EtobConfig::default())),
            omega,
        );
    submit_session_chained_puts(&mut world, N);
    world.run_until(10 + N as u64 + 1_000);
    let mut rebuilds = 0;
    for p in world.process_ids() {
        let replica = world.algorithm(p);
        assert_eq!(replica.applied(), N, "{p} did not apply everything");
        assert_eq!(replica.rejected_deltas(), 0);
        rebuilds += replica.rebuilds();
        let delivered = replica.broadcast_layer().delivered();
        let replayed = KvStore::replay(delivered.iter().map(|m| m.payload.as_ref()));
        assert_eq!(
            replica.state().snapshot(),
            replayed.snapshot(),
            "{p}: the incrementally maintained state is not the replayed one"
        );
        assert_eq!(
            replica.state().snapshot(),
            world.algorithm(ProcessId::new(0)).state().snapshot(),
            "{p} diverged"
        );
    }
    assert!(
        rebuilds > 0,
        "a rotating leader must rewrite some delivered suffix"
    );
}
