//! The simulation runner: deterministic execution of algorithms over the
//! modeled network, failure pattern and failure detector.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    Actions, Algorithm, Context, FailureDetector, FailurePattern, Metrics, NetworkModel,
    OutputHistory, ProcessId, Time,
};

/// What a process rejoining after a crash–recovery window resumes with.
///
/// [`RecoveryPolicy::RetainState`] models a process whose full state survived
/// the crash on durable storage; [`RecoveryPolicy::ClearState`] models a
/// rejoin from a blank slate (only messages received after the rejoin shape
/// its state). Either way the process's `on_start` handler runs again at the
/// rejoin time, re-arming its timer chains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// The automaton state from just before the crash is retained.
    #[default]
    RetainState,
    /// The automaton is replaced by a freshly constructed one.
    ClearState,
}

/// Builder for a [`World`].
///
/// # Example
///
/// ```
/// use ec_sim::{WorldBuilder, NetworkModel, FailurePattern, NullFd, Algorithm};
///
/// struct Idle;
/// impl Algorithm for Idle {
///     type Msg = ();
///     type Input = ();
///     type Output = ();
///     type Fd = ();
/// }
///
/// let world = WorldBuilder::new(4)
///     .network(NetworkModel::fixed_delay(2))
///     .failures(FailurePattern::no_failures(4))
///     .seed(123)
///     .build_with(|_p| Idle, NullFd);
/// assert_eq!(world.n(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct WorldBuilder {
    n: usize,
    network: NetworkModel,
    failures: FailurePattern,
    seed: u64,
    recovery: RecoveryPolicy,
}

impl WorldBuilder {
    /// Starts building a world of `n` processes with a unit-delay network, no
    /// failures and seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the paper assumes `n ≥ 2`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "the system model requires at least two processes");
        WorldBuilder {
            n,
            network: NetworkModel::default(),
            failures: FailurePattern::no_failures(n),
            seed: 0,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Sets the network model.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the failure pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is over a different number of processes.
    pub fn failures(mut self, failures: FailurePattern) -> Self {
        assert_eq!(
            failures.n(),
            self.n,
            "failure pattern must cover exactly the n processes of the world"
        );
        self.failures = failures;
        self
    }

    /// Sets the seed of the deterministic random source used for link delays.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets what a process rejoining after a crash–recovery window resumes
    /// with (durable state retained, or cleared). Defaults to
    /// [`RecoveryPolicy::RetainState`]. With
    /// [`RecoveryPolicy::ClearState`], the factory passed to
    /// [`WorldBuilder::build_with`] is invoked once more per scripted
    /// recovery of a process to pre-build its replacement automata, so the
    /// factory should be a pure function of the process identifier.
    pub fn recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Builds the world: instantiates one automaton per process via `factory`
    /// and takes the initial `on_start` step of every initially-alive process
    /// at time 0.
    pub fn build_with<A, D, F>(self, mut factory: F, fd: D) -> World<A, D>
    where
        A: Algorithm,
        D: FailureDetector<Output = A::Fd>,
        F: FnMut(ProcessId) -> A,
    {
        let procs: Vec<A> = (0..self.n).map(|i| factory(ProcessId::new(i))).collect();
        // Pre-build the replacement automata clear-state recoveries swap in,
        // so the builder does not have to store the factory.
        let spares: Vec<Vec<A>> = (0..self.n)
            .map(|i| {
                let p = ProcessId::new(i);
                let rejoins = match self.recovery {
                    RecoveryPolicy::RetainState => 0,
                    RecoveryPolicy::ClearState => self
                        .failures
                        .down_windows(p)
                        .iter()
                        .filter(|w| w.until != Time::MAX)
                        .count(),
                };
                (0..rejoins).map(|_| factory(p)).collect()
            })
            .collect();
        let recoveries = self.failures.recoveries();
        let mut world = World {
            n: self.n,
            procs,
            spares,
            recovery: self.recovery,
            fd,
            network: self.network,
            failures: self.failures,
            rng: StdRng::seed_from_u64(self.seed),
            now: Time::ZERO,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            outputs: OutputHistory::new(self.n),
            metrics: Metrics::new(self.n),
            crash_recorded: vec![0; self.n],
            faults: ec_telemetry::EventRing::default(),
        };
        for (p, at) in recoveries {
            world.push_event(at, EventKind::Recover { process: p });
        }
        world.start();
        world
    }
}

enum EventKind<A: Algorithm> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: A::Msg,
        /// `Algorithm::wire_size` of the message, captured at send time.
        bytes: u64,
    },
    Timer {
        process: ProcessId,
    },
    Input {
        process: ProcessId,
        input: A::Input,
    },
    Recover {
        process: ProcessId,
    },
}

/// A deterministic simulation of `n` processes running an [`Algorithm`] with
/// a [`FailureDetector`], over a [`NetworkModel`] and a [`FailurePattern`].
///
/// The world processes events (message deliveries, timer fires, inputs) in
/// global-time order; ties are broken by scheduling order, so a run is a pure
/// function of the builder configuration, the algorithm and the submitted
/// inputs.
pub struct World<A: Algorithm, D: FailureDetector<Output = A::Fd>> {
    n: usize,
    procs: Vec<A>,
    /// Replacement automata for clear-state recoveries, per process, one
    /// consumed per rejoin.
    spares: Vec<Vec<A>>,
    recovery: RecoveryPolicy,
    fd: D,
    network: NetworkModel,
    failures: FailurePattern,
    rng: StdRng,
    now: Time,
    /// Pending events as `(time, seq, slot)` keys, earliest first; `seq`
    /// is unique, so ties at a tick break by scheduling order. A sift moves
    /// a key, not an event.
    queue: BinaryHeap<Reverse<(Time, u64, usize)>>,
    /// The pending events, at the slot their key names; a fired event's
    /// slot goes to `free` for the next one.
    slots: Vec<Option<EventKind<A>>>,
    free: Vec<usize>,
    seq: u64,
    /// The output history `H_O` of the run so far.
    outputs: OutputHistory<A::Output>,
    metrics: Metrics,
    /// Number of down windows per process already counted and recorded.
    crash_recorded: Vec<usize>,
    /// World-level fault events (crashes, recoveries) for the flight
    /// recorder, timestamped by logical tick. Separate from the per-replica
    /// recorders because the crashed process itself cannot record its own
    /// demise.
    faults: ec_telemetry::EventRing,
}

impl<A: Algorithm, D: FailureDetector<Output = A::Fd>> fmt::Debug for World<A, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("n", &self.n)
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("outputs", &self.metrics.outputs)
            .finish_non_exhaustive()
    }
}

impl<A: Algorithm, D: FailureDetector<Output = A::Fd>> World<A, D> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The identifiers of all processes.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.n).map(ProcessId::new)
    }

    /// Current global time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The output history `H_O` of the run so far: what each process
    /// output, and when — the record the specification checkers read.
    pub fn output_history(&self) -> &OutputHistory<A::Output> {
        &self.outputs
    }

    /// Aggregate counters of the run so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The failure pattern of the run.
    pub fn failures(&self) -> &FailurePattern {
        &self.failures
    }

    /// World-level fault events (crashes and recoveries) recorded so far,
    /// oldest first, for the flight recorder — the per-replica recorders
    /// cannot see a crash from inside the crashed process.
    pub fn fault_events(&self) -> Vec<ec_telemetry::Event> {
        self.faults.events()
    }

    /// The automaton state of process `p` (for inspection in tests).
    pub fn algorithm(&self, p: ProcessId) -> &A {
        &self.procs[p.index()]
    }

    /// The failure detector driving the run.
    pub fn fd(&self) -> &D {
        &self.fd
    }

    /// Mutable access to the failure detector (e.g. to extract a recorded
    /// history after the run).
    pub fn fd_mut(&mut self) -> &mut D {
        &mut self.fd
    }

    /// Schedules an application input for process `p` at absolute time `at`.
    ///
    /// Inputs scheduled in the past are delivered at the current time.
    pub fn schedule_input(&mut self, p: ProcessId, input: A::Input, at: u64) {
        let time = Time::new(at).max(self.now);
        self.push_event(time, EventKind::Input { process: p, input });
    }

    /// Submits an application input to process `p` at the current time.
    pub fn submit(&mut self, p: ProcessId, input: A::Input) {
        self.schedule_input(p, input, self.now.as_u64());
    }

    /// Executes events until the next event would occur after time `t`
    /// (inclusive), then advances the clock to `t`.
    pub fn run_until(&mut self, t: u64) {
        let limit = Time::new(t);
        while let Some(Reverse((time, _, _))) = self.queue.peek() {
            if *time > limit {
                break;
            }
            self.step();
        }
        self.now = self.now.max(limit);
    }

    /// Executes the single next pending event, if any. Returns `false` when
    /// the event queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse((time, _, slot))) = self.queue.pop() else {
            return false;
        };
        let kind = self
            .slots
            .get_mut(slot)
            .and_then(Option::take)
            .expect("every queued key names a pending event");
        self.free.push(slot);
        debug_assert!(time >= self.now, "events must be processed in order");
        self.record_crashes_up_to(time);
        self.now = time;
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                bytes,
            } => {
                if !self.failures.is_alive(to, self.now) {
                    self.metrics.messages_dropped += 1;
                } else {
                    self.metrics.messages_delivered += 1;
                    self.metrics.bytes_delivered += bytes;
                    self.execute(to, |alg, ctx| alg.on_message(from, msg, ctx));
                }
            }
            EventKind::Timer { process } => {
                if self.failures.is_alive(process, self.now) {
                    self.metrics.timer_fires += 1;
                    self.execute(process, |alg, ctx| alg.on_timer(ctx));
                }
            }
            EventKind::Input { process, input } => {
                if self.failures.is_alive(process, self.now) {
                    self.metrics.inputs += 1;
                    self.execute(process, |alg, ctx| alg.on_input(input, ctx));
                }
            }
            EventKind::Recover { process } => {
                if self.failures.is_alive(process, self.now) {
                    if self.recovery == RecoveryPolicy::ClearState {
                        if let Some(fresh) = self.spares[process.index()].pop() {
                            self.procs[process.index()] = fresh;
                        }
                    }
                    self.faults.record(ec_telemetry::Event {
                        at: self.now.as_u64(),
                        kind: ec_telemetry::EventKind::Recovered,
                        origin: process.index() as u32,
                        seq: 0,
                    });
                    self.metrics.recoveries += 1;
                    // rejoining runs the start handler again, re-arming the
                    // process's timer chains (its pending timers fired while
                    // it was down and were skipped)
                    self.execute(process, |alg, ctx| alg.on_start(ctx));
                }
            }
        }
        true
    }

    fn start(&mut self) {
        for i in 0..self.n {
            let p = ProcessId::new(i);
            if self.failures.is_alive(p, Time::ZERO) {
                self.execute(p, |alg, ctx| alg.on_start(ctx));
            }
        }
        self.record_crashes_up_to(Time::ZERO);
    }

    fn execute<F>(&mut self, p: ProcessId, handler: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A>),
    {
        self.metrics.steps += 1;
        let fd_value = self.fd.query(p, self.now);
        let mut actions = Actions::<A>::new();
        {
            let mut ctx = Context::new(p, self.now, self.n, fd_value, &mut actions);
            handler(&mut self.procs[p.index()], &mut ctx);
        }
        self.apply_actions(p, actions);
    }

    fn apply_actions(&mut self, p: ProcessId, actions: Actions<A>) {
        for (to, msg) in actions.sends {
            let bytes = A::wire_size(&msg);
            self.metrics.record_send(p);
            self.metrics.bytes_sent += bytes;
            let [Some(first), second] = self.network.transmit(p, to, self.now, &mut self.rng)
            else {
                self.metrics.faults_dropped += 1;
                continue;
            };
            let deliver = |msg| EventKind::Deliver {
                from: p,
                to,
                msg,
                bytes,
            };
            match second {
                Some(second) => {
                    self.metrics.faults_duplicated += 1;
                    self.push_event(first, deliver(msg.clone()));
                    self.push_event(second, deliver(msg));
                }
                None => self.push_event(first, deliver(msg)),
            }
        }
        for out in actions.outputs {
            self.outputs.record(p, self.now, out);
            self.metrics.outputs += 1;
        }
        for delay in actions.timers {
            self.push_event(self.now + delay, EventKind::Timer { process: p });
        }
    }

    fn push_event(&mut self, time: Time, kind: EventKind<A>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.free.pop().unwrap_or(self.slots.len());
        match self.slots.get_mut(slot) {
            Some(entry) => *entry = Some(kind),
            None => self.slots.push(Some(kind)),
        }
        self.queue.push(Reverse((time, seq, slot)));
    }

    fn record_crashes_up_to(&mut self, t: Time) {
        for i in 0..self.n {
            let p = ProcessId::new(i);
            let windows = self.failures.down_windows(p);
            while let Some(w) = windows.get(self.crash_recorded[i]) {
                if w.from > t {
                    break;
                }
                self.crash_recorded[i] += 1;
                self.metrics.crashes += 1;
                self.faults.record(ec_telemetry::Event {
                    at: w.from.as_u64(),
                    kind: ec_telemetry::EventKind::Crashed,
                    origin: p.index() as u32,
                    seq: 0,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkModel, NullFd, PartitionSpec, ProcessSet};
    use ec_telemetry::EventKind::{Crashed, Recovered};

    /// The fault-ring event of process `origin` crashing or recovering.
    fn fault(kind: ec_telemetry::EventKind, origin: u32, at: u64) -> ec_telemetry::Event {
        ec_telemetry::Event {
            at,
            kind,
            origin,
            seq: 0,
        }
    }

    /// Relay: process 0 broadcasts its input; everyone outputs what they get.
    #[derive(Default)]
    struct Relay {
        seen: Vec<u32>,
    }

    impl Algorithm for Relay {
        type Msg = u32;
        type Input = u32;
        type Output = Vec<u32>;
        type Fd = ();

        fn on_input(&mut self, input: u32, ctx: &mut Context<'_, Self>) {
            ctx.broadcast(input);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, Self>) {
            self.seen.push(msg);
            ctx.output(self.seen.clone());
        }

        fn wire_size(_msg: &u32) -> u64 {
            4
        }
    }

    fn relay_world(n: usize) -> World<Relay, NullFd> {
        WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .build_with(|_p| Relay::default(), NullFd)
    }

    #[test]
    fn inputs_are_broadcast_and_delivered_to_everyone() {
        let mut w = relay_world(3);
        w.submit(ProcessId::new(0), 7);
        w.run_until(100);
        for p in w.process_ids() {
            assert_eq!(w.output_history().last(p), Some(&vec![7]));
        }
        assert_eq!(w.metrics().messages_sent, 3);
        assert_eq!(w.metrics().messages_delivered, 3);
        // wire-byte accounting uses the algorithm's `wire_size`
        assert_eq!(w.metrics().bytes_sent, 12);
        assert_eq!(w.metrics().bytes_delivered, 12);
    }

    #[test]
    fn bytes_to_crashed_destinations_are_sent_but_not_delivered() {
        let failures = FailurePattern::no_failures(3).with_crash(ProcessId::new(2), Time::new(5));
        let mut w = WorldBuilder::new(3)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .build_with(|_p| Relay::default(), NullFd);
        w.schedule_input(ProcessId::new(0), 9, 10);
        w.run_until(100);
        assert_eq!(w.metrics().bytes_sent, 12);
        assert_eq!(w.metrics().bytes_delivered, 8, "p2's copy was dropped");
    }

    #[test]
    fn delivery_respects_fixed_delay() {
        let mut w = relay_world(2);
        w.schedule_input(ProcessId::new(0), 1, 10);
        w.run_until(100);
        // sent at t=10, fixed delay 2 → delivered, and output, at t=12
        assert_eq!(
            w.output_history().outputs(ProcessId::new(1)),
            [(Time::new(12), vec![1])]
        );
    }

    #[test]
    fn crashed_processes_do_not_take_steps() {
        let failures = FailurePattern::no_failures(3).with_crash(ProcessId::new(2), Time::new(5));
        let mut w = WorldBuilder::new(3)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .build_with(|_p| Relay::default(), NullFd);
        w.schedule_input(ProcessId::new(0), 9, 10);
        w.run_until(100);
        assert_eq!(w.output_history().last(ProcessId::new(1)), Some(&vec![9]));
        assert_eq!(w.output_history().last(ProcessId::new(2)), None);
        assert_eq!(w.metrics().messages_dropped, 1);
        // the crash itself is counted and recorded
        assert_eq!(w.metrics().crashes, 1);
        assert_eq!(w.fault_events(), [fault(Crashed, 2, 5)]);
    }

    #[test]
    fn inputs_to_crashed_processes_are_ignored() {
        let failures = FailurePattern::no_failures(2).with_crash(ProcessId::new(0), Time::new(1));
        let mut w = WorldBuilder::new(2)
            .failures(failures)
            .build_with(|_p| Relay::default(), NullFd);
        w.schedule_input(ProcessId::new(0), 5, 10);
        w.run_until(50);
        assert_eq!(w.metrics().inputs, 0);
        assert_eq!(w.metrics().messages_sent, 0);
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let run = |seed| {
            let mut w = WorldBuilder::new(4)
                .network(NetworkModel::uniform_delay(1, 10))
                .seed(seed)
                .build_with(|_p| Relay::default(), NullFd);
            w.submit(ProcessId::new(0), 1);
            w.submit(ProcessId::new(1), 2);
            w.run_until(200);
            (w.output_history().clone(), w.metrics().clone())
        };
        assert_eq!(run(7), run(7));
        // different seeds give different interleavings (with high probability
        // for this configuration; this is a fixed, known-good pair)
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn partition_blocks_cross_group_messages_until_heal() {
        let minority: ProcessSet = [0].into_iter().collect();
        let net = NetworkModel::fixed_delay(1).with_partition(
            Time::new(0),
            Time::new(50),
            PartitionSpec::isolate(minority, 2),
        );
        let mut w = WorldBuilder::new(2)
            .network(net)
            .build_with(|_p| Relay::default(), NullFd);
        w.schedule_input(ProcessId::new(0), 3, 5);
        w.run_until(200);
        // p1 eventually gets the message (reliable links), but only after heal
        let [(delivery, seen)] = w.output_history().outputs(ProcessId::new(1)) else {
            panic!("message delivered, once")
        };
        assert!(*delivery >= Time::new(50));
        assert_eq!(*seen, vec![3]);
    }

    #[test]
    fn step_returns_false_when_queue_is_empty() {
        let mut w = WorldBuilder::new(2).build_with(|_p| Relay::default(), NullFd);
        // Relay's on_start does nothing, so there are no events at all.
        assert!(!w.step());
    }

    #[test]
    fn lossy_links_drop_messages_and_count_them() {
        let net = NetworkModel::fixed_delay(2).with_faults(
            Time::ZERO,
            Time::new(1_000),
            crate::LinkScope::All,
            crate::LinkFaults::new(0.999, 0.0, 0),
        );
        let mut w = WorldBuilder::new(3)
            .network(net)
            .build_with(|_p| Relay::default(), NullFd);
        w.submit(ProcessId::new(0), 7);
        w.run_until(100);
        // the self-copy always arrives; the two remote copies are (almost
        // surely, and deterministically for this seed) lost
        assert_eq!(w.metrics().messages_sent, 3);
        assert_eq!(w.metrics().faults_dropped, 2);
        assert_eq!(w.metrics().messages_delivered, 1);
        assert_eq!(w.output_history().last(ProcessId::new(1)), None);
        assert_eq!(w.output_history().last(ProcessId::new(0)), Some(&vec![7]));
    }

    #[test]
    fn duplicated_messages_are_delivered_twice_and_counted() {
        let net = NetworkModel::fixed_delay(2).with_faults(
            Time::ZERO,
            Time::new(1_000),
            crate::LinkScope::All,
            crate::LinkFaults::new(0.0, 1.0, 0),
        );
        let mut w = WorldBuilder::new(2)
            .network(net)
            .build_with(|_p| Relay::default(), NullFd);
        w.submit(ProcessId::new(0), 5);
        w.run_until(100);
        // p1's copy is duplicated (the self-link is exempt), so p1 sees the
        // value twice — at-least-once delivery is now observable
        assert_eq!(w.metrics().faults_duplicated, 1);
        assert_eq!(
            w.output_history().last(ProcessId::new(1)),
            Some(&vec![5, 5])
        );
    }

    #[test]
    fn recovered_processes_take_steps_again() {
        let failures = FailurePattern::no_failures(2).with_crash_recovery(
            ProcessId::new(1),
            Time::new(5),
            Time::new(50),
        );
        let mut w = WorldBuilder::new(2)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .build_with(|_p| Relay::default(), NullFd);
        // sent while p1 is down: the delivery is dropped
        w.schedule_input(ProcessId::new(0), 1, 10);
        // sent after p1 rejoined: delivered
        w.schedule_input(ProcessId::new(0), 2, 60);
        w.run_until(200);
        assert_eq!(w.metrics().crashes, 1);
        assert_eq!(w.metrics().recoveries, 1);
        assert_eq!(w.metrics().messages_dropped, 1);
        assert_eq!(w.output_history().last(ProcessId::new(1)), Some(&vec![2]));
        assert_eq!(
            w.fault_events(),
            [fault(Crashed, 1, 5), fault(Recovered, 1, 50)]
        );
    }

    /// An algorithm that outputs its lifetime step count — distinguishes
    /// retained from cleared state across a recovery.
    #[derive(Default)]
    struct StepCounter {
        steps: u32,
    }
    impl Algorithm for StepCounter {
        type Msg = ();
        type Input = ();
        type Output = u32;
        type Fd = ();
        fn on_input(&mut self, _input: (), ctx: &mut Context<'_, Self>) {
            self.steps += 1;
            ctx.output(self.steps);
        }
    }

    #[test]
    fn recovery_policy_selects_retained_or_cleared_state() {
        let run = |policy: RecoveryPolicy| {
            let failures = FailurePattern::no_failures(2).with_crash_recovery(
                ProcessId::new(0),
                Time::new(20),
                Time::new(30),
            );
            let mut w = WorldBuilder::new(2)
                .failures(failures)
                .recovery_policy(policy)
                .build_with(|_p| StepCounter::default(), NullFd);
            w.schedule_input(ProcessId::new(0), (), 10);
            w.schedule_input(ProcessId::new(0), (), 50);
            w.run_until(100);
            *w.output_history().last(ProcessId::new(0)).expect("output")
        };
        assert_eq!(run(RecoveryPolicy::RetainState), 2, "state survives");
        assert_eq!(run(RecoveryPolicy::ClearState), 1, "state is wiped");
    }

    /// An algorithm that outputs every input it is given.
    struct Echo;
    impl Algorithm for Echo {
        type Msg = ();
        type Input = u32;
        type Output = u32;
        type Fd = ();
        fn on_input(&mut self, input: u32, ctx: &mut Context<'_, Self>) {
            ctx.output(input);
        }
    }

    #[test]
    fn same_tick_events_fire_in_scheduling_order_across_slot_reuse() {
        let mut w = WorldBuilder::new(2).build_with(|_p| Echo, NullFd);
        let p = ProcessId::new(0);
        // (tick, value) in scheduling order; the second round reuses the
        // slots the first one freed, last freed first
        let rounds: [Vec<(u64, u32)>; 2] = [
            (0..8).map(|v| (10 + u64::from(v % 3), v)).collect(),
            (8..30).map(|v| (60 - u64::from(v % 2), v)).collect(),
        ];
        let mut expected = Vec::new();
        for (round, until) in rounds.iter().zip([50, 100]) {
            for &(tick, v) in round {
                w.schedule_input(p, v, tick);
            }
            let mut order = round.clone();
            order.sort_by_key(|&(tick, _)| tick); // stable: ties keep scheduling order
            expected.extend(order.into_iter().map(|(_, v)| v));
            w.run_until(until);
        }
        let fired: Vec<u32> = w
            .output_history()
            .outputs(p)
            .iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(fired, expected);
        assert_eq!(
            w.slots.len(),
            22,
            "the second round reused the first's 8 slots"
        );
    }

    /// Every process re-arms a one-tick timer and broadcasts at each fire.
    struct Chatter;
    impl Algorithm for Chatter {
        type Msg = ();
        type Input = ();
        type Output = ();
        type Fd = ();
        fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(1);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
            ctx.broadcast(());
            ctx.set_timer(1);
        }
    }

    #[test]
    fn the_slot_table_never_outgrows_the_pending_events() {
        let mut w = WorldBuilder::new(3)
            .network(NetworkModel::uniform_delay(1, 6))
            .seed(3)
            .build_with(|_p| Chatter, NullFd);
        let mut most_pending = w.queue.len();
        while w.metrics().steps < 10_000 {
            assert!(w.step());
            most_pending = most_pending.max(w.queue.len());
        }
        assert!(
            w.slots.len() <= most_pending,
            "{} slots for at most {most_pending} pending events",
            w.slots.len()
        );
        assert_eq!(
            w.slots.iter().filter(|slot| slot.is_some()).count(),
            w.queue.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn worlds_require_two_processes() {
        let _ = WorldBuilder::new(1);
    }

    #[test]
    #[should_panic(expected = "exactly the n processes")]
    fn mismatched_failure_pattern_panics() {
        let _ = WorldBuilder::new(3).failures(FailurePattern::no_failures(2));
    }
}
