//! The thread-per-process runtime.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use ec_detectors::{HeartbeatConfig, HeartbeatMsg, HeartbeatOmega};
use ec_sim::{Actions, Algorithm, Context, Metrics, OutputHistory, ProcessId, Time};

use crate::outputs::OutputLog;
use crate::pacer::{Pacer, Turn};

/// Configuration of a [`Runtime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Wall-clock period between `on_timer` calls at each process. The
    /// node loops hold it against a deadline ([`crate::Pacer`]), so it is
    /// the period under load too — not the length of inbox silence that
    /// triggers a call.
    pub tick: Duration,
    /// Heartbeat-based Ω configuration (periods are in ticks).
    pub heartbeat: HeartbeatConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            tick: Duration::from_millis(5),
            heartbeat: HeartbeatConfig {
                period: 2,
                suspect_after: 5,
            },
        }
    }
}

type Channel<A> = (Sender<Envelope<A>>, Receiver<Envelope<A>>);

/// How a process derives the failure-detector value its algorithm queries
/// from the local heartbeat module's current leader estimate: a pure function
/// of `(leader, n)`. The identity map realizes Ω; pairing the leader with a
/// static quorum realizes the Ω + Σ the strongly consistent baseline needs.
type FdDerive<F> = Arc<dyn Fn(ProcessId, usize) -> F + Send + Sync>;

enum Envelope<A: Algorithm> {
    App { from: ProcessId, msg: A::Msg },
    Heartbeat { from: ProcessId, msg: HeartbeatMsg },
    Input(A::Input),
    Crash,
}

/// What a run collected: every output of every process, with the wall-clock
/// milliseconds (since runtime start) at which it was produced, the leader
/// estimates of the heartbeat Ω modules, the application-message counters,
/// and the final automaton state of every process.
pub struct RuntimeReport<A: Algorithm> {
    /// Number of processes the runtime ran.
    pub n: usize,
    /// Application outputs as `(process, elapsed_ms, output)`.
    pub outputs: Vec<(ProcessId, u64, A::Output)>,
    /// Leader estimates as `(process, elapsed_ms, leader)`.
    pub leaders: Vec<(ProcessId, u64, ProcessId)>,
    /// The final automaton of each process, harvested when its thread
    /// stopped. A crashed process contributes the state it had at the crash.
    pub final_states: Vec<Option<A>>,
    /// Application-message counters (heartbeat traffic of the Ω modules is
    /// not counted; `timer_fires` counts the periodic ticks).
    pub metrics: Metrics,
}

impl<A: Algorithm> RuntimeReport<A> {
    /// The last output of a process, if any.
    pub fn last_output_of(&self, p: ProcessId) -> Option<&A::Output> {
        self.outputs
            .iter()
            .rev()
            .find(|(q, _, _)| *q == p)
            .map(|(_, _, o)| o)
    }

    /// The last leader estimate of a process, if any.
    pub fn last_leader_of(&self, p: ProcessId) -> Option<ProcessId> {
        self.leaders
            .iter()
            .rev()
            .find(|(q, _, _)| *q == p)
            .map(|(_, _, l)| *l)
    }

    /// The final automaton state of process `p`.
    pub fn final_state_of(&self, p: ProcessId) -> Option<&A> {
        self.final_states.get(p.index()).and_then(Option::as_ref)
    }

    /// The outputs as an [`OutputHistory`], with wall-clock milliseconds
    /// mapped to [`Time`] values at `ms_per_tick` milliseconds per tick —
    /// the bridge that lets the simulator's history-based checkers and
    /// convergence reports run over a threaded execution.
    pub fn output_history(&self, ms_per_tick: u64) -> OutputHistory<A::Output> {
        let scale = ms_per_tick.max(1);
        let mut history = OutputHistory::new(self.n);
        for (p, ms, out) in &self.outputs {
            history.record(*p, Time::new(ms / scale), out.clone());
        }
        history
    }
}

impl<A: Algorithm> fmt::Debug for RuntimeReport<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeReport")
            .field("n", &self.n)
            .field("outputs", &self.outputs.len())
            .field("leaders", &self.leaders.len())
            .field(
                "final_states",
                &self.final_states.iter().filter(|s| s.is_some()).count(),
            )
            .field("metrics", &self.metrics)
            .finish()
    }
}

struct Shared<A: Algorithm> {
    outputs: Mutex<OutputLog<A::Output>>,
    leaders: Mutex<Vec<(ProcessId, u64, ProcessId)>>,
    final_states: Mutex<Vec<Option<A>>>,
    metrics: Mutex<Metrics>,
    started: Instant,
    stop: AtomicBool,
}

/// A running set of processes executing an [`Algorithm`] as one OS thread
/// each, with the failure-detector value of every step derived from a
/// per-process heartbeat Ω module.
///
/// [`Runtime::spawn`] covers algorithms whose failure detector *is* Ω
/// (`Fd = ProcessId`); [`Runtime::spawn_with_fd`] additionally supports any
/// detector value derivable from the current leader estimate, e.g. the
/// `(leader, quorum)` pairs of the Ω + Σ baseline.
pub struct Runtime<A: Algorithm> {
    n: usize,
    senders: Vec<Sender<Envelope<A>>>,
    shared: Arc<Shared<A>>,
    handles: Vec<JoinHandle<()>>,
}

impl<A: Algorithm> fmt::Debug for Runtime<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("n", &self.n)
            .field("alive_threads", &self.handles.len())
            .finish()
    }
}

impl<A> Runtime<A>
where
    A: Algorithm + Send + 'static,
    A::Msg: Send,
    A::Input: Send,
    A::Output: Send,
{
    /// Spawns `n` processes running the algorithm produced by `factory`,
    /// with each step's failure-detector value computed by `derive` from the
    /// local heartbeat module's current leader estimate and `n`.
    pub fn spawn_with_fd<F, D>(n: usize, config: RuntimeConfig, mut factory: F, derive: D) -> Self
    where
        F: FnMut(ProcessId) -> A,
        D: Fn(ProcessId, usize) -> A::Fd + Send + Sync + 'static,
    {
        assert!(n >= 2, "the system model requires at least two processes");
        let shared = Arc::new(Shared::<A> {
            outputs: Mutex::new(OutputLog::new(n)),
            leaders: Mutex::new(Vec::new()),
            final_states: Mutex::new((0..n).map(|_| None).collect()),
            metrics: Mutex::new(Metrics::new(n)),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        });
        let derive: FdDerive<A::Fd> = Arc::new(derive);
        let channels: Vec<Channel<A>> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Envelope<A>>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let mut handles = Vec::with_capacity(n);
        for (i, (_, receiver)) in channels.into_iter().enumerate() {
            let me = ProcessId::new(i);
            let algorithm = factory(me);
            let peer_senders = senders.clone();
            let shared_ref = Arc::clone(&shared);
            let derive_ref = Arc::clone(&derive);
            handles.push(std::thread::spawn(move || {
                let final_state = process_loop(
                    me,
                    n,
                    algorithm,
                    receiver,
                    peer_senders,
                    Arc::clone(&shared_ref),
                    config,
                    derive_ref,
                );
                shared_ref.final_states.lock()[me.index()] = Some(final_state);
            }));
        }
        Runtime {
            n,
            senders,
            shared,
            handles,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Submits an application input to process `p`.
    pub fn submit(&self, p: ProcessId, input: A::Input) {
        // sending to a crashed process is a no-op, like in the model
        let _ = self.senders[p.index()].send(Envelope::Input(input));
    }

    /// Crashes process `p`: its thread stops taking steps and stops sending
    /// heartbeats, so the other processes' Ω modules eventually elect a new
    /// leader.
    pub fn crash(&self, p: ProcessId) {
        let _ = self.senders[p.index()].send(Envelope::Crash);
    }

    /// The most recent output of process `p`, observed live (without
    /// stopping the run) — how service facades poll replica progress.
    pub fn latest_output_of(&self, p: ProcessId) -> Option<A::Output> {
        self.shared.outputs.lock().latest_of(p).cloned()
    }

    /// A snapshot of every `(process, elapsed_ms, output)` produced so far.
    pub fn outputs_so_far(&self) -> Vec<(ProcessId, u64, A::Output)> {
        self.shared.outputs.lock().all().to_vec()
    }

    /// A snapshot of the application-message counters so far.
    pub fn metrics(&self) -> Metrics {
        self.shared.metrics.lock().clone()
    }

    /// Milliseconds elapsed since the runtime was spawned.
    pub fn elapsed_ms(&self) -> u64 {
        self.shared.started.elapsed().as_millis() as u64
    }

    /// Stops all processes and returns everything they output, together with
    /// the final automaton state of every process.
    pub fn shutdown(self) -> RuntimeReport<A> {
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            let _ = handle.join();
        }
        // One lock at a time: building the report struct-literal-style would
        // hold all four guards simultaneously for the whole statement.
        let outputs = self.shared.outputs.lock().take_all();
        let leaders = std::mem::take(&mut *self.shared.leaders.lock());
        let final_states = std::mem::take(&mut *self.shared.final_states.lock());
        let metrics = self.shared.metrics.lock().clone();
        RuntimeReport {
            n: self.n,
            outputs,
            leaders,
            final_states,
            metrics,
        }
    }
}

impl<A> Runtime<A>
where
    A: Algorithm<Fd = ProcessId> + Send + 'static,
    A::Msg: Send,
    A::Input: Send,
    A::Output: Send,
{
    /// Spawns `n` processes running the algorithm produced by `factory`,
    /// with Ω provided directly by the per-process heartbeat modules.
    pub fn spawn<F>(n: usize, config: RuntimeConfig, factory: F) -> Self
    where
        F: FnMut(ProcessId) -> A,
    {
        Self::spawn_with_fd(n, config, factory, |leader, _n| leader)
    }
}

#[allow(clippy::too_many_arguments)]
fn process_loop<A>(
    me: ProcessId,
    n: usize,
    mut algorithm: A,
    receiver: Receiver<Envelope<A>>,
    senders: Vec<Sender<Envelope<A>>>,
    shared: Arc<Shared<A>>,
    config: RuntimeConfig,
    derive: FdDerive<A::Fd>,
) -> A
where
    A: Algorithm,
{
    let mut omega = HeartbeatOmega::new(me, n, config.heartbeat);
    let mut tick: u64 = 0;

    // helper closures cannot borrow `shared` mutably twice, so keep them as
    // plain functions over locals
    let elapsed_ms = |shared: &Shared<A>| shared.started.elapsed().as_millis() as u64;

    // on_start of the heartbeat module and of the application
    let hb_actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| a.on_start(ctx));
    record_leaders(me, &hb_actions.outputs, &shared, elapsed_ms(&shared));
    dispatch_hb(me, hb_actions, &senders, &shared);
    let fd = derive(omega.leader(), n);
    let app_actions = run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| a.on_start(ctx));
    dispatch_app(me, app_actions, &senders, &shared);

    let mut pacer = Pacer::start(config.tick);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return algorithm;
        }
        let Turn::Recv(wait) = pacer.turn() else {
            tick += 1;
            shared.metrics.lock().timer_fires += 1;
            let hb_actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| a.on_timer(ctx));
            record_leaders(me, &hb_actions.outputs, &shared, elapsed_ms(&shared));
            dispatch_hb(me, hb_actions, &senders, &shared);
            let fd = derive(omega.leader(), n);
            let app_actions =
                run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| a.on_timer(ctx));
            dispatch_app(me, app_actions, &senders, &shared);
            continue;
        };
        match receiver.recv_timeout(wait) {
            Ok(Envelope::Crash) => return algorithm,
            Ok(Envelope::Heartbeat { from, msg }) => {
                let actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
                record_leaders(me, &actions.outputs, &shared, elapsed_ms(&shared));
                dispatch_hb(me, actions, &senders, &shared);
            }
            Ok(Envelope::App { from, msg }) => {
                {
                    let mut metrics = shared.metrics.lock();
                    metrics.messages_delivered += 1;
                    metrics.bytes_delivered += A::wire_size(&msg);
                }
                let fd = derive(omega.leader(), n);
                let actions = run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
                dispatch_app(me, actions, &senders, &shared);
            }
            Ok(Envelope::Input(input)) => {
                shared.metrics.lock().inputs += 1;
                let fd = derive(omega.leader(), n);
                let actions = run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| {
                    a.on_input(input, ctx)
                });
                dispatch_app(me, actions, &senders, &shared);
            }
            // the next turn fires the tick that just came due
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return algorithm,
        }
    }
}

/// Runs one handler invocation of `algorithm` outside the simulator: builds
/// a [`Context`] at logical tick `tick` with failure-detector value `fd`,
/// applies `handler`, and returns the collected [`Actions`] for the caller
/// to dispatch over whatever links it owns. This is the step primitive both
/// the in-process thread runtime and the socket-backed net engine drive
/// their event loops with.
pub fn run_handler<A: Algorithm + ?Sized, F>(
    algorithm: &mut A,
    me: ProcessId,
    n: usize,
    fd: A::Fd,
    tick: u64,
    handler: F,
) -> Actions<A>
where
    F: FnOnce(&mut A, &mut Context<'_, A>),
{
    let mut actions = Actions::<A>::new();
    {
        let mut ctx = Context::new(me, Time::new(tick), n, fd, &mut actions);
        handler(algorithm, &mut ctx);
    }
    actions
}

fn dispatch_app<A: Algorithm>(
    me: ProcessId,
    actions: Actions<A>,
    senders: &[Sender<Envelope<A>>],
    shared: &Arc<Shared<A>>,
) {
    let elapsed = shared.started.elapsed().as_millis() as u64;
    {
        let mut metrics = shared.metrics.lock();
        for (_, msg) in &actions.sends {
            metrics.record_send(me);
            metrics.bytes_sent += A::wire_size(msg);
        }
        metrics.outputs += actions.outputs.len() as u64;
    }
    for (to, msg) in actions.sends {
        if let Some(sender) = senders.get(to.index()) {
            let _ = sender.send(Envelope::App { from: me, msg });
        }
    }
    if !actions.outputs.is_empty() {
        let mut outputs = shared.outputs.lock();
        for out in actions.outputs {
            outputs.push(me, elapsed, out);
        }
    }
    // timer requests are satisfied by the periodic tick
}

fn dispatch_hb<A: Algorithm>(
    me: ProcessId,
    actions: Actions<HeartbeatOmega>,
    senders: &[Sender<Envelope<A>>],
    _shared: &Arc<Shared<A>>,
) {
    for (to, msg) in actions.sends {
        if let Some(sender) = senders.get(to.index()) {
            let _ = sender.send(Envelope::Heartbeat { from: me, msg });
        }
    }
}

fn record_leaders<A: Algorithm>(
    me: ProcessId,
    leaders: &[ProcessId],
    shared: &Arc<Shared<A>>,
    elapsed: u64,
) {
    if leaders.is_empty() {
        return;
    }
    let mut all = shared.leaders.lock();
    for leader in leaders {
        all.push((me, elapsed, *leader));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::etob_omega::{EtobConfig, EtobOmega};
    use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
    use ec_core::types::{materialize, DeliveryDelta, EtobBroadcast, MsgId};
    use ec_sim::ProcessSet;

    /// The final delivered sequence of `p`: its delivery deltas folded in
    /// order.
    fn final_ids<A>(report: &RuntimeReport<A>, p: ProcessId) -> Vec<MsgId>
    where
        A: Algorithm<Output = DeliveryDelta>,
    {
        materialize(&report.output_history(1))
            .last(p)
            .expect("delivered")
            .iter()
            .map(|m| m.id)
            .collect()
    }

    fn config() -> RuntimeConfig {
        RuntimeConfig {
            tick: Duration::from_millis(2),
            heartbeat: HeartbeatConfig {
                period: 2,
                suspect_after: 10,
            },
        }
    }

    /// Polls `done` every few milliseconds until it holds; panics with
    /// `what` after `secs` seconds. The tests wait on what they assert
    /// instead of sleeping a fixed time and hoping the scheduler kept up.
    fn wait_until(secs: u64, what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Length of the sequence `p` has delivered so far, from its deltas.
    fn delivered_len<A>(runtime: &Runtime<A>, p: ProcessId) -> usize
    where
        A: Algorithm<Output = DeliveryDelta> + Send + 'static,
        A::Msg: Send,
        A::Input: Send,
    {
        runtime
            .latest_output_of(p)
            .map_or(0, |delta| delta.keep + delta.suffix.len())
    }

    #[test]
    fn threaded_etob_delivers_everything_in_the_same_order() {
        let n = 3;
        let runtime = Runtime::spawn(n, config(), |p| EtobOmega::new(p, EtobConfig::default()));
        for k in 0..5u64 {
            runtime.submit(
                ProcessId::new((k % 3) as usize),
                EtobBroadcast::new(ProcessId::new((k % 3) as usize), k + 1, vec![k as u8]),
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until(5, "all three delivered 5", || {
            (0..n).all(|i| delivered_len(&runtime, ProcessId::new(i)) == 5)
        });
        let report = runtime.shutdown();
        // every process delivered all five messages, in the same order
        let reference = final_ids(&report, ProcessId::new(0));
        assert_eq!(reference.len(), 5);
        for p in (1..n).map(ProcessId::new) {
            assert_eq!(final_ids(&report, p), reference, "{p} diverged");
        }
        // the heartbeat Ω elected p0 everywhere
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(report.last_leader_of(p), Some(ProcessId::new(0)));
        }
        // the final automaton state is harvested and matches the outputs
        for p in (0..n).map(ProcessId::new) {
            let final_state = report.final_state_of(p).expect("state harvested");
            assert_eq!(final_state.delivered().len(), 5, "{p}");
        }
        // app messages were counted
        assert!(report.metrics.messages_sent > 0);
        assert!(report.metrics.messages_delivered > 0);
        assert_eq!(report.metrics.inputs, 5);
        // the last delta each process emitted ends where its sequence does
        let last = report
            .last_output_of(ProcessId::new(0))
            .expect("p0 delivered");
        assert_eq!(last.keep + last.suffix.len(), reference.len());
    }

    #[test]
    fn leader_crash_is_survived_by_the_threaded_runtime() {
        let n = 3;
        let runtime = Runtime::spawn(n, config(), |p| EtobOmega::new(p, EtobConfig::default()));
        runtime.submit(
            ProcessId::new(1),
            EtobBroadcast::new(ProcessId::new(1), 1, b"before".to_vec()),
        );
        let survivors = [ProcessId::new(1), ProcessId::new(2)];
        wait_until(5, "the survivors delivered the first broadcast", || {
            survivors.iter().all(|p| delivered_len(&runtime, *p) == 1)
        });
        runtime.crash(ProcessId::new(0));
        let origin = ProcessId::new(2);
        runtime.submit(origin, EtobBroadcast::new(origin, 99, b"after".to_vec()));
        // only an update from the leader a process trusts is adopted, so
        // this also waits for the heartbeat Ω to move off the crashed p0
        wait_until(10, "the survivors delivered the post-crash one", || {
            survivors.iter().all(|p| delivered_len(&runtime, *p) == 2)
        });
        let report = runtime.shutdown();
        // the survivors eventually elected p1 and still deliver new messages
        for p in [ProcessId::new(1), ProcessId::new(2)] {
            assert_eq!(report.last_leader_of(p), Some(ProcessId::new(1)), "{p}");
            let history = materialize(&report.output_history(1));
            let delivered = history.last(p).expect("delivered something");
            assert!(
                delivered.iter().any(|m| &m.payload[..] == b"after"),
                "{p} did not deliver the post-crash broadcast"
            );
        }
        assert!(format!("{report:?}").contains("RuntimeReport"));
    }

    #[test]
    fn live_accessors_observe_a_run_in_flight() {
        let n = 2;
        let runtime = Runtime::spawn(n, config(), |p| EtobOmega::new(p, EtobConfig::default()));
        runtime.submit(
            ProcessId::new(0),
            EtobBroadcast::new(ProcessId::new(0), 1, b"live".to_vec()),
        );
        wait_until(5, "p1 delivered", || {
            delivered_len(&runtime, ProcessId::new(1)) == 1
        });
        assert!(!runtime.outputs_so_far().is_empty());
        assert!(runtime.metrics().messages_sent > 0);
        let _ = runtime.elapsed_ms();
        runtime.shutdown();
    }

    #[test]
    fn spawn_with_fd_supplies_leader_and_quorum_to_the_strong_baseline() {
        let n = 3;
        let runtime = Runtime::spawn_with_fd(
            n,
            config(),
            |p| ConsensusTob::new(p, ConsensusTobConfig::default()),
            |leader, n| (leader, ProcessSet::all(n)),
        );
        for k in 0..3u64 {
            let origin = ProcessId::new((k % 3) as usize);
            runtime.submit(
                origin,
                EtobBroadcast::new(origin, k + 1, format!("m{k}").into_bytes()),
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until(10, "the quorum-gated TOB delivered all three", || {
            (0..n).all(|i| delivered_len(&runtime, ProcessId::new(i)) == 3)
        });
        let report = runtime.shutdown();
        // identical delivery order everywhere (strong consistency)
        let reference = final_ids(&report, ProcessId::new(0));
        for p in (1..n).map(ProcessId::new) {
            assert_eq!(final_ids(&report, p), reference, "{p} diverged");
        }
    }

    #[test]
    fn ticks_keep_their_period_under_sustained_input_load() {
        // 1000 op/s for a second at the default 5 ms tick: every inbox sees
        // an event far more often than once per tick, which is exactly when
        // a loop that fires on receive *timeouts* stops firing (< 0.2 of
        // the nominal rate before the pacer; the 0.6 floor leaves a busy CI
        // box its slack)
        let n = 3;
        let config = RuntimeConfig::default();
        let runtime = Runtime::spawn(n, config, |p| EtobOmega::new(p, EtobConfig::default()));
        let started = Instant::now();
        let mut sent = 0u64;
        while started.elapsed() < Duration::from_secs(1) {
            let due = started.elapsed().as_millis() as u64;
            while sent < due {
                let origin = ProcessId::new((sent % 3) as usize);
                runtime.submit(origin, EtobBroadcast::new(origin, sent + 1, vec![0u8; 8]));
                sent += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sent >= 800, "the generator itself fell behind: {sent}");
        let fires_per_node = runtime.metrics().timer_fires as f64 / n as f64;
        let nominal = runtime.elapsed_ms() as f64 / config.tick.as_millis() as f64;
        runtime.shutdown();
        assert!(
            fires_per_node >= 0.6 * nominal,
            "{fires_per_node} fires per node, {nominal} ticks elapsed"
        );
        assert!(fires_per_node <= nominal + 1.0, "ticks replayed in a burst");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn runtime_requires_two_processes() {
        let _ = Runtime::spawn(1, config(), |p| EtobOmega::new(p, EtobConfig::default()));
    }
}
