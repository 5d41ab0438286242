//! The driver side of a real-time run: launch the nodes over a
//! [`Transport`], feed them, look at them, crash and restart them, stop them.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use ec_detectors::HeartbeatConfig;
use ec_sim::{Algorithm, Metrics, OutputHistory, ProcessId, Time};

use crate::clock::{sleep_ms, Stopwatch};
use crate::node::{node_loop, Event, Links};

/// Configuration of a [`Runtime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Wall-clock period between `on_timer` calls at each process. The
    /// node loop holds it against a deadline ([`crate::Pacer`]), so it is
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

/// How long the driver waits for a live node to get through its inbox: to
/// say goodbye at a stop before the stop flag ends it wherever it is, or to
/// answer a [`Runtime::look`].
pub const GOODBYE_WAIT_MS: u64 = 2_000;

/// How a process derives the failure-detector value its algorithm queries
/// from the local heartbeat module's current leader estimate: a pure function
/// of `(leader, n)`. The identity map realizes Ω; pairing the leader with a
/// static quorum realizes the Ω + Σ the strongly consistent baseline needs.
pub(crate) type FdDerive<F> = Arc<dyn Fn(ProcessId, usize) -> F + Send + Sync>;

/// What the driver, the node threads and a transport's own threads share
/// during one run: each node's inbox, the output record, the counters, the
/// run's clock and its stop flag.
pub struct Hub<A: Algorithm> {
    /// The current incarnation's event sender per node; a restart swaps in
    /// a fresh one, which redirects every live link without reconnecting.
    inboxes: Vec<Mutex<Option<Sender<Event<A>>>>>,
    /// Raised when a node's current incarnation has said goodbye.
    goodbyes: Vec<AtomicBool>,
    /// The run's output history, stamped in milliseconds of its clock.
    pub(crate) history: Mutex<OutputHistory<A::Output>>,
    leaders: Mutex<Vec<(ProcessId, u64, ProcessId)>>,
    pub(crate) metrics: Mutex<Metrics>,
    malformed: AtomicU64,
    stopwatch: Stopwatch,
    stop: AtomicBool,
}

impl<A: Algorithm> fmt::Debug for Hub<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hub")
            .field("n", &self.n())
            .finish_non_exhaustive()
    }
}

impl<A: Algorithm> Hub<A> {
    /// The hub of a run of `n` nodes, none of them started yet.
    pub(crate) fn new(n: usize) -> Self {
        Hub {
            inboxes: (0..n).map(|_| Mutex::new(None)).collect(),
            goodbyes: (0..n).map(|_| AtomicBool::new(false)).collect(),
            history: Mutex::new(OutputHistory::new(n)),
            leaders: Mutex::new(Vec::new()),
            metrics: Mutex::new(Metrics::new(n)),
            malformed: AtomicU64::new(0),
            stopwatch: Stopwatch::start(),
            stop: AtomicBool::new(false),
        }
    }

    /// Number of nodes in the run.
    pub fn n(&self) -> usize {
        self.inboxes.len()
    }

    /// Puts `event` in the inbox of node `p`'s current incarnation. Returns
    /// `false` if there is none to take it (a crashed node swallows its
    /// traffic, like the model's crashed process).
    pub fn send(&self, p: ProcessId, event: Event<A>) -> bool {
        // cloned out of the slot, so nothing is sent under its lock
        let sender = self.inboxes.get(p.index()).and_then(|s| s.lock().clone());
        sender.is_some_and(|sender| sender.send(event).is_ok())
    }

    /// Records an output of node `p`, stamped with the run's clock. A `p`
    /// that is no node of the run is ignored rather than indexed: the node
    /// loop records under its own id, but a bad id must not panic whichever
    /// thread holds the hub.
    pub(crate) fn record_output(&self, p: ProcessId, output: A::Output) {
        let mut history = self.history.lock();
        // read under the lock: stamps are monotone in the order recorded,
        // whichever threads record for `p`
        let elapsed = Time::new(self.stopwatch.elapsed_ms());
        if p.index() < history.n() {
            history.record(p, elapsed, output);
        }
    }

    /// Counts one piece of inbound data rejected as malformed.
    pub fn count_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::SeqCst);
    }

    /// Notes that node `p` has shut down in order and that every output it
    /// produced before has been recorded.
    pub(crate) fn goodbye(&self, p: ProcessId) {
        if let Some(flag) = self.goodbyes.get(p.index()) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    pub(crate) fn said_goodbye(&self, p: ProcessId) -> bool {
        let flag = self.goodbyes.get(p.index());
        flag.is_none_or(|flag| flag.load(Ordering::SeqCst))
    }

    /// Whether the run has been told to stop: every thread working for it
    /// exits at its next turn.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    pub(crate) fn record_leaders(&self, p: ProcessId, leaders: &[ProcessId]) {
        if !leaders.is_empty() {
            let elapsed = self.stopwatch.elapsed_ms();
            let mut all = self.leaders.lock();
            all.extend(leaders.iter().map(|leader| (p, elapsed, *leader)));
        }
    }

    /// Gives node `p` a fresh inbox and returns its receiving end.
    fn open_inbox(&self, p: ProcessId) -> Receiver<Event<A>> {
        let (sender, receiver) = unbounded();
        if let (Some(slot), Some(goodbye)) =
            (self.inboxes.get(p.index()), self.goodbyes.get(p.index()))
        {
            *slot.lock() = Some(sender);
            goodbye.store(false, Ordering::SeqCst);
        }
        receiver
    }
}

/// What genuinely differs between the substrates a real-time run can use:
/// how an incarnation's links to its peers are opened and what has to be
/// torn down. Everything else — the node loop, the bookkeeping, how a
/// driver event reaches a node (straight into its inbox), crash and
/// restart — is [`Runtime`]'s and the same for all.
pub trait Transport<A: Algorithm>: Sized {
    /// The node-side half: one incarnation's way out to its peers.
    type Links: Links<A> + Send + 'static;

    /// Sets up what must exist before any node runs.
    fn bind(hub: &Arc<Hub<A>>) -> io::Result<Self>;

    /// Opens the links of a fresh incarnation of node `p`, whose inbox the
    /// hub has just renewed.
    fn open(&mut self, p: ProcessId, hub: &Arc<Hub<A>>) -> io::Result<Self::Links>;

    /// Tears the transport down once the stop flag is up and every node
    /// thread has been joined.
    fn close(&mut self) {}

    /// The socket address node `p` listens on, if nodes have addresses.
    fn addr(&self, _p: ProcessId) -> Option<SocketAddr> {
        None
    }

    /// Asks node `p`, over the transport's own wire, for a text rendering
    /// of its live metrics. `None` if the transport has no such wire.
    fn scrape(&self, _p: ProcessId) -> Option<String> {
        None
    }
}

/// A running set of processes executing an [`Algorithm`] as one OS thread
/// each over the transport `T`, with the failure-detector value of every
/// step derived from a per-process heartbeat Ω module.
pub struct Runtime<A: Algorithm, T> {
    hub: Arc<Hub<A>>,
    transport: T,
    config: RuntimeConfig,
    factory: Box<dyn FnMut(ProcessId) -> A + Send>,
    derive: FdDerive<A::Fd>,
    /// The thread of each node's live incarnation, which returns the
    /// automaton when it stops; `None` while the node is down.
    handles: Vec<Option<JoinHandle<A>>>,
    /// The automaton of each node's last stopped incarnation.
    final_states: Vec<Option<A>>,
    /// How many outputs of each node the record held when the node's
    /// current incarnation started: what its predecessors said.
    inherited: Vec<usize>,
}

impl<A: Algorithm, T> fmt::Debug for Runtime<A, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = self.handles.iter().flatten().count();
        f.debug_struct("Runtime")
            .field("n", &self.handles.len())
            .field("live", &live)
            .finish_non_exhaustive()
    }
}

impl<A: Algorithm, T> Runtime<A, T> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.handles.len()
    }

    /// Whether node `p` is down (crashed and not restarted).
    pub fn is_down(&self, p: ProcessId) -> bool {
        matches!(self.handles.get(p.index()), Some(None))
    }

    /// The most recent output of process `p`'s current incarnation (`None`
    /// until it has output, whatever its predecessors said), read off the
    /// record in O(1) without a turn of `p`'s inbox — how service facades
    /// poll replica progress.
    pub fn latest_output_of(&self, p: ProcessId) -> Option<A::Output> {
        let inherited = *self.inherited.get(p.index())?;
        let history = self.hub.history.lock();
        let own = history.outputs(p).get(inherited..)?;
        own.last().map(|(_, output)| output.clone())
    }

    /// Runs `f` on the output history so far, timed in milliseconds since
    /// launch, without copying it. `f` runs under the lock every node
    /// thread takes to record an output, so it must only read: no call
    /// back into the runtime, no I/O.
    pub fn with_outputs<R>(&self, f: impl FnOnce(&OutputHistory<A::Output>) -> R) -> R {
        f(&self.hub.history.lock())
    }

    /// Inbound data the transport rejected as malformed so far (always 0
    /// where there is no wire to corrupt).
    pub fn malformed(&self) -> u64 {
        self.hub.malformed.load(Ordering::SeqCst)
    }

    /// A snapshot of the application-message counters so far (heartbeat
    /// traffic is not counted; `timer_fires` counts the periodic ticks).
    pub fn metrics(&self) -> Metrics {
        self.hub.metrics.lock().clone()
    }

    /// Leader estimates of the heartbeat Ω modules so far as
    /// `(process, elapsed_ms, leader)`, one entry per change.
    pub fn leaders(&self) -> Vec<(ProcessId, u64, ProcessId)> {
        self.hub.leaders.lock().clone()
    }

    /// Milliseconds elapsed since the runtime was launched.
    pub fn elapsed_ms(&self) -> u64 {
        self.hub.stopwatch.elapsed_ms()
    }
}

impl<A, T> Runtime<A, T>
where
    A: Algorithm + Send + 'static,
    A::Msg: Send,
    A::Input: Send,
    A::Output: Send,
    T: Transport<A>,
{
    /// Launches `n` processes running the algorithm produced by `factory`
    /// (called again for every restarted incarnation), with each step's
    /// failure-detector value computed by `derive` from the local heartbeat
    /// module's current leader estimate and `n`.
    ///
    /// If the transport cannot be set up, what was started is stopped again
    /// and the error returned.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the system model requires two processes).
    pub fn launch<F, D>(n: usize, config: RuntimeConfig, factory: F, derive: D) -> io::Result<Self>
    where
        F: FnMut(ProcessId) -> A + Send + 'static,
        D: Fn(ProcessId, usize) -> A::Fd + Send + Sync + 'static,
    {
        assert!(n >= 2, "the system model requires at least two processes");
        let hub = Arc::new(Hub::new(n));
        let mut runtime = Runtime {
            transport: T::bind(&hub)?,
            hub,
            config,
            factory: Box::new(factory),
            derive: Arc::new(derive),
            handles: (0..n).map(|_| None).collect(),
            final_states: (0..n).map(|_| None).collect(),
            inherited: vec![0; n],
        };
        for p in (0..n).map(ProcessId::new) {
            if let Err(err) = runtime.start(p) {
                runtime.stop();
                return Err(err);
            }
        }
        Ok(runtime)
    }

    /// Starts one incarnation of node `p`: fresh inbox, fresh links, fresh
    /// automaton, and a thread running the node loop.
    fn start(&mut self, p: ProcessId) -> io::Result<()> {
        let inbox = self.hub.open_inbox(p);
        if let Some(inherited) = self.inherited.get_mut(p.index()) {
            *inherited = self.hub.history.lock().outputs(p).len();
        }
        let links = self.transport.open(p, &self.hub)?;
        let algorithm = (self.factory)(p);
        let (hub, derive, config) = (Arc::clone(&self.hub), Arc::clone(&self.derive), self.config);
        let handle = std::thread::spawn(move || {
            node_loop(p, algorithm, inbox, links, &hub, config, &derive)
        });
        if let Some(slot) = self.handles.get_mut(p.index()) {
            *slot = Some(handle);
        }
        Ok(())
    }

    /// The transport, for what only it can answer (addresses, scrapes).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Submits an application input to process `p`; a crashed process
    /// swallows it, like in the model.
    pub fn submit(&mut self, p: ProcessId, input: A::Input) {
        self.hub.send(p, Event::Input(input));
    }

    /// Runs `f` against the automaton of process `p` and returns what it
    /// saw: between two steps of a live process, queued behind what its
    /// inbox already holds; at once, against the automaton its last
    /// incarnation left behind, for one that is down. `None` if there is
    /// nothing to ask (the thread panicked) or no answer within
    /// [`GOODBYE_WAIT_MS`]; an `f` abandoned by then still runs when its
    /// turn comes, into a dropped channel. Nothing is locked while waiting.
    pub fn look<R: Send + 'static>(
        &self,
        p: ProcessId,
        f: impl FnOnce(&A) -> R + Send + 'static,
    ) -> Option<R> {
        if self.is_down(p) {
            return self.final_states.get(p.index())?.as_ref().map(f);
        }
        let (reply, answer) = unbounded();
        let ask = Event::Inspect(Box::new(move |automaton: &A| {
            let _ = reply.send(f(automaton));
        }));
        // an inbox nobody drains any more drops the event and `reply` with
        // it: the wait below ends at once
        self.hub.send(p, ask);
        let bound = Duration::from_millis(GOODBYE_WAIT_MS);
        answer.recv_timeout(bound).ok()
    }

    /// Crashes process `p`: its thread stops taking steps and stops sending
    /// heartbeats, so the other processes' Ω modules eventually elect a new
    /// leader. Returns once the thread has stopped and its automaton is
    /// kept for [`Runtime::look`].
    pub fn crash(&mut self, p: ProcessId) {
        if !self.is_down(p) {
            self.hub.send(p, Event::Crash);
            self.join(p);
        }
    }

    /// Joins the thread of `p`'s live incarnation, if there is one, and
    /// keeps the automaton it returns (a panicked one leaves nothing).
    fn join(&mut self, p: ProcessId) {
        let handle = self.handles.get_mut(p.index()).and_then(Option::take);
        if let (Some(Ok(last)), Some(slot)) = (
            handle.map(JoinHandle::join),
            self.final_states.get_mut(p.index()),
        ) {
            *slot = Some(last);
        }
    }

    /// Restarts a crashed process as a fresh incarnation: whatever the
    /// factory builds (empty, or recovered from disk), re-filled from the
    /// peers by the algorithm's own anti-entropy. Returns `false` if `p` is
    /// not down, or if its links could not be opened (it then stays down).
    pub fn restart(&mut self, p: ProcessId) -> bool {
        self.is_down(p) && self.start(p).is_ok()
    }

    /// Stops all processes and tears the transport down, leaving the run
    /// readable: every node is down afterwards, so [`Runtime::look`] answers
    /// from the automata they left and the record is complete. Live nodes
    /// are asked to shut down in order and given [`GOODBYE_WAIT_MS`] to say
    /// goodbye, so that what they output last is in the record; the stop
    /// flag is the backstop for one that never hears the request.
    pub fn stop(&mut self) {
        let ids = (0..self.n()).map(ProcessId::new);
        let live: Vec<ProcessId> = ids.filter(|p| !self.is_down(*p)).collect();
        for p in &live {
            self.hub.send(*p, Event::Shutdown);
        }
        let give_up = self.hub.stopwatch.elapsed_ms() + GOODBYE_WAIT_MS;
        while !live.iter().all(|p| self.hub.said_goodbye(*p))
            && self.hub.stopwatch.elapsed_ms() < give_up
        {
            sleep_ms(2);
        }
        self.hub.stop.store(true, Ordering::SeqCst);
        for p in (0..self.n()).map(ProcessId::new) {
            self.join(p);
        }
        self.transport.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelLinks, ChannelTransport};
    use ec_core::etob_omega::{EtobConfig, EtobOmega};
    use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
    use ec_core::types::{materialize, DeliveryDelta, EtobBroadcast, MsgId};
    use ec_detectors::HeartbeatMsg;
    use ec_sim::ProcessSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Instant;

    type Channels<A> = Runtime<A, ChannelTransport>;

    fn config() -> RuntimeConfig {
        RuntimeConfig {
            tick: Duration::from_millis(2),
            heartbeat: HeartbeatConfig {
                period: 2,
                suspect_after: 10,
            },
        }
    }

    /// `n` processes of Algorithm 5 over channels, Ω straight from the
    /// heartbeat modules.
    fn launch_etob(n: usize, etob: EtobConfig) -> Channels<EtobOmega> {
        Runtime::launch(
            n,
            config(),
            move |p| EtobOmega::new(p, etob),
            |leader, _n| leader,
        )
        .expect("channels cannot fail to open")
    }

    fn broadcast(runtime: &mut Channels<EtobOmega>, origin: usize, seq: u64, payload: &[u8]) {
        let origin = ProcessId::new(origin);
        runtime.submit(origin, EtobBroadcast::new(origin, seq, payload.to_vec()));
    }

    /// The delivered sequence of `p` so far: its delivery deltas folded in
    /// order.
    fn delivered_ids<A, T>(runtime: &Runtime<A, T>, p: ProcessId) -> Vec<MsgId>
    where
        A: Algorithm<Output = DeliveryDelta>,
    {
        runtime
            .with_outputs(materialize)
            .last(p)
            .expect("delivered")
            .iter()
            .map(|m| m.id)
            .collect()
    }

    fn last_leader_of<A: Algorithm, T>(runtime: &Runtime<A, T>, p: ProcessId) -> Option<ProcessId> {
        let leaders = runtime.leaders();
        let mut of_p = leaders.iter().rev().filter(|(q, _, _)| *q == p);
        of_p.next().map(|(_, _, leader)| *leader)
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
    fn delivered_len<A, T>(runtime: &Runtime<A, T>, p: ProcessId) -> usize
    where
        A: Algorithm<Output = DeliveryDelta> + Send + 'static,
        A::Msg: Send,
        A::Input: Send,
        T: Transport<A>,
    {
        runtime
            .latest_output_of(p)
            .map_or(0, |delta| delta.keep + delta.suffix.len())
    }

    #[test]
    fn threaded_etob_delivers_everything_in_the_same_order() {
        let n = 3;
        let mut runtime = launch_etob(n, EtobConfig::default());
        for k in 0..5u64 {
            broadcast(&mut runtime, (k % 3) as usize, k + 1, &[k as u8]);
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until(5, "all three delivered 5", || {
            (0..n).all(|i| delivered_len(&runtime, ProcessId::new(i)) == 5)
        });
        runtime.stop();
        // every process delivered all five messages, in the same order
        let reference = delivered_ids(&runtime, ProcessId::new(0));
        assert_eq!(reference.len(), 5);
        for p in (1..n).map(ProcessId::new) {
            assert_eq!(delivered_ids(&runtime, p), reference, "{p} diverged");
        }
        // the heartbeat Ω elected p0 everywhere
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(last_leader_of(&runtime, p), Some(ProcessId::new(0)));
        }
        // a stopped run stays readable: the automata the nodes left behind
        // match the outputs
        for p in (0..n).map(ProcessId::new) {
            assert!(runtime.is_down(p));
            let delivered = runtime.look(p, |a: &EtobOmega| a.delivered().len());
            assert_eq!(delivered, Some(5), "{p}");
        }
        // app messages were counted
        let metrics = runtime.metrics();
        assert!(metrics.messages_sent > 0);
        assert!(metrics.messages_delivered > 0);
        assert_eq!(metrics.inputs, 5);
        // the last delta each process emitted ends where its sequence does
        let last = runtime.latest_output_of(ProcessId::new(0));
        let last = last.expect("p0 delivered");
        assert_eq!(last.keep + last.suffix.len(), reference.len());
    }

    #[test]
    fn leader_crash_is_survived_by_the_runtime() {
        let n = 3;
        let mut runtime = launch_etob(n, EtobConfig::default());
        broadcast(&mut runtime, 1, 1, b"before");
        let survivors = [ProcessId::new(1), ProcessId::new(2)];
        wait_until(5, "the survivors delivered the first broadcast", || {
            survivors.iter().all(|p| delivered_len(&runtime, *p) == 1)
        });
        runtime.crash(ProcessId::new(0));
        broadcast(&mut runtime, 2, 99, b"after");
        // only an update from the leader a process trusts is adopted, so
        // this also waits for the heartbeat Ω to move off the crashed p0
        wait_until(10, "the survivors delivered the post-crash one", || {
            survivors.iter().all(|p| delivered_len(&runtime, *p) == 2)
        });
        runtime.stop();
        // the survivors eventually elected p1 and still deliver new messages
        for p in survivors {
            assert_eq!(last_leader_of(&runtime, p), Some(ProcessId::new(1)), "{p}");
            let history = runtime.with_outputs(materialize);
            let delivered = history.last(p).expect("delivered something");
            assert!(
                delivered.iter().any(|m| &m.payload[..] == b"after"),
                "{p} did not deliver the post-crash broadcast"
            );
        }
        assert!(format!("{runtime:?}").contains("live: 0"));
    }

    #[test]
    fn a_restarted_process_is_refilled_by_anti_entropy() {
        let n = 3;
        let mut runtime = launch_etob(n, EtobConfig::default().with_resend(10));
        let victim = ProcessId::new(2);
        broadcast(&mut runtime, 1, 1, b"seen by all");
        wait_until(5, "all three delivered the first broadcast", || {
            (0..n).all(|i| delivered_len(&runtime, ProcessId::new(i)) == 1)
        });
        assert!(!runtime.restart(victim), "only a crashed process restarts");
        runtime.crash(victim);
        assert!(runtime.is_down(victim));
        broadcast(&mut runtime, 0, 1, b"missed");
        wait_until(5, "the survivors delivered the second broadcast", || {
            (0..2).all(|i| delivered_len(&runtime, ProcessId::new(i)) == 2)
        });
        // a fresh incarnation behind the same inbox: it starts empty, so
        // whatever it ends up with it got from its peers
        assert!(runtime.restart(victim));
        assert!(!runtime.is_down(victim));
        wait_until(10, "the restarted process caught up", || {
            delivered_len(&runtime, victim) == 2
        });
        runtime.stop();
        assert_eq!(
            delivered_ids(&runtime, victim),
            delivered_ids(&runtime, ProcessId::new(0))
        );
        // the automaton left behind is the second incarnation's
        let reborn = runtime.look(victim, |a: &EtobOmega| a.delivered().len());
        assert_eq!(reborn, Some(2));
    }

    #[test]
    fn live_accessors_observe_a_run_in_flight() {
        let mut runtime = launch_etob(2, EtobConfig::default());
        broadcast(&mut runtime, 0, 1, b"live");
        wait_until(5, "p1 delivered", || {
            delivered_len(&runtime, ProcessId::new(1)) == 1
        });
        assert!(runtime.with_outputs(|h| h.last(ProcessId::new(1)).is_some()));
        assert!(runtime.metrics().messages_sent > 0);
        assert_eq!(runtime.n(), 2);
        // a transport with no wire answers for none
        let (transport, p0) = (runtime.transport(), ProcessId::new(0));
        assert!(Transport::<EtobOmega>::addr(transport, p0).is_none());
        assert_eq!(runtime.malformed(), 0);
        assert!(Transport::<EtobOmega>::scrape(transport, p0).is_none());
        assert!(format!("{runtime:?}").contains("live: 2"));
        let _ = runtime.elapsed_ms();
        runtime.stop();
    }

    #[test]
    fn the_hub_keeps_one_history_and_ignores_a_process_it_does_not_have() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let delta = |keep| DeliveryDelta {
            keep,
            suffix: Vec::new(),
        };
        // nothing is broadcast, so the nodes record nothing themselves
        let mut runtime = launch_etob(2, EtobConfig::default());
        assert_eq!(runtime.latest_output_of(p0), None);
        runtime.hub.record_output(p0, delta(1));
        runtime.hub.record_output(p1, delta(2));
        runtime.hub.record_output(p0, delta(3));
        // a process id that names no node: dropped, no panic
        runtime.hub.record_output(ProcessId::new(7), delta(4));
        assert_eq!(runtime.latest_output_of(p0), Some(delta(3)));
        assert_eq!(runtime.latest_output_of(p1), Some(delta(2)));
        let so_far = runtime.with_outputs(Clone::clone);
        assert_eq!(so_far.all().count(), 3);
        // stamped by the run's clock, in the order recorded
        let [(first, _), (second, _)] = so_far.outputs(p0) else {
            panic!("p0 recorded twice")
        };
        assert!(first <= second);
        runtime.stop();
        assert!(runtime.with_outputs(|h| *h == so_far));
    }

    fn delivered_at(runtime: &Channels<EtobOmega>, p: ProcessId) -> Option<usize> {
        runtime.look(p, |a: &EtobOmega| a.delivered().len())
    }

    #[test]
    fn look_reaches_the_live_automaton_the_one_a_crash_left_and_the_new_incarnation() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let mut runtime = launch_etob(2, EtobConfig::default());
        broadcast(&mut runtime, 0, 1, b"seen");
        wait_until(5, "p1 delivered", || delivered_len(&runtime, p1) == 1);
        // live: answered between two steps of p1
        assert_eq!(delivered_at(&runtime, p1), Some(1));
        // down: answered from the automaton the crashed incarnation left
        runtime.crash(p0);
        runtime.crash(p1);
        assert_eq!(delivered_at(&runtime, p1), Some(1));
        assert_eq!(delivered_len(&runtime, p1), 1);
        // restarted with no peer left to re-fill it: reads reach the blank
        // new incarnation, and the latest output is no longer its
        // predecessor's, which stays in the record
        assert!(runtime.restart(p1));
        assert_eq!(delivered_at(&runtime, p1), Some(0));
        assert_eq!(runtime.latest_output_of(p1), None);
        assert_eq!(runtime.with_outputs(|h| h.outputs(p1).len()), 1);
        // no node of the run: nothing to ask
        assert_eq!(delivered_at(&runtime, ProcessId::new(7)), None);
        assert_eq!(runtime.latest_output_of(ProcessId::new(7)), None);
        runtime.stop();
    }

    #[test]
    fn look_gives_up_on_a_node_that_never_drains_and_at_once_on_one_that_is_gone() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let bound = Duration::from_millis(GOODBYE_WAIT_MS);
        let mut runtime = launch_etob(2, EtobConfig::default());
        // wedge p1 inside an event: it drains nothing until released
        let (release, gate) = mpsc::channel::<()>();
        let wedge = Event::Inspect(Box::new(move |_: &EtobOmega| {
            let _ = gate.recv();
        }));
        assert!(runtime.hub.send(p1, wedge));
        let asked = Instant::now();
        assert_eq!(delivered_at(&runtime, p1), None);
        let waited = asked.elapsed();
        assert!(waited >= bound && waited < 2 * bound, "{waited:?}");
        // released, p1 runs the abandoned closure into its dropped channel
        // and answers the next one
        drop(release);
        assert_eq!(delivered_at(&runtime, p1), Some(0));
        // a node whose thread died in an event holds no inbox any more
        let kill = Event::Inspect(Box::new(|_: &EtobOmega| {
            panic!("this probe kills its node")
        }));
        assert!(runtime.hub.send(p0, kill));
        let asked = Instant::now();
        assert_eq!(delivered_at(&runtime, p0), None);
        assert!(asked.elapsed() < bound);
        runtime.stop();
        // it left no automaton behind either
        assert_eq!(delivered_at(&runtime, p0), None);
        assert_eq!(delivered_at(&runtime, p1), Some(0));
    }

    #[test]
    fn derive_supplies_leader_and_quorum_to_the_strong_baseline() {
        let n = 3;
        let mut runtime: Channels<ConsensusTob> = Runtime::launch(
            n,
            config(),
            |p| ConsensusTob::new(p, ConsensusTobConfig::default()),
            |leader, n| (leader, ProcessSet::all(n)),
        )
        .expect("channels cannot fail to open");
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
        runtime.stop();
        // identical delivery order everywhere (strong consistency)
        let reference = delivered_ids(&runtime, ProcessId::new(0));
        for p in (1..n).map(ProcessId::new) {
            assert_eq!(delivered_ids(&runtime, p), reference, "{p} diverged");
        }
    }

    /// Links of [`Unroutable`] incarnations alive right now: a node thread
    /// owns its links, so 0 means no node thread is running.
    static LINKS_ALIVE: AtomicUsize = AtomicUsize::new(0);

    /// A transport that cannot open the links of `p1`.
    struct Unroutable;

    struct CountedLinks(ChannelLinks<EtobOmega>);

    impl Drop for CountedLinks {
        fn drop(&mut self) {
            LINKS_ALIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Links<EtobOmega> for CountedLinks {
        fn send(&mut self, to: ProcessId, msg: <EtobOmega as Algorithm>::Msg) -> u64 {
            self.0.send(to, msg)
        }
        fn heartbeat(&mut self, to: ProcessId, msg: HeartbeatMsg) {
            self.0.heartbeat(to, msg);
        }
    }

    impl Transport<EtobOmega> for Unroutable {
        type Links = CountedLinks;

        fn bind(_hub: &Arc<Hub<EtobOmega>>) -> io::Result<Self> {
            Ok(Unroutable)
        }

        fn open(&mut self, p: ProcessId, hub: &Arc<Hub<EtobOmega>>) -> io::Result<CountedLinks> {
            if p.index() == 1 {
                return Err(io::Error::other("no route to p1"));
            }
            LINKS_ALIVE.fetch_add(1, Ordering::SeqCst);
            ChannelTransport.open(p, hub).map(CountedLinks)
        }
    }

    #[test]
    fn a_transport_that_fails_to_open_fails_the_launch_and_leaves_no_thread() {
        let launched = Runtime::<EtobOmega, Unroutable>::launch(
            3,
            config(),
            |p| EtobOmega::new(p, EtobConfig::default()),
            |leader, _n| leader,
        );
        let err = launched.expect_err("p1 has no links");
        assert_eq!(err.to_string(), "no route to p1");
        // p0 was running by then; the failed launch stopped and joined it
        assert_eq!(LINKS_ALIVE.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn runtime_requires_two_processes() {
        let _ = launch_etob(1, EtobConfig::default());
    }
}
