//! Socket-backed replica nodes and the cluster of them the net engine
//! deploys.
//!
//! Each replica runs as an independent node: its own event loop thread,
//! its own loopback `TcpListener`, outbound [`PeerLink`]s to every peer,
//! and one *control* connection to the driver (the facade) carrying
//! inputs inbound and outputs outbound. Protocol messages and failure-
//! detector heartbeats travel over the same peer connections, encoded by
//! the [`crate::net::codec`] frame format, so every byte the algorithms
//! exchange really crosses a socket.
//!
//! The event loop mirrors `ec-runtime`'s process loop step for step — it
//! drives the same [`ec_sim::Algorithm`] implementations through
//! [`ec_runtime::run_handler`] with a per-node heartbeat Ω, and paces its
//! `on_timer` calls with the same deadline-driven [`ec_runtime::Pacer`]
//! (a tick is due every `RuntimeConfig::tick` of wall-clock time however
//! busy the inbox is; a late loop skips missed ticks, never replays them)
//! — which is what makes the engines interchangeable behind the facade.
//!
//! Outputs are recorded driver-side by one reader per control connection
//! into an [`OutputLog`] (arrival-ordered history plus an O(1) latest slot
//! per replica). A replica output carries its whole state snapshot as
//! shared bytes; the recorder points a new output at the allocation of a
//! recent byte-identical snapshot, so the replicas' outputs for the same
//! promote — the same bytes under a stable Ω — are held once, not once per
//! replica.
//!
//! Teardown protocol: the driver sends a `Shutdown` frame on each control
//! connection; a node drains its queue, flushes its last outputs, echoes
//! `Shutdown` as a goodbye, and returns its replica for harvest. Crashed
//! nodes (`Crash` frame) return silently and keep their listener accepting
//! — inbound traffic for a dead node is swallowed, like sends to a crashed
//! process in the model. `restart` starts a fresh incarnation behind the
//! same address; reader threads parked on connections of dead incarnations
//! are left to exit with the process (they hold no locks).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use ec_core::types::{Compactable, EventualTotalOrderBroadcast, Instrumented};
use ec_detectors::{HeartbeatMsg, HeartbeatOmega};
use ec_runtime::{run_handler, sleep_ms, OutputLog, Pacer, RuntimeConfig, Stopwatch, Turn};
use ec_sim::{Actions, Algorithm, Metrics, ProcessId};

use crate::net::codec::{decode_body, encode_body, hello_body, Frame, WireCodec, DRIVER, SCRAPER};
use crate::net::transport::{read_frame, write_frame, PeerLink, ReadError};
use crate::replica::{Replica, ReplicaCommand, ReplicaOutput};
use crate::state_machine::StateMachine;

/// How long [`NetCluster::shutdown`] waits for the goodbye frames of live
/// nodes before falling back to the stop flag.
const GOODBYE_WAIT_MS: u64 = 2_000;

/// Locks a mutex, recovering the data from a poisoned lock (a panicked
/// node thread must not cascade into the driver).
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unwraps an I/O result the net engine cannot exist without (binding a
/// loopback listener, dialing a control connection at deployment).
/// Loopback socket setup failing means a misconfigured host; report it
/// through the same assert convention the builders use for misuse.
fn io_must<T>(what: &str, result: io::Result<T>) -> T {
    match result {
        Ok(value) => value,
        Err(err) => {
            let detail = format!("net engine could not {what}: {err}");
            assert!(detail.is_empty(), "{detail}");
            std::process::abort()
        }
    }
}

/// What the connection reader threads feed a node's event loop.
enum NetEvent<M> {
    /// A broadcast-layer message, with the frame's on-wire byte count.
    App {
        from: ProcessId,
        msg: M,
        wire_len: u64,
    },
    /// A failure-detector heartbeat.
    Heartbeat { from: ProcessId, msg: HeartbeatMsg },
    /// A client command from the driver.
    Input(ReplicaCommand),
    /// A telemetry scrape: render the live metrics exposition and write it
    /// back over `reply`.
    Stats {
        /// The scrape connection to answer on.
        reply: TcpStream,
    },
    /// Stop taking steps, keep state for harvest, send no goodbye.
    Crash,
    /// Stop, flush outputs, echo a goodbye frame.
    Shutdown,
}

/// The current incarnation's event sender. Readers re-lock per frame, so
/// swapping the sender (at restart) redirects live connections to the new
/// incarnation without reconnecting.
type Inbox<M> = Arc<Mutex<Option<Sender<NetEvent<M>>>>>;

/// The node-side write end of the control connection, plus the frames
/// queued before the driver connected.
struct ControlOut {
    stream: Option<TcpStream>,
    pending: Vec<Vec<u8>>,
}

type ControlSlot = Arc<Mutex<ControlOut>>;

/// How many distinct recent snapshots [`OutputRecorder`] keeps as sharing
/// candidates: the replicas' outputs for one promote reach the driver
/// within a tick or two of each other, so a handful spans them.
const RECENT_SNAPSHOTS: usize = 8;

/// The driver-side record of replica outputs: the log, plus the distinct
/// snapshots seen most recently, newest first.
struct OutputRecorder {
    log: OutputLog<ReplicaOutput>,
    recent: VecDeque<Arc<[u8]>>,
}

impl OutputRecorder {
    fn new(n: usize) -> Self {
        OutputRecorder {
            log: OutputLog::new(n),
            recent: VecDeque::with_capacity(RECENT_SNAPSHOTS),
        }
    }

    /// Records an output of `p`, re-pointing its snapshot at a recent
    /// byte-identical one if there is one (the decoded copy is dropped).
    fn record(&mut self, p: ProcessId, elapsed_ms: u64, mut output: ReplicaOutput) {
        match self.recent.iter().find(|seen| ***seen == *output.snapshot) {
            Some(seen) => output.snapshot = Arc::clone(seen),
            None => {
                self.recent.truncate(RECENT_SNAPSHOTS - 1);
                self.recent.push_front(Arc::clone(&output.snapshot));
            }
        }
        self.log.push(p, elapsed_ms, output);
    }
}

/// State shared between the driver and every node/reader thread.
struct NetShared {
    outputs: Mutex<OutputRecorder>,
    metrics: Mutex<Metrics>,
    malformed: AtomicU64,
    stopwatch: Stopwatch,
    stop: AtomicBool,
}

/// How a node derives the failure-detector value its algorithm queries
/// from the heartbeat module's current leader estimate (the socket-engine
/// twin of `ec-runtime`'s derive hook).
pub(crate) type NetFdDerive<F> = Arc<dyn Fn(ProcessId, usize) -> F + Send + Sync>;

type NetFactory<S, B> = Arc<dyn Fn(ProcessId) -> Replica<S, B> + Send + Sync>;

/// Driver-side slots the node threads deposit their final replicas into.
type FinalSlots<S, B> = Arc<Mutex<Vec<Option<Replica<S, B>>>>>;

/// The per-node handles that survive restarts: the listen address, the
/// inbox live connections feed, and the control write end.
struct NodeSlot<M> {
    addr: SocketAddr,
    inbox: Inbox<M>,
    control: ControlSlot,
}

/// Everything a stopped cluster hands to the engine layer.
pub(crate) struct NetFinal<S, B>
where
    S: StateMachine,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
{
    /// Final replica of each node's last incarnation (crashed incarnations
    /// are overwritten by their restart).
    pub final_states: Vec<Option<Replica<S, B>>>,
    /// Outputs as `(replica, elapsed_ms, output)`, stamped at driver
    /// receipt.
    pub outputs: Vec<(ProcessId, u64, ReplicaOutput)>,
    /// Application-message counters; `bytes_sent` counts actual frame
    /// bytes put on the wire.
    pub metrics: Metrics,
}

/// A group of socket-backed replica nodes plus the driver-side plumbing to
/// reach them: one control connection, goodbye flag and reader thread per
/// node.
pub(crate) struct NetCluster<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: WireCodec + Send,
{
    n: usize,
    config: RuntimeConfig,
    shared: Arc<NetShared>,
    slots: Vec<NodeSlot<B::Msg>>,
    node_handles: Vec<Option<JoinHandle<()>>>,
    acceptor_handles: Vec<JoinHandle<()>>,
    final_states: FinalSlots<S, B>,
    factory: NetFactory<S, B>,
    derive: NetFdDerive<B::Fd>,
    control_streams: Vec<Option<TcpStream>>,
    goodbyes: Vec<Arc<AtomicBool>>,
    down: Vec<bool>,
}

impl<S, B> std::fmt::Debug for NetCluster<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: WireCodec + Send,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetCluster")
            .field("n", &self.n)
            .field("down", &self.down)
            .finish_non_exhaustive()
    }
}

impl<S, B> NetCluster<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: WireCodec + Send,
{
    /// Binds one loopback listener per node, starts the acceptor, node and
    /// control-reader threads, and returns once every node is reachable.
    pub(crate) fn launch<F, D>(n: usize, config: RuntimeConfig, factory: F, derive: D) -> Self
    where
        F: Fn(ProcessId) -> Replica<S, B> + Send + Sync + 'static,
        D: Fn(ProcessId, usize) -> B::Fd + Send + Sync + 'static,
    {
        assert!(n >= 2, "the system model requires at least two processes");
        let shared = Arc::new(NetShared {
            outputs: Mutex::new(OutputRecorder::new(n)),
            metrics: Mutex::new(Metrics::new(n)),
            malformed: AtomicU64::new(0),
            stopwatch: Stopwatch::start(),
            stop: AtomicBool::new(false),
        });
        let factory: NetFactory<S, B> = Arc::new(factory);
        let derive: NetFdDerive<B::Fd> = Arc::new(derive);

        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| {
                io_must(
                    "bind a loopback listener",
                    TcpListener::bind(("127.0.0.1", 0)),
                )
            })
            .collect();
        let slots: Vec<NodeSlot<B::Msg>> = listeners
            .iter()
            .map(|listener| NodeSlot {
                addr: io_must("read a listener address", listener.local_addr()),
                inbox: Arc::new(Mutex::new(None)),
                control: Arc::new(Mutex::new(ControlOut {
                    stream: None,
                    pending: Vec::new(),
                })),
            })
            .collect();
        let addrs: Vec<SocketAddr> = slots.iter().map(|slot| slot.addr).collect();

        let acceptor_handles: Vec<JoinHandle<()>> = listeners
            .into_iter()
            .zip(slots.iter())
            .map(|(listener, slot)| {
                let inbox = Arc::clone(&slot.inbox);
                let control = Arc::clone(&slot.control);
                let shared_ref = Arc::clone(&shared);
                std::thread::spawn(move || accept_loop(listener, inbox, control, shared_ref))
            })
            .collect();

        let mut cluster = NetCluster {
            n,
            config,
            shared,
            slots,
            node_handles: (0..n).map(|_| None).collect(),
            acceptor_handles,
            final_states: Arc::new(Mutex::new((0..n).map(|_| None).collect())),
            factory,
            derive,
            control_streams: (0..n).map(|_| None).collect(),
            goodbyes: (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            down: vec![false; n],
        };
        for i in 0..n {
            cluster.start_node(ProcessId::new(i), &addrs);
        }
        for i in 0..n {
            cluster.dial_control(ProcessId::new(i));
        }
        cluster
    }

    /// Starts one incarnation of node `p`: a fresh inbox channel, fresh
    /// peer links, and a thread running the event loop.
    fn start_node(&mut self, p: ProcessId, addrs: &[SocketAddr]) {
        let (sender, receiver) = mpsc::channel::<NetEvent<B::Msg>>();
        if let Some(slot) = self.slots.get(p.index()) {
            *locked(&slot.inbox) = Some(sender);
        }
        // one link per destination, self included: algorithms send to
        // themselves (e.g. the leader delivering its own sequence), and
        // those frames loop through the node's own listener like any other
        let links: Vec<PeerLink> = addrs
            .iter()
            .map(|addr| PeerLink::new(p.index() as u32, *addr))
            .collect();
        let control = self
            .slots
            .get(p.index())
            .map(|slot| Arc::clone(&slot.control));
        let Some(control) = control else { return };
        let replica = (self.factory)(p);
        let shared = Arc::clone(&self.shared);
        let derive = Arc::clone(&self.derive);
        let final_states = Arc::clone(&self.final_states);
        let config = self.config;
        let n = self.n;
        let handle = std::thread::spawn(move || {
            let replica = node_loop(
                p, n, replica, receiver, links, shared, config, derive, control,
            );
            if let Some(slot) = locked(&final_states).get_mut(p.index()) {
                *slot = Some(replica);
            }
        });
        if let Some(entry) = self.node_handles.get_mut(p.index()) {
            *entry = Some(handle);
        }
    }

    /// Dials the control connection of node `p` and starts the driver-side
    /// reader that records its outputs and goodbye.
    fn dial_control(&mut self, p: ProcessId) {
        let Some(addr) = self.slots.get(p.index()).map(|slot| slot.addr) else {
            return;
        };
        let mut stream = io_must("dial a control connection", TcpStream::connect(addr));
        let _ = stream.set_nodelay(true);
        io_must(
            "greet over the control connection",
            write_frame(&mut stream, &hello_body(DRIVER)),
        );
        let reader = io_must("clone the control connection", stream.try_clone());
        let goodbye = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&self.shared);
        let flag = Arc::clone(&goodbye);
        std::thread::spawn(move || drain_control::<B::Msg>(reader, p, shared, flag));
        if let Some(entry) = self.control_streams.get_mut(p.index()) {
            *entry = Some(stream);
        }
        if let Some(entry) = self.goodbyes.get_mut(p.index()) {
            *entry = goodbye;
        }
    }

    /// The listen address of node `p` (tests dial it to inject raw frames).
    pub(crate) fn addr(&self, p: ProcessId) -> Option<SocketAddr> {
        self.slots.get(p.index()).map(|slot| slot.addr)
    }

    /// Submits a client command to node `p` over its control connection.
    pub(crate) fn submit(&mut self, p: ProcessId, command: ReplicaCommand) {
        let body = encode_body::<B::Msg>(&Frame::Input(command));
        if let Some(Some(stream)) = self.control_streams.get_mut(p.index()) {
            // a dead node swallows inputs, like the model's crashed process
            let _ = write_frame(stream, &body);
        }
    }

    /// Crashes node `p`: its event loop stops and its state is harvested,
    /// but its listener keeps accepting (and swallowing) peer traffic.
    pub(crate) fn crash(&mut self, p: ProcessId) {
        let body = encode_body::<B::Msg>(&Frame::Crash);
        if let Some(Some(stream)) = self.control_streams.get_mut(p.index()) {
            let _ = write_frame(stream, &body);
        }
        if let Some(handle) = self.node_handles.get_mut(p.index()).and_then(Option::take) {
            let _ = handle.join();
        }
        if let Some(flag) = self.down.get_mut(p.index()) {
            *flag = true;
        }
    }

    /// Restarts a crashed node as a fresh incarnation (empty replica state;
    /// the broadcast layer's anti-entropy re-fills it from the peers).
    /// Returns `false` if `p` is not down.
    pub(crate) fn restart(&mut self, p: ProcessId) -> bool {
        if !self.down.get(p.index()).copied().unwrap_or(false) {
            return false;
        }
        // reset the control plumbing of the dead incarnation
        if let Some(slot) = self.slots.get(p.index()) {
            let mut control = locked(&slot.control);
            control.stream = None;
            control.pending = Vec::new();
        }
        if let Some(entry) = self.control_streams.get_mut(p.index()) {
            *entry = None;
        }
        let addrs: Vec<SocketAddr> = self.slots.iter().map(|slot| slot.addr).collect();
        self.start_node(p, &addrs);
        self.dial_control(p);
        if let Some(flag) = self.down.get_mut(p.index()) {
            *flag = false;
        }
        true
    }

    /// The most recent output of node `p`, observed live.
    pub(crate) fn latest_output_of(&self, p: ProcessId) -> Option<ReplicaOutput> {
        locked(&self.shared.outputs).log.latest_of(p).cloned()
    }

    /// A snapshot of every `(replica, elapsed_ms, output)` so far.
    pub(crate) fn outputs_so_far(&self) -> Vec<(ProcessId, u64, ReplicaOutput)> {
        locked(&self.shared.outputs).log.all().to_vec()
    }

    /// A snapshot of the message counters so far.
    pub(crate) fn metrics(&self) -> Metrics {
        locked(&self.shared.metrics).clone()
    }

    /// Frames rejected as malformed so far, across all connections.
    pub(crate) fn malformed_frames(&self) -> u64 {
        self.shared.malformed.load(Ordering::SeqCst)
    }

    /// Milliseconds since the cluster was launched.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.shared.stopwatch.elapsed_ms()
    }

    /// Scrapes the live metrics exposition of node `p` over a fresh
    /// connection: `Hello(SCRAPER)`, one `StatsRequest`, one `StatsText`
    /// reply. `None` if the node is down or unreachable.
    pub(crate) fn scrape(&self, p: ProcessId) -> Option<String> {
        if self.down.get(p.index()).copied().unwrap_or(true) {
            return None;
        }
        let addr = self.addr(p)?;
        let mut stream = TcpStream::connect(addr).ok()?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(GOODBYE_WAIT_MS)))
            .ok()?;
        write_frame(&mut stream, &hello_body(SCRAPER)).ok()?;
        write_frame(&mut stream, &encode_body::<B::Msg>(&Frame::StatsRequest)).ok()?;
        let body = read_frame(&mut stream).ok()?;
        match decode_body::<B::Msg>(&body) {
            Ok(Frame::StatsText(text)) => String::from_utf8(text).ok(),
            _ => None,
        }
    }

    /// Stops every node (goodbye protocol first, stop flag as backstop),
    /// joins their threads and harvests the final states.
    pub(crate) fn shutdown(mut self) -> NetFinal<S, B> {
        let goodbye_body = encode_body::<B::Msg>(&Frame::Shutdown);
        for i in 0..self.n {
            if self.down.get(i).copied().unwrap_or(true) {
                continue;
            }
            if let Some(Some(stream)) = self.control_streams.get_mut(i) {
                let _ = write_frame(stream, &goodbye_body);
            }
        }
        // wait (bounded) for the goodbyes so in-flight outputs drain
        let give_up = self.shared.stopwatch.elapsed_ms() + GOODBYE_WAIT_MS;
        loop {
            let all_done = self
                .goodbyes
                .iter()
                .zip(self.down.iter())
                .all(|(goodbye, down)| *down || goodbye.load(Ordering::SeqCst));
            if all_done || self.shared.stopwatch.elapsed_ms() >= give_up {
                break;
            }
            sleep_ms(2);
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in &mut self.node_handles {
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
        // unblock the acceptors with one dummy connection each
        for slot in &self.slots {
            let _ = TcpStream::connect(slot.addr);
        }
        for handle in self.acceptor_handles {
            let _ = handle.join();
        }
        self.control_streams.clear();
        NetFinal {
            final_states: std::mem::take(&mut *locked(&self.final_states)),
            outputs: locked(&self.shared.outputs).log.take_all(),
            metrics: locked(&self.shared.metrics).clone(),
        }
    }
}

/// Accepts inbound connections for one node until the stop flag is set,
/// handing each to its own reader thread.
fn accept_loop<M: WireCodec + Send + 'static>(
    listener: TcpListener,
    inbox: Inbox<M>,
    control: ControlSlot,
    shared: Arc<NetShared>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let inbox = Arc::clone(&inbox);
                let control = Arc::clone(&control);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || serve_connection(stream, inbox, control, shared));
            }
            Err(_) => return,
        }
    }
}

/// Reads one frame and decodes it, counting malformed input. `None` ends
/// the connection (I/O error, EOF, or malformed bytes).
fn next_frame<M: WireCodec>(stream: &mut TcpStream, shared: &NetShared) -> Option<(Frame<M>, u64)> {
    match read_frame(stream) {
        Ok(body) => match decode_body::<M>(&body) {
            Ok(frame) => Some((frame, 4 + body.len() as u64)),
            Err(_) => {
                shared.malformed.fetch_add(1, Ordering::SeqCst);
                None
            }
        },
        Err(ReadError::Malformed(_)) => {
            shared.malformed.fetch_add(1, Ordering::SeqCst);
            None
        }
        Err(ReadError::Io(_)) => None,
    }
}

/// Serves one inbound connection at a node: expects a `Hello`, then feeds
/// decoded frames to the node's current inbox. Closes (counting it as
/// malformed) on any frame the node side must never receive.
fn serve_connection<M: WireCodec>(
    mut stream: TcpStream,
    inbox: Inbox<M>,
    control: ControlSlot,
    shared: Arc<NetShared>,
) {
    let _ = stream.set_nodelay(true);
    match next_frame::<M>(&mut stream, &shared) {
        Some((Frame::Hello { from }, _)) => {
            if from == DRIVER {
                if let Ok(write_end) = stream.try_clone() {
                    install_control(&control, write_end);
                }
            }
        }
        Some(_) => {
            shared.malformed.fetch_add(1, Ordering::SeqCst);
            return;
        }
        None => return,
    }
    loop {
        let event = match next_frame::<M>(&mut stream, &shared) {
            Some((Frame::App { from, msg }, wire_len)) => NetEvent::App {
                from,
                msg,
                wire_len,
            },
            Some((Frame::Heartbeat { from, msg }, _)) => NetEvent::Heartbeat { from, msg },
            Some((Frame::Input(command), _)) => NetEvent::Input(command),
            Some((Frame::Crash, _)) => NetEvent::Crash,
            Some((Frame::Shutdown, _)) => NetEvent::Shutdown,
            Some((Frame::StatsRequest, _)) => match stream.try_clone() {
                Ok(reply) => NetEvent::Stats { reply },
                Err(_) => return,
            },
            Some((Frame::Hello { .. } | Frame::Output(_) | Frame::StatsText(_), _)) => {
                shared.malformed.fetch_add(1, Ordering::SeqCst);
                return;
            }
            None => return,
        };
        // re-read the sender every frame: a restart swaps in the new
        // incarnation's inbox, a dead incarnation swallows the event
        let delivered = match locked(&inbox).as_ref() {
            Some(sender) => sender.send(event).is_ok(),
            None => false,
        };
        let _ = delivered;
    }
}

/// Installs the node-side write end of the control connection and flushes
/// the outputs queued while no driver was connected.
fn install_control(control: &ControlSlot, mut stream: TcpStream) {
    let mut slot = locked(control);
    let queued = std::mem::take(&mut slot.pending);
    for body in queued {
        if write_frame(&mut stream, &body).is_err() {
            return;
        }
    }
    slot.stream = Some(stream);
}

/// Writes a frame to the driver, queueing it if the driver has not
/// connected yet (or its connection just broke).
fn push_control(control: &ControlSlot, body: Vec<u8>) {
    let mut slot = locked(control);
    match slot.stream.as_mut() {
        Some(stream) => {
            if write_frame(stream, &body).is_err() {
                slot.stream = None;
                slot.pending.push(body);
            }
        }
        None => slot.pending.push(body),
    }
}

/// Driver-side reader of one control connection: records outputs as they
/// arrive (stamped with receipt time) and raises the goodbye flag on the
/// node's final `Shutdown` echo.
fn drain_control<M: WireCodec>(
    mut stream: TcpStream,
    p: ProcessId,
    shared: Arc<NetShared>,
    goodbye: Arc<AtomicBool>,
) {
    loop {
        match next_frame::<M>(&mut stream, &shared) {
            Some((Frame::Output(output), _)) => {
                let elapsed = shared.stopwatch.elapsed_ms();
                locked(&shared.outputs).record(p, elapsed, output);
            }
            Some((Frame::Shutdown, _)) => {
                goodbye.store(true, Ordering::SeqCst);
                return;
            }
            Some(_) => {
                shared.malformed.fetch_add(1, Ordering::SeqCst);
                return;
            }
            None => return,
        }
    }
}

/// Sends the heartbeat module's outbound messages over the peer links
/// (heartbeat traffic is not counted in the application metrics, matching
/// `ec-runtime`).
fn send_heartbeats<M: WireCodec>(
    me: ProcessId,
    actions: Actions<HeartbeatOmega>,
    links: &mut [PeerLink],
) {
    for (to, msg) in actions.sends {
        let frame: Frame<M> = Frame::Heartbeat { from: me, msg };
        let body = encode_body(&frame);
        if let Some(link) = links.get_mut(to.index()) {
            let _ = link.send(&body);
        }
    }
}

/// Dispatches a replica handler's actions: encodes and sends each message
/// over the peer links (counting actual frame bytes), and ships outputs to
/// the driver over the control connection.
fn dispatch_replica<S, B>(
    me: ProcessId,
    actions: Actions<Replica<S, B>>,
    links: &mut [PeerLink],
    shared: &NetShared,
    control: &ControlSlot,
) where
    S: StateMachine,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
    B::Msg: WireCodec,
{
    let sent = actions.sends.len();
    let mut wire_bytes = 0u64;
    for (to, msg) in actions.sends {
        let body = encode_body(&Frame::App { from: me, msg });
        if let Some(link) = links.get_mut(to.index()) {
            if let Some(wire_len) = link.send(&body) {
                wire_bytes += wire_len;
            }
        }
    }
    {
        let mut metrics = locked(&shared.metrics);
        for _ in 0..sent {
            metrics.record_send(me);
        }
        metrics.bytes_sent += wire_bytes;
        metrics.outputs += actions.outputs.len() as u64;
    }
    for output in actions.outputs {
        push_control(control, encode_body::<B::Msg>(&Frame::Output(output)));
    }
    // timer requests are satisfied by the periodic tick
}

/// The node event loop: `ec-runtime`'s process loop over sockets. Returns
/// the final replica for harvest.
#[allow(clippy::too_many_arguments)]
fn node_loop<S, B>(
    me: ProcessId,
    n: usize,
    mut replica: Replica<S, B>,
    receiver: Receiver<NetEvent<B::Msg>>,
    mut links: Vec<PeerLink>,
    shared: Arc<NetShared>,
    config: RuntimeConfig,
    derive: NetFdDerive<B::Fd>,
    control: ControlSlot,
) -> Replica<S, B>
where
    S: StateMachine,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
    B::Msg: WireCodec,
{
    let mut omega = HeartbeatOmega::new(me, n, config.heartbeat);
    let mut tick: u64 = 0;

    let hb_actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| a.on_start(ctx));
    send_heartbeats::<B::Msg>(me, hb_actions, &mut links);
    let fd = derive(omega.leader(), n);
    let app_actions = run_handler(&mut replica, me, n, fd, tick, |a, ctx| a.on_start(ctx));
    dispatch_replica(me, app_actions, &mut links, &shared, &control);

    let mut pacer = Pacer::start(config.tick);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return replica;
        }
        let Turn::Recv(wait) = pacer.turn() else {
            tick += 1;
            locked(&shared.metrics).timer_fires += 1;
            let hb_actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| a.on_timer(ctx));
            send_heartbeats::<B::Msg>(me, hb_actions, &mut links);
            let fd = derive(omega.leader(), n);
            let app_actions = run_handler(&mut replica, me, n, fd, tick, |a, ctx| a.on_timer(ctx));
            dispatch_replica(me, app_actions, &mut links, &shared, &control);
            continue;
        };
        match receiver.recv_timeout(wait) {
            Ok(NetEvent::Crash) => return replica,
            Ok(NetEvent::Shutdown) => {
                push_control(&control, encode_body::<B::Msg>(&Frame::Shutdown));
                return replica;
            }
            Ok(NetEvent::Heartbeat { from, msg }) => {
                let actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
                send_heartbeats::<B::Msg>(me, actions, &mut links);
            }
            Ok(NetEvent::App {
                from,
                msg,
                wire_len,
            }) => {
                {
                    let mut metrics = locked(&shared.metrics);
                    metrics.messages_delivered += 1;
                    metrics.bytes_delivered += wire_len;
                }
                let fd = derive(omega.leader(), n);
                let actions = run_handler(&mut replica, me, n, fd, tick, |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
                dispatch_replica(me, actions, &mut links, &shared, &control);
            }
            Ok(NetEvent::Stats { mut reply }) => {
                let report = replica
                    .broadcast_layer()
                    .recorder()
                    .map(|r| r.report())
                    .unwrap_or_default();
                let text = report.to_exposition(me.index() as u32);
                let body = encode_body::<B::Msg>(&Frame::StatsText(text.into_bytes()));
                let _ = write_frame(&mut reply, &body);
            }
            Ok(NetEvent::Input(input)) => {
                locked(&shared.metrics).inputs += 1;
                let fd = derive(omega.leader(), n);
                let actions = run_handler(&mut replica, me, n, fd, tick, |a, ctx| {
                    a.on_input(input, ctx)
                });
                dispatch_replica(me, actions, &mut links, &shared, &control);
            }
            // the next turn fires the tick that just came due
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return replica,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(applied: usize, bytes: &[u8]) -> ReplicaOutput {
        ReplicaOutput {
            applied,
            snapshot: bytes.into(),
        }
    }

    #[test]
    fn identical_snapshots_from_different_replicas_share_one_allocation() {
        let ids: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let mut recorder = OutputRecorder::new(3);
        // each replica's output is decoded from its own connection: three
        // separate allocations of the same bytes, then a differing one
        for p in &ids {
            recorder.record(*p, 1, output(1, b"state-1"));
        }
        recorder.record(ids[0], 2, output(2, b"state-2"));
        let latest = |recorder: &OutputRecorder, p: usize| {
            recorder.log.latest_of(ids[p]).map(|o| o.snapshot.clone())
        };
        let (Some(a), Some(b), Some(c)) = (
            latest(&recorder, 0),
            latest(&recorder, 1),
            latest(&recorder, 2),
        ) else {
            unreachable!("all three recorded")
        };
        assert!(Arc::ptr_eq(&b, &c), "same bytes, one allocation");
        assert!(
            !Arc::ptr_eq(&a, &b) && *a != *b,
            "different bytes stay apart"
        );
        // the log's first entry is the allocation the followers share
        let first = &recorder.log.all()[0].2;
        assert!(Arc::ptr_eq(&first.snapshot, &b));
        // sharing is by content only: `applied` never decides it
        recorder.record(ids[1], 3, output(9, b"state-2"));
        assert!(latest(&recorder, 1).is_some_and(|s| Arc::ptr_eq(&s, &a)));
    }

    #[test]
    fn only_recent_snapshots_are_sharing_candidates() {
        let p = ProcessId::new(0);
        let mut recorder = OutputRecorder::new(2);
        recorder.record(p, 0, output(0, b"old"));
        for k in 0..RECENT_SNAPSHOTS {
            recorder.record(p, 1, output(k + 1, &[k as u8]));
        }
        assert_eq!(recorder.recent.len(), RECENT_SNAPSHOTS);
        // "old" fell out of the window: equal bytes, but a fresh allocation
        recorder.record(ProcessId::new(1), 2, output(0, b"old"));
        let all = recorder.log.all();
        let (first, last) = (&all[0].2, &all[all.len() - 1].2);
        assert_eq!(first, last);
        assert!(!Arc::ptr_eq(&first.snapshot, &last.snapshot));
    }
}
