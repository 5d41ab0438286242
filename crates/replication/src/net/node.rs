//! The TCP transport: what the real-time runtime needs to run replicas as
//! socket nodes.
//!
//! The node loop, crash/restart and the bookkeeping are `ec-runtime`'s and
//! shared with the thread engine. This module owns what is particular to
//! sockets. Each node has its own loopback `TcpListener` with an acceptor
//! thread, one reader thread per inbound connection ([`serve_connection`])
//! that decodes frames straight into the node's inbox, outbound
//! [`PeerLink`]s to every peer, and one *control* connection to the driver
//! (the facade) carrying inputs inbound and outputs outbound. Protocol
//! messages and failure-detector heartbeats travel over the same peer
//! connections in the [`crate::net::codec`] frame format, so every byte the
//! algorithms exchange really crosses a socket. Anything malformed on any
//! connection is counted and closes that connection; nothing a peer sends
//! can panic a node.
//!
//! Outputs are recorded driver-side by one reader per control connection
//! ([`drain_control`]), stamped at receipt.
//!
//! Teardown protocol: the driver sends a `Shutdown` frame on each control
//! connection; a node drains its queue, flushes its last outputs, echoes
//! `Shutdown` as a goodbye, and returns its replica for harvest. Crashed
//! nodes (`Crash` frame) return silently and keep their listener accepting
//! — inbound traffic for a dead node is swallowed, like sends to a crashed
//! process in the model. A restart starts a fresh incarnation behind the
//! same address; reader threads parked on connections of dead incarnations
//! are left to exit with the process (they hold no locks).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use ec_detectors::HeartbeatMsg;
use ec_runtime::{Event, Hub, Links, Mutex, Transport, GOODBYE_WAIT_MS};
use ec_sim::{Algorithm, ProcessId};

use crate::engine::BroadcastLayer;
use crate::net::codec::{decode_body, encode_body, hello_body, Frame, WireCodec, DRIVER, SCRAPER};
use crate::net::transport::{read_frame, write_frame, PeerLink, ReadError};
use crate::replica::{Replica, ReplicaOutput};
use crate::state_machine::StateMachine;

/// Names the setup step an I/O error came from.
fn step<T>(what: &str, result: io::Result<T>) -> io::Result<T> {
    result.map_err(|err| io::Error::new(err.kind(), format!("could not {what}: {err}")))
}

/// The node-side write end of the control connection, plus the frames
/// queued before the driver connected.
#[derive(Debug, Default)]
struct ControlOut {
    stream: Option<TcpStream>,
    pending: Vec<Vec<u8>>,
}

type ControlSlot = Arc<Mutex<ControlOut>>;

/// The per-node handles that survive restarts (the listen address, the
/// control write end) and the driver's end of the current incarnation's
/// control connection.
#[derive(Debug)]
struct NodeSlot {
    addr: SocketAddr,
    control: ControlSlot,
    driver: Option<TcpStream>,
}

/// Runs each node of a real-time run behind its own loopback TCP listener
/// (see the module docs).
#[derive(Debug)]
pub struct TcpTransport {
    nodes: Vec<NodeSlot>,
    acceptors: Vec<JoinHandle<()>>,
}

/// One incarnation's sockets: a link per destination and the control write
/// end.
#[derive(Debug)]
pub struct TcpLinks {
    me: ProcessId,
    /// One link per destination, self included: algorithms send to
    /// themselves (e.g. the leader delivering its own sequence), and those
    /// frames loop through the node's own listener like any other.
    links: Vec<PeerLink>,
    control: ControlSlot,
}

impl<S, B> Links<Replica<S, B>> for TcpLinks
where
    S: StateMachine,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    fn send(&mut self, to: ProcessId, msg: B::Msg) -> u64 {
        let body = encode_body(&Frame::App { from: self.me, msg });
        let link = self.links.get_mut(to.index());
        link.and_then(|link| link.send(&body)).unwrap_or(0)
    }

    fn heartbeat(&mut self, to: ProcessId, msg: HeartbeatMsg) {
        let body = encode_body::<B::Msg>(&Frame::Heartbeat { from: self.me, msg });
        if let Some(link) = self.links.get_mut(to.index()) {
            let _ = link.send(&body);
        }
    }

    fn output(&mut self, output: ReplicaOutput) {
        push_control(&self.control, encode_body::<B::Msg>(&Frame::Output(output)));
    }

    fn goodbye(&mut self) {
        push_control(&self.control, encode_body::<B::Msg>(&Frame::Shutdown));
    }
}

impl<S, B> Transport<Replica<S, B>> for TcpTransport
where
    S: StateMachine + Send + 'static,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    type Links = TcpLinks;

    /// Binds one loopback listener per node and starts their acceptors.
    fn bind(hub: &Arc<Hub<Replica<S, B>>>) -> io::Result<Self> {
        let mut listeners = Vec::with_capacity(hub.n());
        let mut nodes = Vec::with_capacity(hub.n());
        for _ in 0..hub.n() {
            let listener = TcpListener::bind(("127.0.0.1", 0));
            let listener = step("bind a loopback listener", listener)?;
            nodes.push(NodeSlot {
                addr: step("read a listener address", listener.local_addr())?,
                control: ControlSlot::default(),
                driver: None,
            });
            listeners.push(listener);
        }
        // threads only once nothing above can fail any more
        let acceptors = listeners
            .into_iter()
            .zip(&nodes)
            .enumerate()
            .map(|(i, (listener, node))| {
                let (p, hub) = (ProcessId::new(i), Arc::clone(hub));
                let control = Arc::clone(&node.control);
                std::thread::spawn(move || accept_loop(listener, p, hub, control))
            })
            .collect();
        Ok(TcpTransport { nodes, acceptors })
    }

    /// Resets the control plumbing of `p`'s dead incarnation, dials a
    /// control connection (starting the driver-side reader that records
    /// outputs and the goodbye) and hands out fresh peer links.
    fn open(&mut self, p: ProcessId, hub: &Arc<Hub<Replica<S, B>>>) -> io::Result<TcpLinks> {
        let links: Vec<PeerLink> = self
            .nodes
            .iter()
            .map(|node| PeerLink::new(p.index() as u32, node.addr))
            .collect();
        let Some(node) = self.nodes.get_mut(p.index()) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such node"));
        };
        node.driver = None;
        *node.control.lock() = ControlOut::default();
        let mut stream = step("dial a control connection", TcpStream::connect(node.addr))?;
        let _ = stream.set_nodelay(true);
        let greeted = write_frame(&mut stream, &hello_body(DRIVER));
        step("greet over the control connection", greeted)?;
        let reader = step("clone the control connection", stream.try_clone())?;
        let hub = Arc::clone(hub);
        std::thread::spawn(move || drain_control(reader, p, hub));
        node.driver = Some(stream);
        Ok(TcpLinks {
            me: p,
            links,
            control: Arc::clone(&node.control),
        })
    }

    /// Inputs, crashes and shutdowns cross the control connection as
    /// frames; a dead node swallows them, like the model's crashed process.
    fn deliver(&mut self, p: ProcessId, event: Event<Replica<S, B>>, hub: &Hub<Replica<S, B>>) {
        let frame: Frame<B::Msg> = match event {
            Event::Input(command) => Frame::Input(command),
            Event::Crash => Frame::Crash,
            Event::Shutdown => Frame::Shutdown,
            // no frame carries the rest: in-process events go in-process
            local => {
                hub.send(p, local);
                return;
            }
        };
        let node = self.nodes.get_mut(p.index());
        if let Some(stream) = node.and_then(|node| node.driver.as_mut()) {
            let _ = write_frame(stream, &encode_body(&frame));
        }
    }

    /// Stops the acceptors: the hub's stop flag is up, so one dummy
    /// connection each unblocks them.
    fn close(&mut self) {
        for node in &self.nodes {
            let _ = TcpStream::connect(node.addr);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
    }

    /// The listen address of node `p` (tests dial it to inject raw frames).
    fn addr(&self, p: ProcessId) -> Option<SocketAddr> {
        self.nodes.get(p.index()).map(|node| node.addr)
    }

    /// Scrapes node `p` over a fresh connection: `Hello(SCRAPER)`, one
    /// `StatsRequest`, one `StatsText` reply. `None` if unreachable.
    fn scrape(&self, p: ProcessId) -> Option<String> {
        let mut stream = TcpStream::connect(self.nodes.get(p.index())?.addr).ok()?;
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
}

/// Accepts inbound connections for node `p` until the stop flag is set,
/// handing each to its own reader thread.
fn accept_loop<S, B>(
    listener: TcpListener,
    p: ProcessId,
    hub: Arc<Hub<Replica<S, B>>>,
    control: ControlSlot,
) where
    S: StateMachine + Send + 'static,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    while let Ok((stream, _)) = listener.accept() {
        if hub.stopped() {
            return;
        }
        let (hub, control) = (Arc::clone(&hub), Arc::clone(&control));
        std::thread::spawn(move || serve_connection(stream, p, hub, control));
    }
}

/// Reads one frame and decodes it, counting malformed input. `None` ends
/// the connection (I/O error, EOF, or malformed bytes).
fn next_frame<A: Algorithm, M: WireCodec>(
    stream: &mut TcpStream,
    hub: &Hub<A>,
) -> Option<(Frame<M>, u64)> {
    match read_frame(stream) {
        Ok(body) => match decode_body::<M>(&body) {
            Ok(frame) => Some((frame, 4 + body.len() as u64)),
            Err(_) => {
                hub.count_malformed();
                None
            }
        },
        Err(ReadError::Malformed(_)) => {
            hub.count_malformed();
            None
        }
        Err(ReadError::Io(_)) => None,
    }
}

/// Serves one inbound connection at node `p`: expects a `Hello`, then feeds
/// decoded frames to the node's current inbox — a restart swaps in the new
/// incarnation's, a dead incarnation swallows the event. Closes (counting
/// it as malformed) on any frame the node side must never receive.
fn serve_connection<S, B>(
    mut stream: TcpStream,
    p: ProcessId,
    hub: Arc<Hub<Replica<S, B>>>,
    control: ControlSlot,
) where
    S: StateMachine + Send + 'static,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    let _ = stream.set_nodelay(true);
    match next_frame::<_, B::Msg>(&mut stream, &hub) {
        Some((Frame::Hello { from }, _)) => {
            if from == DRIVER {
                if let Ok(write_end) = stream.try_clone() {
                    install_control(&control, write_end);
                }
            }
        }
        Some(_) => {
            hub.count_malformed();
            return;
        }
        None => return,
    }
    loop {
        let event = match next_frame::<_, B::Msg>(&mut stream, &hub) {
            Some((Frame::App { from, msg }, wire_len)) => Event::App {
                from,
                msg,
                wire_len,
            },
            Some((Frame::Heartbeat { from, msg }, _)) => Event::Heartbeat { from, msg },
            Some((Frame::Input(command), _)) => Event::Input(command),
            Some((Frame::Crash, _)) => Event::Crash,
            Some((Frame::Shutdown, _)) => Event::Shutdown,
            Some((Frame::StatsRequest, _)) => match stream.try_clone() {
                Ok(reply) => {
                    Event::Inspect(Box::new(move |replica| answer_scrape(replica, p, reply)))
                }
                Err(_) => return,
            },
            Some((Frame::Hello { .. } | Frame::Output(_) | Frame::StatsText(_), _)) => {
                hub.count_malformed();
                return;
            }
            None => return,
        };
        hub.send(p, event);
    }
}

/// Renders the live metrics exposition of `replica` and writes it back
/// over the scrape connection.
fn answer_scrape<S, B>(replica: &Replica<S, B>, p: ProcessId, mut reply: TcpStream)
where
    S: StateMachine,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    let text = replica.telemetry().to_exposition(p.index() as u32);
    let body = encode_body::<B::Msg>(&Frame::StatsText(text.into_bytes()));
    let _ = write_frame(&mut reply, &body);
}

/// Installs the node-side write end of the control connection and flushes
/// the outputs queued while no driver was connected.
fn install_control(control: &ControlSlot, mut stream: TcpStream) {
    let mut slot = control.lock();
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
    let mut slot = control.lock();
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
/// arrive (stamped with receipt time) and passes on the goodbye, the
/// node's final `Shutdown` echo.
fn drain_control<S, B>(mut stream: TcpStream, p: ProcessId, hub: Arc<Hub<Replica<S, B>>>)
where
    S: StateMachine,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    loop {
        match next_frame::<_, B::Msg>(&mut stream, &hub) {
            Some((Frame::Output(output), _)) => hub.record_output(p, output),
            Some((Frame::Shutdown, _)) => return hub.goodbye(p),
            Some(_) => {
                hub.count_malformed();
                return;
            }
            None => return,
        }
    }
}
