//! The TCP transport: what the real-time runtime needs to run replicas as
//! socket nodes.
//!
//! The node loop, crash/restart and the bookkeeping are `ec-runtime`'s and
//! shared with the thread engine. This module owns what is particular to
//! sockets. Each node has its own loopback `TcpListener` with an acceptor
//! thread, one reader thread per inbound connection ([`serve_connection`])
//! that decodes frames straight into the node's inbox, and outbound
//! [`PeerLink`]s to every peer. Protocol messages and failure-detector
//! heartbeats travel over the same peer connections in the
//! [`crate::net::codec`] frame format, so every byte the algorithms
//! exchange really crosses a socket. Anything malformed on any connection
//! is counted and closes that connection; nothing a peer sends can panic a
//! node.
//!
//! The facade shares the nodes' process and reaches them in-process, as on
//! the thread engine: inputs, crashes and shutdowns go into the inbox, and
//! the node loop records outputs and the goodbye in the hub. A connection
//! therefore carries only peer traffic and the metrics scrape; no
//! connection can stop a node or take its outputs. A crashed node keeps its
//! listener accepting — inbound traffic for a dead node is swallowed, like
//! sends to a crashed process in the model — and a restart starts a fresh
//! incarnation behind the same address, whose inbox the readers already
//! serving it feed.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use ec_detectors::HeartbeatMsg;
use ec_runtime::{Event, Hub, Links, Transport, GOODBYE_WAIT_MS};
use ec_sim::{Algorithm, ProcessId};

use crate::engine::BroadcastLayer;
use crate::net::codec::{decode_body, encode_body, hello_body, Frame, WireCodec, SCRAPER};
use crate::net::transport::{read_frame, write_frame, PeerLink, ReadError};
use crate::replica::Replica;
use crate::state_machine::StateMachine;

/// Names the setup step an I/O error came from.
fn step<T>(what: &str, result: io::Result<T>) -> io::Result<T> {
    result.map_err(|err| io::Error::new(err.kind(), format!("could not {what}: {err}")))
}

/// Runs each node of a real-time run behind its own loopback TCP listener
/// (see the module docs).
#[derive(Debug)]
pub struct TcpTransport {
    /// The listen address of each node, the same for every incarnation.
    addrs: Vec<SocketAddr>,
    acceptors: Vec<JoinHandle<()>>,
}

/// One incarnation's sockets: a link per destination.
#[derive(Debug)]
pub struct TcpLinks {
    me: ProcessId,
    /// One link per destination, self included: algorithms send to
    /// themselves (e.g. the leader delivering its own sequence), and those
    /// frames loop through the node's own listener like any other.
    links: Vec<PeerLink>,
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
        let mut addrs = Vec::with_capacity(hub.n());
        for _ in 0..hub.n() {
            let listener = TcpListener::bind(("127.0.0.1", 0));
            let listener = step("bind a loopback listener", listener)?;
            addrs.push(step("read a listener address", listener.local_addr())?);
            listeners.push(listener);
        }
        // threads only once nothing above can fail any more
        let acceptors = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let (p, hub) = (ProcessId::new(i), Arc::clone(hub));
                std::thread::spawn(move || accept_loop(listener, p, hub))
            })
            .collect();
        Ok(TcpTransport { addrs, acceptors })
    }

    /// Hands a fresh incarnation of `p` a link to every node's address;
    /// each dials on its first send.
    fn open(&mut self, p: ProcessId, _hub: &Arc<Hub<Replica<S, B>>>) -> io::Result<TcpLinks> {
        if p.index() >= self.addrs.len() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such node"));
        }
        let links = self
            .addrs
            .iter()
            .map(|addr| PeerLink::new(p.index() as u32, *addr))
            .collect();
        Ok(TcpLinks { me: p, links })
    }

    /// Stops the acceptors: the hub's stop flag is up, so one dummy
    /// connection each unblocks them.
    fn close(&mut self) {
        for addr in &self.addrs {
            let _ = TcpStream::connect(addr);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
    }

    /// The listen address of node `p` (tests dial it to inject raw frames).
    fn addr(&self, p: ProcessId) -> Option<SocketAddr> {
        self.addrs.get(p.index()).copied()
    }

    /// Scrapes node `p` over a fresh connection: `Hello(SCRAPER)`, one
    /// `StatsRequest`, one `StatsText` reply. `None` if unreachable.
    fn scrape(&self, p: ProcessId) -> Option<String> {
        let mut stream = TcpStream::connect(self.addrs.get(p.index())?).ok()?;
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
fn accept_loop<S, B>(listener: TcpListener, p: ProcessId, hub: Arc<Hub<Replica<S, B>>>)
where
    S: StateMachine + Send + 'static,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    while let Ok((stream, _)) = listener.accept() {
        if hub.stopped() {
            return;
        }
        let hub = Arc::clone(&hub);
        std::thread::spawn(move || serve_connection(stream, p, hub));
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
/// peer frames to the node's current inbox — a restart swaps in the new
/// incarnation's, a dead incarnation swallows the event — and answers
/// scrapes. Closes (counting it as malformed) on any frame the node side
/// must never receive.
fn serve_connection<S, B>(mut stream: TcpStream, p: ProcessId, hub: Arc<Hub<Replica<S, B>>>)
where
    S: StateMachine + Send + 'static,
    B: BroadcastLayer,
    B::Msg: WireCodec,
{
    let _ = stream.set_nodelay(true);
    match next_frame::<_, B::Msg>(&mut stream, &hub) {
        Some((Frame::Hello { .. }, _)) => {}
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
            Some((Frame::StatsRequest, _)) => match stream.try_clone() {
                Ok(reply) => {
                    Event::Inspect(Box::new(move |replica| answer_scrape(replica, p, reply)))
                }
                Err(_) => return,
            },
            Some((Frame::Hello { .. } | Frame::StatsText(_), _)) => {
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
