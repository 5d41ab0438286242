//! The socket-backed deployment: real replicas over loopback TCP.
//!
//! Where [`crate::SimEngine`] schedules handlers inside a deterministic
//! simulator and [`crate::ThreadEngine`] runs the real-time runtime of
//! `ec-runtime` over in-memory channels, [`crate::NetEngine`] runs the same
//! runtime — same node loop, same heartbeat Ω, same crash and restart —
//! over [`TcpTransport`]: each replica an independent node that speaks a
//! hand-rolled length-prefixed binary codec over real TCP sockets
//! (loopback, ephemeral ports). Heartbeats travel over the same
//! connections as protocol traffic. The facade shares the nodes' process
//! and reaches them in-process, as on the thread engine, so sockets carry
//! only what peers send one another and the metrics scrape.
//!
//! Layering:
//!
//! * [`codec`] — the frame format: u32 length prefix + tagged body, typed
//!   [`codec::DecodeError`] on anything malformed;
//! * `transport` (crate-private) — blocking frame I/O over `TcpStream`s and
//!   peer links with reconnect;
//! * `node` (crate-private) — [`TcpTransport`] itself: listeners,
//!   acceptors, and the reader threads that turn inbound frames into node
//!   events (counting, never propagating, malformed input).

pub mod codec;

pub(crate) mod node;
pub(crate) mod transport;

pub use node::{TcpLinks, TcpTransport};
