//! # `ec-runtime` — the real-time runtime, over any transport
//!
//! The simulator in `ec-sim` executes algorithms deterministically against a
//! modeled network. This crate runs the *same* [`ec_sim::Algorithm`]
//! implementations as real concurrent processes, and it is the one place
//! that does: both real-time engines of `ec-replication` — threads joined by
//! channels, nodes joined by loopback TCP — are this runtime over a
//! different [`Transport`].
//!
//! * [`Runtime`] is the driver side: it launches one OS thread per process,
//!   submits inputs, crashes and restarts processes (a restart is a fresh
//!   incarnation behind the same inbox), keeps the counters and the output
//!   record, and answers every read of an automaton the same way, live,
//!   crashed or stopped ([`Runtime::look`]).
//! * The node loop (one function, in `node.rs`) is the process side:
//!   a message-based [`ec_detectors::HeartbeatOmega`] per process supplies
//!   the Ω value — or, through the `derive` hook, any detector value that is
//!   a function of the current leader, e.g. the `(leader, quorum)` pairs of
//!   the Ω + Σ baseline — and a deadline-driven [`Pacer`] fires `on_timer`
//!   every [`RuntimeConfig::tick`] of wall-clock time however busy the inbox
//!   is.
//! * A [`Transport`] supplies only what differs between substrates: how an
//!   incarnation's [`Links`] to its peers are opened, and teardown. A
//!   driver [`Event`] goes straight into the node's inbox, and the node
//!   loop records outputs straight into the hub, on every transport, so a
//!   wire carries only what peers send one another. [`ChannelTransport`]
//!   lives here; the TCP one lives in `ec_replication::net`; a test
//!   substitutes a fake.
//!
//! Differences from the simulator (documented, deliberate):
//!
//! * timers: algorithms' `set_timer` requests are not tracked individually;
//!   every process receives an `on_timer` call once per configured tick,
//!   which is how the paper's "on local timeout" clauses are meant to be
//!   driven anyway. A late loop skips the ticks it missed instead of
//!   replaying them;
//! * failure detection: Ω is implemented by heartbeats and timeouts, so its
//!   stabilization time depends on real scheduling latencies rather than on a
//!   scripted oracle. A static full-membership quorum paired with it is a
//!   valid Σ only while no process crashes; after a crash it stops being
//!   live. That is a limitation of a static full-membership Σ, not the
//!   price of strong consistency the paper quantifies: the paper's Σ gap
//!   is an environment *without* a correct majority, and majorities
//!   implement Σ wherever a majority is correct (ROADMAP item 8).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
pub mod clock;
mod node;
pub mod pacer;
mod runtime;

pub use channel::{ChannelLinks, ChannelTransport};
pub use clock::{sleep_ms, Stopwatch};
pub use node::{Event, Links};
pub use pacer::{Pacer, Turn};
pub use runtime::{Hub, Runtime, RuntimeConfig, Transport, GOODBYE_WAIT_MS};
