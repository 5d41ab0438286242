//! # `ec-runtime` — a thread-per-process real-time runtime
//!
//! The simulator in `ec-sim` executes algorithms deterministically against a
//! modeled network. This crate runs the *same* [`ec_sim::Algorithm`]
//! implementations as real concurrent processes: one OS thread per process,
//! `crossbeam-channel` links between them, wall-clock periodic ticks in place
//! of the simulator's scheduled timeouts, and a message-based
//! [`ec_detectors::HeartbeatOmega`] instance per process supplying the Ω
//! values the algorithms query.
//!
//! It exists to demonstrate that the algorithms are not simulator artifacts:
//! the quickstart and `runtime_demo` example run Algorithm 5 end to end over
//! real threads, and the integration tests verify the same ETOB properties on
//! the histories collected from a threaded run, including across a leader
//! crash.
//!
//! Differences from the simulator (documented, deliberate):
//!
//! * timers: algorithms' `set_timer` requests are not tracked individually;
//!   every process receives an `on_timer` call once per configured tick,
//!   which is how the paper's "on local timeout" clauses are meant to be
//!   driven anyway. The tick is held against a wall-clock deadline
//!   ([`Pacer`]), so it keeps its period under load: a busy inbox cannot
//!   postpone it, and a late loop skips the ticks it missed instead of
//!   replaying them;
//! * failure detection: Ω is implemented by heartbeats and timeouts, so its
//!   stabilization time depends on real scheduling latencies rather than on a
//!   scripted oracle. Algorithms whose failure detector is richer than Ω can
//!   still run via [`Runtime::spawn_with_fd`], which derives each step's
//!   detector value from the current heartbeat leader — e.g. pairing it with
//!   a static full-membership quorum to realize the Ω + Σ the strongly
//!   consistent baseline queries (valid while no process crashes; after a
//!   crash such a Σ stops being live, which is exactly the paper's point
//!   about the price of strong consistency).
//!
//! This crate is usually not driven directly: the `ec-replication` crate's
//! `ThreadEngine` wraps [`Runtime`] behind the same `Cluster`/`Session`
//! facade that drives the simulator, so a replicated service can switch
//! between deterministic simulation and real threads as configuration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
mod outputs;
pub mod pacer;
mod runtime;

pub use clock::{sleep_ms, Stopwatch};
pub use outputs::OutputLog;
pub use pacer::{Pacer, Turn};
pub use runtime::{run_handler, Runtime, RuntimeConfig, RuntimeReport};
