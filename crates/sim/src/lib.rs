//! # `ec-sim` — deterministic asynchronous message-passing simulator
//!
//! This crate implements, as an executable substrate, the formal system model
//! of Section 2 of *"The Weakest Failure Detector for Eventual Consistency"*
//! (PODC 2015):
//!
//! * a set of processes `Π = {p_1, …, p_n}` executing steps asynchronously,
//! * a discrete global clock the processes do not have access to,
//! * reliable links between every pair of processes,
//! * crash failures described by a [`FailurePattern`] `F : N → 2^Π`,
//! * failure detectors described by histories `H : Π × N → R`, realized here
//!   by the [`FailureDetector`] trait queried once per step,
//! * steps `(p, m, d, A)` in which a process receives a message (possibly the
//!   empty message λ), queries its failure detector, changes state, and sends
//!   messages / produces outputs.
//!
//! Algorithms are written against the [`Algorithm`] trait and executed by a
//! [`World`], which schedules message deliveries, local timeouts and
//! application inputs deterministically from a seed. Every run records its
//! output history `H_O` — an [`OutputHistory`], what each process output and
//! when — which is what the specification checkers in `ec-core` evaluate the
//! paper's definitions on.
//!
//! The simulator supports scripted *partitions* (periods during which links
//! between groups of processes delay all traffic until the partition heals),
//! which is how the experiments exercise the paper's claim that eventual
//! consistency — unlike strong consistency — does not require the quorum
//! detector Σ. For adversarial (chaos) testing it additionally supports
//! scripted *link faults* — seeded probabilistic loss, duplication and
//! reordering jitter inside [`FaultWindow`]s — and *crash–recovery* windows
//! in the [`FailurePattern`], with a [`RecoveryPolicy`] choosing whether a
//! rejoining process retains or clears its pre-crash state.
//!
//! # Example
//!
//! ```
//! use ec_sim::{Algorithm, Context, NullFd, ProcessId, WorldBuilder, NetworkModel, FailurePattern};
//!
//! /// Every process broadcasts a ping on start and counts received pings.
//! #[derive(Default)]
//! struct Ping {
//!     received: usize,
//! }
//!
//! impl Algorithm for Ping {
//!     type Msg = ();
//!     type Input = ();
//!     type Output = usize;
//!     type Fd = ();
//!
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
//!         ctx.broadcast(());
//!     }
//!     fn on_message(&mut self, _from: ProcessId, _msg: (), ctx: &mut Context<'_, Self>) {
//!         self.received += 1;
//!         ctx.output(self.received);
//!     }
//! }
//!
//! let n = 3;
//! let mut world = WorldBuilder::new(n)
//!     .network(NetworkModel::fixed_delay(1))
//!     .failures(FailurePattern::no_failures(n))
//!     .build_with(|_p| Ping::default(), NullFd);
//! world.run_until(100);
//! // every process received a ping from every process (including itself)
//! for p in world.process_ids() {
//!     assert_eq!(world.output_history().last(p), Some(&n));
//! }
//! ```

#![warn(missing_docs)]
// Unit tests may unwrap freely; the lint guards protocol paths only.
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_debug_implementations)]

mod algorithm;
mod failure;
mod fd;
mod history;
mod metrics;
mod network;
mod process;
mod time;
mod world;

pub use algorithm::{Actions, Algorithm, Context};
pub use failure::{DownWindow, FailurePattern};
pub use fd::{FailureDetector, FdHistory, FdSample, NullFd, RecordingFd};
pub use history::{OutputHistory, OutputSnapshot};
pub use metrics::Metrics;
pub use network::{
    DelayModel, FaultWindow, LinkFaults, LinkScope, NetworkModel, PartitionSpec, PartitionWindow,
};
pub use process::{ProcessId, ProcessSet};
pub use time::Time;
pub use world::{RecoveryPolicy, World, WorldBuilder};
