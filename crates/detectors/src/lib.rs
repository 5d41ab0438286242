//! # `ec-detectors` — failure detector implementations
//!
//! A failure detector `D` with range `R` maps every failure pattern `F` to a
//! set of histories `H : Π × N → R` (Section 2 of the paper). This crate
//! provides:
//!
//! * [`omega::OmegaOracle`] — the eventual leader detector Ω, the central
//!   object of the paper: eventually, the same correct process is output
//!   permanently at every correct process. The oracle is parameterized by a
//!   stabilization time and by the behaviour *before* stabilization (leaders
//!   may diverge arbitrarily), which is how the experiments exercise the
//!   "partition period" behaviour of Algorithm 5.
//! * [`sigma::SigmaOracle`] — the quorum detector Σ: any two output quorums
//!   intersect, and eventually quorums contain only correct processes. Σ is
//!   exactly what separates strong from eventual consistency (Sections 1
//!   and 7), and gates the strongly consistent baseline in `ec-core`.
//! * [`heartbeat::HeartbeatOmega`] — a message-based implementation of Ω for
//!   partially synchronous periods, written as an [`ec_sim::Algorithm`]; used
//!   by the ablation experiment A1 and by the real-time runtime.
//! * [`scripted::ScriptedFd`] — an arbitrary failure detector defined by an
//!   explicit history, used by the CHT reduction tests to realize the
//!   adversarial histories the proofs quantify over.
//! * [`scripted::OverlayFd`] — scripted *lies* layered over any honest
//!   detector: chosen observers see a chosen wrong value during finite
//!   windows. The chaos nemesis routes its Ω-lie fault through this wrapper.
//! * [`checks`] — executable property checkers that verify a recorded
//!   [`ec_sim::FdHistory`] against the defining properties of Ω and Σ.

#![warn(missing_docs)]
// Unit tests may unwrap freely; the lint guards protocol paths only.
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_debug_implementations)]

pub mod checks;
pub mod combined;
pub mod heartbeat;
pub mod omega;
pub mod scripted;
pub mod sigma;

pub use checks::{check_omega_history, check_sigma_history, OmegaViolation, SigmaViolation};
pub use combined::PairFd;
pub use heartbeat::{HeartbeatConfig, HeartbeatMsg, HeartbeatOmega};
pub use omega::{OmegaOracle, PreStabilization};
pub use scripted::{LieWindow, OverlayFd, ScriptedFd};
pub use sigma::SigmaOracle;
