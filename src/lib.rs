//! Umbrella crate for the reproduction of *"The Weakest Failure Detector for
//! Eventual Consistency"* (Dubois, Guerraoui, Kuznetsov, Petit, Sens — PODC
//! 2015).
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can use a single dependency:
//!
//! * [`sim`] — deterministic asynchronous message-passing simulator
//!   (the system model of Section 2 of the paper).
//! * [`detectors`] — failure-detector oracles (Ω, Σ, ◇P, P) and a
//!   heartbeat-based Ω implementation.
//! * [`core`] — the paper's contribution: eventual consensus (EC), eventual
//!   total order broadcast (ETOB), the transformations between them, the
//!   Ω-based algorithms (Algorithms 4 and 5), and strongly consistent
//!   baselines.
//! * [`cht`] — the generalized CHT reduction extracting Ω from any EC
//!   implementation (Section 4 / Appendix B).
//! * [`replication`] — the service layer: the `Cluster`/`Session` facade
//!   deploying replicated state machines at a chosen consistency level on a
//!   chosen execution engine.
//! * [`runtime`] — the real-time runtime: the same algorithms as OS threads,
//!   one node loop over channels (`ThreadEngine`) or TCP (`NetEngine`).
//! * [`chaos`] — the adversarial-testing subsystem: a fault-injection
//!   nemesis (partitions, lossy/duplicating links, crash–recovery, Ω lies),
//!   a seeded randomized scenario explorer with a greedy shrinker, and
//!   history-based consistency checkers (convergence, session order, and a
//!   WGL-style linearizability search for strong runs).
//! * [`telemetry`] — the dependency-free observability layer: per-replica
//!   flight-recorder event rings, log-linear latency histograms
//!   (submit→deliver, promote→deliver, stability lag), and the mergeable
//!   report every engine surfaces through `ClusterReport`.
//!
//! # Quickstart
//!
//! A replicated service is three configuration choices: *what* is
//! replicated (any deterministic state machine), *how strongly*
//! (`Consistency::Eventual` = Algorithm 5 over Ω; `Consistency::Strong` =
//! the Ω + Σ quorum sequencer), and *where* it runs (`SimEngine` for
//! deterministic simulation, `ThreadEngine`/`NetEngine` for real OS threads):
//!
//! ```
//! use eventual_consistency::replication::{
//!     ClusterBuilder, Consistency, KvStore, SimEngine,
//! };
//!
//! // Three KV replicas, eventually consistent, on the simulator.
//! let mut cluster = ClusterBuilder::<KvStore>::new(3)
//!     .consistency(Consistency::Eventual)
//!     .deploy(&SimEngine::new());
//!
//! // Sessions thread causal dependencies automatically: this client's
//! // second write is guaranteed to overwrite its first, everywhere.
//! let mut session = cluster.session();
//! cluster.submit(&mut session, KvStore::put("greeting", "hello"), 10);
//! cluster.submit(&mut session, KvStore::put("greeting", "world"), 20);
//! cluster.run_until(2_000);
//!
//! for p in cluster.replica_ids() {
//!     assert_eq!(cluster.state(p).unwrap().get("greeting"), Some("world"));
//! }
//! let report = cluster.report();
//! assert!(report.all_converged());
//! // swap `SimEngine::new()` for `ThreadEngine::default()` and the same
//! // code runs over real threads — see examples/quickstart.rs and the
//! // cross-engine conformance suite in tests/conformance.rs.
//! ```
//!
//! # The low-level path
//!
//! The facade wires `Replica<S, B>` over a broadcast layer and a failure
//! detector for you. Experiments that need direct control — scripted Ω
//! histories, custom broadcast layers, the specification checkers — build
//! worlds by hand with [`sim::WorldBuilder`] and the pieces in [`core`];
//! the `tests/` suites and `ec-bench` show that style.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use ec_chaos as chaos;
pub use ec_cht as cht;
pub use ec_core as core;
pub use ec_detectors as detectors;
pub use ec_replication as replication;
pub use ec_runtime as runtime;
pub use ec_sim as sim;
pub use ec_telemetry as telemetry;
