//! # `ec-chaos` — fault-injection nemesis and history-based consistency
//! checking over the `Cluster` facade
//!
//! The paper's central claim is that eventual total order broadcast over Ω
//! converges *despite* asynchrony and failures. The rest of the workspace
//! proves that on hand-scripted scenarios; this crate turns the claim into a
//! scenario-diversity machine in the Jepsen/madsim tradition:
//!
//! * [`scenario`] — the nemesis DSL: a [`Scenario`] declares replicas,
//!   consistency level, seed, a client workload, and a script of
//!   [`NemesisOp`] faults (partitions, lossy/duplicating/reordering links,
//!   crash–recovery, permanent crashes, Ω lie windows) and the engine it
//!   runs on. By default it compiles onto the deterministic `SimEngine`, so
//!   every run is bit-reproducible and every scenario value is a replayable
//!   artifact; on the thread and net engines it scripts crashes and
//!   restarts only.
//! * [`gen`] — [`ScenarioGen`], the seeded randomized explorer: one seed =
//!   one unbounded, well-formed scenario stream.
//! * [`driver`] — [`run_scenario`] deploys a scenario on its engine, applies
//!   its crashes and restarts through the facade, and replays its workload
//!   through `Cluster` [`ec_replication::Session`]s, recording a per-client
//!   operation history (writes with invocation/acknowledgement intervals;
//!   barrier reads at strong consistency).
//! * [`checker`] — [`check_outcome`] validates the history post hoc:
//!   convergence of correct replicas to byte-identical snapshots once
//!   faults cease, delivery integrity under duplication, session causal
//!   order, and — at `Consistency::Strong` — a WGL-style linearizability
//!   search ([`lin`]).
//! * [`shrink`] — a greedy shrinker minimizing a failing scenario to a
//!   replayable counterexample.
//! * [`artifact`] — the flight-recorder dump: on checker failure, the
//!   per-replica telemetry rings of the failed run are causally merged and
//!   written next to the counterexample as one readable timeline.
//! * [`fixtures`] — deliberately broken state machines ([`MergingKv`], an
//!   injected treat-writes-as-commutative bug) that prove the checkers can
//!   actually fail.
//!
//! # Example
//!
//! ```
//! use ec_chaos::{check_outcome, run_scenario, ScenarioGen};
//! use ec_replication::{Consistency, KvStore};
//!
//! let mut explorer = ScenarioGen::new(42);
//! let scenario = explorer.generate(Consistency::Eventual);
//! let outcome = run_scenario::<KvStore>(&scenario);
//! let verdict = check_outcome(&outcome);
//! assert!(verdict.ok(), "{verdict}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod checker;
pub mod driver;
pub mod fixtures;
pub mod gen;
pub mod lin;
pub mod scenario;
pub mod shrink;

pub use artifact::{flight_artifact, write_flight_artifact};
pub use checker::{check_outcome, Verdict, Violation};
pub use driver::{run_scenario, KvInterface, OpRecord, RunOutcome};
pub use fixtures::MergingKv;
pub use gen::ScenarioGen;
pub use lin::{linearizable_register, LinKind, LinOp};
pub use scenario::{ClientOp, NemesisOp, Scenario, WorkloadOp};
