//! # `ec-replication` — replicated state machines over (eventual) total order
//! broadcast
//!
//! The paper's motivation is replicated services in the style of Dynamo,
//! PNUTS and Bigtable: a deterministic state machine replicated over server
//! processes. This crate provides that application layer, fronted by an
//! engine-agnostic deployment facade:
//!
//! * [`cluster`] — **the main entry point**: [`ClusterBuilder`] deploys any
//!   state machine at a chosen [`Consistency`] level on a chosen execution
//!   engine and returns a [`Cluster`] with uniform [`Session`] client
//!   handles and a uniform [`ClusterReport`]. What is replicated, how
//!   strongly, and where it runs are configuration, not code.
//! * [`engine`] — the [`Engine`] trait and its three implementations:
//!   [`SimEngine`] (deterministic simulation over `ec-sim`), and the two
//!   real-time engines, one [`RealTimeEngine`] over `ec-runtime` each:
//!   [`ThreadEngine`] (replica threads joined by channels) and
//!   [`NetEngine`] (replica nodes joined by the TCP transport of [`net`]).
//!   Each hands the facade a [`Deployment`]. The
//!   cross-engine conformance suite drives the same workload through all of
//!   them and checks byte-identical convergence — the paper's
//!   "not a simulator artifact" claim as an executable test.
//! * [`net`] — the socket substrate behind [`NetEngine`]: a hand-rolled
//!   length-prefixed binary frame format ([`net::codec`]) and the
//!   [`net::TcpTransport`] that carries it between replica nodes over
//!   loopback TCP, heartbeats included.
//! * [`session`] — client sessions that automatically thread causal
//!   dependencies (`C(m)`) through successive commands, replacing hand-built
//!   dependency lists.
//! * [`state_machine`] — deterministic state machines (a key–value store, a
//!   counter, a last-writer-wins register) driven by opaque commands.
//! * [`replica`] — the low-level path: a generic replica that feeds client
//!   commands into *any* [`ec_core::types::EventualTotalOrderBroadcast`]
//!   implementation and applies its delivery deltas to its state
//!   machine. The facade wires this for you; drive it by hand only when an
//!   experiment needs direct control over the world or the broadcast layer.
//! * [`durable`] — the per-replica durability layer behind
//!   [`ClusterBuilder::durable`]: an `ec-storage` record log mirroring the
//!   delivered tail plus snapshots of the folded prefix, and the recovery
//!   path that [`Cluster::restart`] (and the chaos crash–recover nemesis)
//!   uses to rejoin from disk, pulling only the missing suffix via
//!   anti-entropy.
//! * [`convergence`] — convergence metrics over replica output histories:
//!   when did all correct replicas last agree, how long did divergence
//!   episodes last, how many commands were applied on each side of a
//!   partition. These are the quantities the partition-tolerance experiment
//!   (E2) reports.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod convergence;
pub mod durable;
pub mod engine;
pub mod net;
pub mod replica;
pub mod session;
pub mod state_machine;

pub use cluster::{Cluster, ClusterBuilder, ClusterReport, Consistency, ShardReport};
pub use convergence::{ConvergenceReport, Divergence};
pub use durable::{DurableError, DurableOptions, DurableStore, Recovered};
pub use engine::{
    BroadcastLayer, DeployError, DeployPlan, Deployment, Engine, EngineKind, NetEngine,
    RealTimeDeployment, RealTimeEngine, SimEngine, ThreadEngine,
};
pub use replica::{Replica, ReplicaCommand, ReplicaOutput};
pub use session::Session;
pub use state_machine::{snapshot_digest, Counter, KvStore, Register, StateMachine};
