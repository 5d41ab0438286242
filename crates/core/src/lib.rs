//! # `ec-core` — eventual consistency abstractions (PODC 2015 reproduction)
//!
//! This crate contains the paper's contribution as executable Rust:
//!
//! * [`types`] — the EC / ETOB / EIC interfaces and application message
//!   types (payloads are shared `Arc<[u8]>` buffers — fan-out never deep-
//!   copies bytes).
//! * [`version`] — exact per-origin range-set digests ([`VersionVector`]),
//!   the gap-detection backbone of the delta-state wire format.
//! * [`spec`] — executable property checkers for the TOB/ETOB properties of
//!   Section 3 and the EC/EIC properties of Section 3 / Appendix A.
//! * [`ec_omega`] — **Algorithm 4**: eventual consensus from Ω, in any
//!   environment (Lemma 2).
//! * [`etob_omega`] — **Algorithm 5**: eventual total order broadcast
//!   directly from Ω, with two-communication-step delivery under a stable
//!   leader, full TOB when Ω is stable from the start, and causal order
//!   throughout. Runs a delta-state wire format by default (suffix updates,
//!   digest-triggered reconciliation, hash-keyed promote suffixes) with the
//!   paper-literal full-graph mode kept as the reference spec.
//! * [`transforms`] — the black-box equivalence transformations:
//!   **Algorithm 1** (EC → ETOB), **Algorithm 2** (ETOB → EC) proving
//!   Theorem 1, and **Algorithms 6 & 7** (EC ↔ EIC) proving Theorem 3.
//! * [`tob_consensus`] — the strongly consistent baseline: a quorum-gated
//!   leader sequencer (consensus-based TOB) that needs Ω **and** Σ, used by
//!   the experiments to exhibit the exact gap the paper identifies.
//! * [`harness`] / [`workload`] — drivers and workload generators shared by
//!   tests, examples and the benchmark harness.
//!
//! See `DESIGN.md` and `EXPERIMENTS.md` at the repository root for the full
//! map from paper claims to modules and experiments.

#![warn(missing_docs)]
// Unit tests may unwrap freely; the lint guards protocol paths only.
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_debug_implementations)]

pub mod ec_omega;
pub mod etob_omega;
pub mod harness;
pub mod spec;
pub mod tob_consensus;
pub mod transforms;
pub mod types;
pub mod version;
pub mod wire;
pub mod workload;

pub use ec_omega::{EcConfig, EcMsg, EcOmega};
pub use etob_omega::{CausalGraph, EtobConfig, EtobMsg, EtobOmega};
pub use harness::MultiInstanceProposer;
pub use spec::{
    BroadcastRecord, EcChecker, EcViolation, EicChecker, EicViolation, EtobChecker, ProposalRecord,
    TobViolation,
};
pub use tob_consensus::{ConsensusTob, ConsensusTobConfig, TobMsg};
pub use transforms::{EcToEic, EcToEtob, EicToEc, EtobToEc};
pub use types::{
    seq_hash_step, AppMessage, Compactable, DeliveredSequence, DeliveryDelta, EcInput, EcOutput,
    EicInput, EicOutput, Either, EtobBroadcast, EventualConsensus, EventualIrrevocableConsensus,
    EventualTotalOrderBroadcast, Instrumented, MsgId, Payload, SEQ_HASH_SEED,
};
pub use version::VersionVector;
pub use workload::BroadcastWorkload;
