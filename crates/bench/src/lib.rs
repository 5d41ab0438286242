//! Shared helpers for the benchmark harness (see `benches/`).
//!
//! Each Criterion bench target in this crate regenerates one experiment from
//! `EXPERIMENTS.md`; this library holds the workload generators and reporting
//! helpers they share. The [`delta`] module is the driver of experiment E12
//! (delta-state wire bytes vs history length), shared between the Criterion
//! bench and the `e12_delta` binary that writes `BENCH_delta.json`; the
//! [`compaction`] module is the driver of experiment E13 (resident graph
//! size with stable-prefix compaction on vs off), shared between the
//! Criterion bench and the `e13_compaction` binary that writes
//! `BENCH_compaction.json`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compaction;
pub mod delta;
