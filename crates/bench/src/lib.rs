//! The drivers of every experiment in `EXPERIMENTS.md`.
//!
//! [`experiments`] holds E1–E9, E11 and the ablations A1–A2: one function
//! per experiment returning its rows, and a printer per table. The
//! [`delta`] module is the driver of experiment E12 (delta-state wire bytes
//! vs history length) and the [`compaction`] module that of experiment E13
//! (resident graph size with stable-prefix compaction on vs off). The
//! `experiments` binary prints every table; the `e12_delta` and
//! `e13_compaction` binaries write `BENCH_delta.json` and
//! `BENCH_compaction.json`; the root integration suites assert the paper's
//! claims on the same rows.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compaction;
pub mod delta;
pub mod experiments;
