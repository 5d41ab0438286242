//! `ec-analysis`: the workspace's own static-analysis pass.
//!
//! A dependency-free, token-level analyzer that enforces the conventions the
//! reproduction's correctness story rests on:
//!
//! * **determinism** — protocol crates must not read the wall clock, use
//!   ambient randomness, or iterate hash-order collections;
//! * **panic-safety** — code reachable from `on_message`/decode/digest paths
//!   must return typed errors instead of panicking on peer input;
//! * **lock-discipline** — thread-spawning crates (the runtime engine, the
//!   socket net engine) must not nest locks, or block on a channel send or
//!   a thread join while a guard is live;
//! * **wire-hygiene** — every `*Msg` variant must be matched by name in its
//!   handler.
//!
//! Deliberate exceptions are documented inline with
//! `// analysis:allow(<rule>, reason = "…")`; the directive must carry a
//! non-empty reason and must actually match a finding, or the analyzer
//! reports it as a `meta::` finding of its own.
//!
//! Run with `cargo run -p ec-analysis` (add `--deny-all` to also fail on
//! advisory meta findings, as CI does).

#![warn(missing_docs)]

pub mod lexer;
pub mod model;
pub mod policy;
pub mod report;
pub mod rules;

pub use policy::{analyze_tree, analyze_workspace, crate_policy};
pub use report::{Finding, Report};
pub use rules::{rule_ids, RuleSet};
