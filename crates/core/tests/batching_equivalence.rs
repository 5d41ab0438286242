//! Property tests for the batching and delta-sync paths of Algorithm 5.
//!
//! Batching only changes *when* `update` broadcasts leave a process, and
//! delta sync only changes *what subset of state* each message carries —
//! neither may change what the delivered sequences converge to. These
//! properties pin that down:
//!
//! * over workloads with a forced promotion order (single origin), batched
//!   and unbatched runs deliver the *identical* stable sequence for the same
//!   seed;
//! * over arbitrary multi-origin workloads, a batched run still satisfies
//!   the full ETOB specification (with causal order) and delivers exactly
//!   the same message set as the unbatched run;
//! * over arbitrary multi-origin workloads on a loss-free fixed-delay
//!   network, the delta wire format delivers sequences *identical* to the
//!   paper-literal full-graph format (the messages differ, the information
//!   flow does not);
//! * under scripted drop/dup/jitter fault windows with anti-entropy enabled,
//!   both wire formats still deliver every message, in one agreed order per
//!   run, and the same *set* as each other — reconciliation heals every gap
//!   the faults open.

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::spec::EtobChecker;
use ec_core::types::{materialize, DeliveryDelta, MsgId};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::OmegaOracle;
use ec_sim::{
    FailurePattern, LinkFaults, LinkScope, NetworkModel, OutputHistory, ProcessId, Time,
    WorldBuilder,
};
use proptest::prelude::*;

fn run(
    n: usize,
    workload: &BroadcastWorkload,
    seed: u64,
    config: EtobConfig,
    horizon: u64,
) -> OutputHistory<DeliveryDelta> {
    run_on(
        n,
        workload,
        seed,
        config,
        horizon,
        NetworkModel::fixed_delay(2),
    )
}

fn run_on(
    n: usize,
    workload: &BroadcastWorkload,
    seed: u64,
    config: EtobConfig,
    horizon: u64,
    network: NetworkModel,
) -> OutputHistory<DeliveryDelta> {
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut world = WorldBuilder::new(n)
        .network(network)
        .failures(failures)
        .seed(seed)
        .build_with(|p| EtobOmega::new(p, config), omega);
    workload.submit_to(&mut world);
    world.run_until(horizon);
    world.output_history().clone()
}

/// The final delivered sequence of `p`: its delivery deltas folded in order.
fn final_ids(history: &OutputHistory<DeliveryDelta>, p: ProcessId) -> Vec<MsgId> {
    materialize(history)
        .last(p)
        .map(|seq| seq.iter().map(|m| m.id).collect())
        .unwrap_or_default()
}

proptest! {
    /// With a single origin the promotion order is forced (FIFO per origin),
    /// so batching must not change the stable sequence at all — only the
    /// number of broadcasts that produced it.
    #[test]
    fn batched_and_unbatched_deliver_the_same_stable_sequence(
        n in 3usize..6,
        ops in 1usize..10,
        spacing in 1u64..8,
        batch in 1u64..15,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut workload = BroadcastWorkload::new();
        for k in 0..ops {
            workload.push(
                ProcessId::new(1),
                10 + spacing * k as u64,
                format!("m{k}").into_bytes(),
                vec![],
            );
        }
        let horizon = workload.last_submission_time() + 1_000;
        let unbatched = run(n, &workload, seed, EtobConfig::default(), horizon);
        let batched = run(n, &workload, seed, EtobConfig::batched(batch), horizon);
        for p in (0..n).map(ProcessId::new) {
            prop_assert_eq!(final_ids(&unbatched, p), final_ids(&batched, p));
            prop_assert_eq!(final_ids(&batched, p).len(), ops);
        }
    }

    /// Over arbitrary multi-origin workloads a batched run satisfies the
    /// full ETOB spec (including causal order) and delivers the same message
    /// set as the unbatched run — batching never loses or invents messages.
    #[test]
    fn batched_runs_satisfy_the_spec_and_deliver_the_same_set(
        n in 3usize..6,
        ops in 1usize..12,
        spacing in 1u64..6,
        batch in 1u64..12,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let workload = BroadcastWorkload::uniform(n, ops, 10, spacing);
        let failures = FailurePattern::no_failures(n);
        let horizon = workload.last_submission_time() + 1_500;
        let unbatched = run(n, &workload, seed, EtobConfig::default(), horizon);
        let batched = run(n, &workload, seed, EtobConfig::batched(batch), horizon);
        let checker = EtobChecker::from_delivered(
            &batched,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        prop_assert!(
            checker.check_all_with_causal().is_ok(),
            "batched run violates ETOB: {:?}",
            checker.check_all_with_causal()
        );
        for p in (0..n).map(ProcessId::new) {
            let mut a = final_ids(&unbatched, p);
            let mut b = final_ids(&batched, p);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "delivered sets differ at {}", p);
        }
    }

    /// On a loss-free fixed-delay network, delta sync and the paper-literal
    /// full-graph format carry the same information at the same times, so
    /// for any workload and seed the stable sequences must be *identical* at
    /// every process — not merely equivalent.
    #[test]
    fn delta_and_full_graph_deliver_identical_sequences(
        n in 3usize..6,
        ops in 1usize..12,
        spacing in 1u64..6,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let workload = BroadcastWorkload::uniform(n, ops, 10, spacing);
        let failures = FailurePattern::no_failures(n);
        let horizon = workload.last_submission_time() + 1_500;
        let full = run(n, &workload, seed, EtobConfig::full_graph(), horizon);
        let delta = run(n, &workload, seed, EtobConfig::default(), horizon);
        let checker = EtobChecker::from_delivered(
            &delta,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        prop_assert!(
            checker.check_all_with_causal().is_ok(),
            "delta run violates ETOB: {:?}",
            checker.check_all_with_causal()
        );
        for p in (0..n).map(ProcessId::new) {
            prop_assert_eq!(
                final_ids(&full, p),
                final_ids(&delta, p),
                "stable sequences differ at {}",
                p
            );
            prop_assert_eq!(final_ids(&delta, p).len(), ops);
        }
    }

    /// Under scripted loss/duplication/jitter windows with anti-entropy
    /// retransmission enabled, both wire formats must heal every gap: every
    /// broadcast survives at every process, delivered exactly once, in one
    /// agreed per-run order, and the delta run delivers the same *set* as
    /// the full-graph run.
    #[test]
    fn delta_reconciliation_heals_drop_and_dup_windows(
        n in 3usize..5,
        ops in 1usize..8,
        drop_pct in 10u32..55,
        dup_pct in 0u32..30,
        jitter in 0u64..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let workload = BroadcastWorkload::uniform(n, ops, 10, 6);
        let fault_until = workload.last_submission_time() + 120;
        let horizon = fault_until + 4_000;
        let network = || NetworkModel::fixed_delay(2).with_faults(
            Time::ZERO,
            Time::new(fault_until),
            LinkScope::All,
            LinkFaults::new(f64::from(drop_pct) / 100.0, f64::from(dup_pct) / 100.0, jitter),
        );
        let config = |delta: bool| EtobConfig::default().with_delta_sync(delta).with_resend(15);
        let full = run_on(n, &workload, seed, config(false), horizon, network());
        let delta = run_on(n, &workload, seed, config(true), horizon, network());
        for (label, history) in [("full", &full), ("delta", &delta)] {
            let reference = final_ids(history, ProcessId::new(0));
            prop_assert_eq!(
                reference.len(), ops,
                "{} run lost messages under faults", label
            );
            let mut deduped = reference.clone();
            deduped.sort();
            deduped.dedup();
            prop_assert_eq!(deduped.len(), ops, "{} run delivered a duplicate", label);
            for p in (1..n).map(ProcessId::new) {
                prop_assert_eq!(
                    final_ids(history, p),
                    reference.clone(),
                    "{} run diverged at {}", label, p
                );
            }
        }
        // same delivered set across wire formats (orders may differ: the
        // faults perturb the two runs' arrival orders independently)
        let mut a = final_ids(&full, ProcessId::new(0));
        let mut b = final_ids(&delta, ProcessId::new(0));
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "wire formats delivered different sets");
    }
}
