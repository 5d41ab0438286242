//! Experiment E1 (integration form): delivery latency in communication steps.
//!
//! Under a stable leader, the ETOB of Algorithm 5 delivers a broadcast of a
//! non-leader process after **two** message hops (update → promote), while the
//! strongly consistent quorum sequencer needs **three** (forward → accept →
//! acknowledge), matching the bounds the paper cites.

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
use ec_sim::{FailurePattern, NetworkModel, ProcessId, Time, WorldBuilder};

const DELAY: u64 = 10;

/// Latency (in ticks) from the broadcast of one message by a non-leader to
/// its first delivery anywhere, for the eventually consistent algorithm.
fn etob_latency(n: usize) -> u64 {
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut workload = BroadcastWorkload::new();
    workload.push(ProcessId::new(n - 1), 100, b"probe".to_vec(), vec![]);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(DELAY))
        .failures(failures)
        .build_with(|p| EtobOmega::new(p, EtobConfig::eager()), omega);
    workload.submit_to(&mut world);
    world.run_until(2_000);
    first_delivery(world.output_history(), workload.ids()[0], n)
}

/// Same measurement for the strongly consistent baseline.
fn consensus_latency(n: usize) -> u64 {
    let failures = FailurePattern::no_failures(n);
    let fd = PairFd::new(
        OmegaOracle::stable_from_start(failures.clone()),
        SigmaOracle::majority(failures.clone()),
    );
    let mut workload = BroadcastWorkload::new();
    workload.push(ProcessId::new(n - 1), 100, b"probe".to_vec(), vec![]);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(DELAY))
        .failures(failures)
        .build_with(|p| ConsensusTob::new(p, ConsensusTobConfig::default()), fd);
    workload.submit_to(&mut world);
    world.run_until(2_000);
    first_delivery(world.output_history(), workload.ids()[0], n)
}

fn first_delivery(
    history: &ec_sim::OutputHistory<ec_core::types::DeliveryDelta>,
    id: ec_core::types::MsgId,
    n: usize,
) -> u64 {
    // d_i(t): the delivery deltas folded back into sequences
    let history = ec_core::types::materialize(history);
    let mut first: Option<Time> = None;
    for p in (0..n).map(ProcessId::new) {
        if let Some(t) = history.first_time_where(p, |seq| seq.iter().any(|m| m.id == id)) {
            first = Some(first.map_or(t, |x| x.min(t)));
        }
    }
    first
        .expect("message must be delivered")
        .saturating_since(Time::new(100))
}

#[test]
fn etob_delivers_in_two_hops_and_consensus_in_three() {
    for n in [3, 5, 7] {
        let eventual = etob_latency(n);
        let strong = consensus_latency(n);
        let eventual_hops = eventual / DELAY;
        let strong_hops = strong / DELAY;
        assert_eq!(eventual_hops, 2, "n = {n}: eventual latency {eventual}");
        assert_eq!(strong_hops, 3, "n = {n}: strong latency {strong}");
        assert!(
            eventual < strong,
            "eventual consistency must be strictly faster"
        );
    }
}
