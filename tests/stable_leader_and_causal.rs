//! Experiments E3, E4 and E8 (integration form): Algorithm 5's properties
//! P2 (stable leader from the start ⇒ full TOB), P3 (causal order even while
//! leaders diverge) and the convergence bound τ = τ_Ω + Δ_t + Δ_c.

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::spec::EtobChecker;
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::{OmegaOracle, PreStabilization};
use ec_sim::{FailurePattern, NetworkModel, Time, WorldBuilder};

fn run(
    n: usize,
    workload: &BroadcastWorkload,
    omega: OmegaOracle,
    delay: u64,
    promote_period: u64,
    horizon: u64,
    seed: u64,
) -> ec_sim::OutputHistory<ec_core::types::DeliveryDelta> {
    let failures = FailurePattern::no_failures(n);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(delay))
        .failures(failures)
        .seed(seed)
        .build_with(
            |p| {
                EtobOmega::new(
                    p,
                    EtobConfig {
                        promote_period,
                        eager_promote: false,
                        ..EtobConfig::default()
                    },
                )
            },
            omega,
        );
    workload.submit_to(&mut world);
    world.run_until(horizon);
    world.output_history().clone()
}

/// E3 / property P2: with Ω stable from time 0, the run satisfies the full
/// (strong) TOB specification, i.e. the checker passes with τ = 0 — for
/// several system sizes and seeds.
#[test]
fn stable_leader_from_start_yields_strong_tob() {
    for (n, seed) in [(3usize, 1u64), (5, 2), (7, 3)] {
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let workload = BroadcastWorkload::uniform(n, 12, 10, 7);
        let history = run(n, &workload, omega, 2, 5, 4_000, seed);
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(
            checker.check_all_with_causal().is_ok(),
            "n = {n}: {:?}",
            checker.check_all_with_causal()
        );
    }
}

/// E4 / property P3: causal order holds at every time, even while processes
/// trust different leaders, and the run still converges to ETOB afterwards.
#[test]
fn causal_order_survives_leader_divergence() {
    let n = 5;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(400))
        .with_pre_stabilization(PreStabilization::RoundRobin { period: 30 });
    let workload = BroadcastWorkload::causal_chains(n, 4, 4, 5, 9);
    let history = run(n, &workload, omega, 3, 5, 8_000, 11);
    let checker = EtobChecker::from_delivered(
        &history,
        workload.records(),
        failures.correct(),
        Time::new(500),
    );
    assert!(
        checker.check_causal_order().is_empty(),
        "{:?}",
        checker.check_causal_order()
    );
    assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
}

/// E8: the measured stabilization time of the ordering properties is bounded
/// by the paper's τ = τ_Ω + Δ_t + Δ_c (plus one tick for the delivery step
/// granularity of the simulator).
#[test]
fn measured_convergence_respects_the_paper_bound() {
    let delay = 3u64;
    let promote_period = 5u64;
    for tau_omega in [100u64, 250, 500] {
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(tau_omega));
        let workload = BroadcastWorkload::uniform(n, 10, 5, 13);
        let history = run(
            n,
            &workload,
            omega,
            delay,
            promote_period,
            tau_omega + 4_000,
            21,
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        let measured = checker
            .find_stabilization_time()
            .expect("ordering must stabilize")
            .as_u64();
        let bound = tau_omega + promote_period + delay + 1;
        assert!(
            measured <= bound,
            "tau_omega = {tau_omega}: measured {measured} > bound {bound}"
        );
    }
}
