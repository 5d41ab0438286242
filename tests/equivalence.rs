//! Experiments E5 and E9 (integration form): the equivalence transformations.
//!
//! Theorem 1: ETOB built from EC (Algorithm 1 over Algorithm 4) satisfies the
//! ETOB specification, and EC built from ETOB (Algorithm 2 over Algorithm 5)
//! satisfies the EC specification. Theorem 3: the EC → EIC → EC circle
//! (Algorithms 6 and 7) still satisfies EC.

use ec_core::ec_omega::{EcConfig, EcOmega};
use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::harness::MultiInstanceProposer;
use ec_core::spec::{EcChecker, EtobChecker, ProposalRecord};
use ec_core::transforms::{EcToEic, EcToEtob, EicToEc, EtobToEc};
use ec_core::types::AppMessage;
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::OmegaOracle;
use ec_sim::{FailurePattern, NetworkModel, ProcessId, Time, WorldBuilder};

#[test]
fn etob_from_ec_satisfies_etob_and_measures_overhead() {
    let n = 3;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let workload = BroadcastWorkload::uniform(n, 10, 10, 9);

    // transformed stack: Algorithm 1 over Algorithm 4
    let mut transformed = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(4)
        .build_with(
            |_p| {
                EcToEtob::new(
                    EcOmega::<Vec<AppMessage>>::new(EcConfig { poll_period: 3 }),
                    4,
                )
            },
            omega.clone(),
        );
    workload.submit_to(&mut transformed);
    transformed.run_until(6_000);
    let checker = EtobChecker::from_delivered(
        transformed.output_history(),
        workload.records(),
        failures.correct(),
        Time::ZERO,
    );
    assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());

    // direct Algorithm 5, for the message-overhead comparison
    let mut direct = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(4)
        .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
    workload.submit_to(&mut direct);
    direct.run_until(6_000);

    // the transformation is correct but chattier: it keeps running consensus
    // instances forever, so it sends strictly more messages
    assert!(
        transformed.metrics().messages_sent > direct.metrics().messages_sent,
        "transformed: {} direct: {}",
        transformed.metrics().messages_sent,
        direct.metrics().messages_sent
    );
}

#[test]
fn ec_from_etob_satisfies_ec() {
    let n = 3;
    let instances = 5u64;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(5)
        .build_with(
            |p| {
                let values: Vec<Vec<u8>> = (1..=instances)
                    .map(|i| vec![p.index() as u8, i as u8])
                    .collect();
                MultiInstanceProposer::new(
                    EtobToEc::new(EtobOmega::new(p, EtobConfig::default()), 4),
                    values,
                )
            },
            omega,
        );
    world.run_until(8_000);
    let proposals: Vec<ProposalRecord<Vec<u8>>> = (0..n)
        .flat_map(|p| {
            (1..=instances).map(move |i| ProposalRecord {
                instance: i,
                by: ProcessId::new(p),
                value: vec![p as u8, i as u8],
                at: Time::ZERO,
            })
        })
        .collect();
    let checker = EcChecker::new(
        world.output_history().clone(),
        proposals,
        failures.correct(),
    );
    assert!(
        checker.check_all(instances, 1).is_ok(),
        "{:?}",
        checker.check_all(instances, 1)
    );
}

#[test]
fn ec_to_eic_to_ec_circle_satisfies_ec() {
    let n = 3;
    let instances = 4u64;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(6)
        .build_with(
            |p| {
                let values: Vec<Vec<u8>> = (1..=instances)
                    .map(|i| vec![p.index() as u8, i as u8])
                    .collect();
                MultiInstanceProposer::new(
                    EicToEc::new(EcToEic::new(EcOmega::<Vec<Vec<u8>>>::new(EcConfig {
                        poll_period: 3,
                    }))),
                    values,
                )
            },
            omega,
        );
    world.run_until(8_000);
    let proposals: Vec<ProposalRecord<Vec<u8>>> = (0..n)
        .flat_map(|p| {
            (1..=instances).map(move |i| ProposalRecord {
                instance: i,
                by: ProcessId::new(p),
                value: vec![p as u8, i as u8],
                at: Time::ZERO,
            })
        })
        .collect();
    let checker = EcChecker::new(
        world.output_history().clone(),
        proposals,
        failures.correct(),
    );
    assert!(
        checker.check_all(instances, 1).is_ok(),
        "{:?}",
        checker.check_all(instances, 1)
    );
}
