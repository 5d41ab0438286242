//! Experiments E5 and E9 (integration form): the equivalence transformations.
//!
//! Theorem 1: ETOB built from EC (Algorithm 1 over Algorithm 4) satisfies the
//! ETOB specification, and EC built from ETOB (Algorithm 2 over Algorithm 5)
//! satisfies the EC specification. Theorem 3: the EC → EIC → EC circle
//! (Algorithms 6 and 7) still satisfies EC. Every wrapper stack runs its
//! wrapped algorithm as a black box, and only the outermost layer keeps a
//! timer chain.

use ec_core::ec_omega::{EcConfig, EcOmega};
use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::harness::MultiInstanceProposer;
use ec_core::spec::{EcChecker, EtobChecker, ProposalRecord};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::transforms::{EcToEic, EcToEtob, EicToEc, EtobToEc};
use ec_core::types::AppMessage;
use ec_core::workload::BroadcastWorkload;
use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
use ec_replication::{KvStore, Replica, ReplicaCommand};
use ec_sim::{
    Algorithm, FailureDetector, FailurePattern, NetworkModel, ProcessId, Time, World, WorldBuilder,
};

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

/// Runs `world` fault-free to tick 600, one outer period at a time, and
/// checks that every timer fire came from the outermost layer's chain: one
/// fire per `period` at each process. A wrapper that relayed its inner
/// layer's timers would add that layer's chains to the count (and, since the
/// outer chain re-arms too, grow the event queue exponentially — hence the
/// check after every period rather than once at the end).
fn assert_only_the_outer_chain_fires<A, D>(name: &str, mut world: World<A, D>, period: u64)
where
    A: Algorithm,
    D: FailureDetector<Output = A::Fd>,
{
    let n = world.process_ids().count() as u64;
    for fires in 1..=600 / period {
        world.run_until(fires * period);
        assert_eq!(world.metrics().timer_fires, n * fires, "{name}");
    }
}

fn puts_at_every_replica<A, D>(world: &mut World<A, D>)
where
    A: Algorithm<Input = ReplicaCommand>,
    D: FailureDetector<Output = A::Fd>,
{
    let n = world.process_ids().count();
    for k in 0..30u64 {
        let put = KvStore::put(&format!("k{}", k % 7), &format!("v{k}"));
        world.schedule_input(
            ProcessId::new(k as usize % n),
            ReplicaCommand::new(put),
            5 + 13 * k,
        );
    }
}

#[test]
fn every_wrapper_stack_runs_one_timer_chain_per_process() {
    let n = 3;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let world = || {
        WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures.clone())
            .seed(9)
    };
    let values =
        |p: ProcessId| -> Vec<Vec<u8>> { (1..=40u8).map(|i| vec![p.index() as u8, i]).collect() };

    let mut etob = world().build_with(
        |_p| {
            EcToEtob::new(
                EcOmega::<Vec<AppMessage>>::new(EcConfig { poll_period: 3 }),
                4,
            )
        },
        omega.clone(),
    );
    BroadcastWorkload::uniform(n, 20, 10, 11).submit_to(&mut etob);
    assert_only_the_outer_chain_fires("EcToEtob<EcOmega>", etob, 4);

    let ec = world().build_with(
        |p| {
            MultiInstanceProposer::new(
                EtobToEc::new(EtobOmega::new(p, EtobConfig::default()), 4),
                values(p),
            )
        },
        omega.clone(),
    );
    assert_only_the_outer_chain_fires("MultiInstanceProposer<EtobToEc<EtobOmega>>", ec, 3);

    let circle = world().build_with(
        |p| {
            let ec = EcOmega::<Vec<Vec<u8>>>::new(EcConfig { poll_period: 3 });
            MultiInstanceProposer::new(EicToEc::new(EcToEic::new(ec)), values(p))
        },
        omega.clone(),
    );
    assert_only_the_outer_chain_fires(
        "MultiInstanceProposer<EicToEc<EcToEic<EcOmega>>>",
        circle,
        3,
    );

    // batching, promotion and resend: three timer chains of the inner layer
    let mut eventual = world().build_with(
        |p| {
            let config = EtobConfig::batched(5).with_resend(20);
            Replica::<KvStore, EtobOmega>::new(EtobOmega::new(p, config))
        },
        omega.clone(),
    );
    puts_at_every_replica(&mut eventual);
    assert_only_the_outer_chain_fires("Replica<KvStore, EtobOmega>", eventual, 3);

    // ConsensusTob retransmits every `resend_period` (10) ticks
    let fd = PairFd::new(omega, SigmaOracle::majority(failures.clone()));
    let mut strong = world().build_with(
        |p| {
            Replica::<KvStore, ConsensusTob>::new(ConsensusTob::new(
                p,
                ConsensusTobConfig::default(),
            ))
        },
        fd,
    );
    puts_at_every_replica(&mut strong);
    assert_only_the_outer_chain_fires("Replica<KvStore, ConsensusTob>", strong, 3);
}
