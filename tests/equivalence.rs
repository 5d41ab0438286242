//! Algorithm 4 (EC from Ω) and the equivalence transformations over it.
//!
//! Theorem 1: ETOB built from EC (Algorithm 1 over Algorithm 4) satisfies the
//! ETOB specification (experiment E5, with its message overhead), and EC
//! built from ETOB (Algorithm 2 over Algorithm 5) satisfies the EC
//! specification. Algorithm 4 itself holds under any number of crashes (E6).
//! Theorem 3: the EIC layer revokes finitely often (E9), and the EC → EIC →
//! EC circle (Algorithms 6 and 7) still satisfies EC. Every wrapper stack
//! runs its wrapped algorithm as a black box, and only the outermost layer
//! keeps a timer chain.

use ec_bench::experiments::{
    e5_transformations, e6_ec_omega, e9_eic, E5_BROADCASTS, E5_HORIZON, E5_SIZES, E6_CRASHES,
    E9_DIVERGENCES,
};
use ec_core::ec_omega::{EcConfig, EcOmega};
use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::harness::MultiInstanceProposer;
use ec_core::spec::{EcChecker, ProposalRecord};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::transforms::{EcToEic, EcToEtob, EicToEc, EtobToEc};
use ec_core::types::AppMessage;
use ec_core::workload::BroadcastWorkload;
use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
use ec_replication::{KvStore, Replica, ReplicaCommand};
use ec_sim::{
    Algorithm, FailureDetector, FailurePattern, NetworkModel, ProcessId, Time, World, WorldBuilder,
};

/// E5: ETOB built from EC satisfies ETOB, and costs more messages than
/// Algorithm 5: it keeps running consensus instances forever — on the
/// table's runs and on ten broadcasts over 6 000 ticks.
#[test]
fn etob_from_ec_satisfies_etob_and_measures_overhead() {
    let table = e5_transformations(&E5_SIZES, E5_BROADCASTS, E5_HORIZON);
    for row in table.iter().chain(&e5_transformations(&[3], 10, 6_000)) {
        assert!(row.transformed_violations.is_empty(), "{row:?}");
        assert!(row.transformed_messages > row.direct_messages, "{row:?}");
    }
}

/// E6: Algorithm 4 implements EC from Ω alone in any environment — with a
/// correct majority and without one.
#[test]
fn ec_from_omega_holds_whatever_the_number_of_crashes() {
    for row in e6_ec_omega(&E6_CRASHES) {
        assert!(row.violations.is_empty(), "{row:?}");
    }
}

/// E9: the EIC layer over Algorithm 4 revokes nothing under a stable Ω, and
/// its final responses agree and are valid whatever the divergence.
#[test]
fn eic_revokes_only_while_leaders_diverge_and_ends_in_agreement() {
    let rows = e9_eic(&E9_DIVERGENCES);
    for row in &rows {
        assert!(row.violations.is_empty(), "{row:?}");
    }
    assert_eq!(rows[0].divergence, 0);
    assert_eq!(rows[0].revocations, 0, "{rows:?}");
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
