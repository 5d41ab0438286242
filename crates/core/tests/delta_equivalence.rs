//! Property: the delivery deltas an (E)TOB implementation emits *are* its
//! delivered sequence.
//!
//! Every implementation outputs `d_i := d_i[..keep] ++ suffix` instead of
//! the whole `d_i`. These properties run seeded executions one scheduler
//! step at a time and, after **every** step, fold each process's deltas so
//! far and compare the result with the automaton's own state:
//!
//! * for Algorithm 5 (`EtobOmega`), under Ω that lies before stabilising
//!   (`RoundRobin` / `SelfLeader`), link loss and duplication, batching on
//!   and off, compaction on and off, and both wire formats, the folded
//!   sequence is the *absolute* history: its length is `delivered_total()`,
//!   its part beyond `folded()` is the resident `delivered()`, and its
//!   rolling identifier hash is `delivered_hash()` — folds never show —
//!   and every resident promoted identifier is a causal-graph node (the
//!   promotion sequence holds identifiers, the graph the messages);
//! * for the strong baseline (`ConsensusTob`) and for Algorithm 1
//!   (`EcToEtob`), the folded sequence is `delivered()`.

use ec_core::ec_omega::{EcConfig, EcOmega};
use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::transforms::EcToEtob;
use ec_core::types::{
    seq_hash_step, AppMessage, DeliveredSequence, DeliveryDelta, MsgId, SEQ_HASH_SEED,
};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::{OmegaOracle, PreStabilization};
use ec_detectors::{sigma::SigmaOracle, PairFd};
use ec_sim::{
    Algorithm, FailureDetector, FailurePattern, LinkFaults, LinkScope, NetworkModel, ProcessId,
    Time, World, WorldBuilder,
};
use proptest::prelude::*;

/// What an automaton says its delivered sequence is: entries folded out of
/// resident state, the resident tail, and (if it keeps one) the rolling
/// identifier hash of the whole history — plus a promoted identifier that
/// is no graph node, if it has one (it must not).
struct View<'a> {
    folded: usize,
    resident: &'a [AppMessage],
    hash: Option<u64>,
    orphan: Option<MsgId>,
}

/// Steps `world` event by event up to `horizon`, folding every emitted
/// delta into a per-process sequence, and checks after each step that the
/// folded sequence of every process is what `view` reads off its automaton.
/// Returns the folded sequences and the number of deltas that rewrote
/// (rather than extended) a sequence.
fn fold_and_compare<A, D>(
    world: &mut World<A, D>,
    horizon: u64,
    view: impl for<'a> Fn(&'a A) -> View<'a>,
) -> (Vec<DeliveredSequence>, usize)
where
    A: Algorithm<Output = DeliveryDelta>,
    D: FailureDetector<Output = A::Fd>,
{
    let mut folded: Vec<DeliveredSequence> = vec![Vec::new(); world.n()];
    let mut rewrites = 0;
    let mut seen = vec![0; world.n()];
    while world.now().as_u64() < horizon && world.step() {
        for process in world.process_ids() {
            let outputs = world.output_history().outputs(process);
            let sequence = &mut folded[process.index()];
            for (_, value) in &outputs[seen[process.index()]..] {
                assert!(
                    value.keep <= sequence.len(),
                    "{process} kept {} of {} entries",
                    value.keep,
                    sequence.len()
                );
                rewrites += usize::from(value.keep < sequence.len());
                value.apply_to(sequence);
            }
            seen[process.index()] = outputs.len();
        }
        for p in world.process_ids() {
            let sequence = &folded[p.index()];
            let view = view(world.algorithm(p));
            assert_eq!(
                sequence.len(),
                view.folded + view.resident.len(),
                "{p} at {}: folded deltas and automaton disagree on the length",
                world.now()
            );
            assert_eq!(
                &sequence[view.folded..],
                view.resident,
                "{p} at {}: folded deltas are not the resident tail",
                world.now()
            );
            assert_eq!(
                view.orphan,
                None,
                "{p} at {}: a promoted id is not a graph node",
                world.now()
            );
            if let Some(hash) = view.hash {
                let rolled = sequence
                    .iter()
                    .fold(SEQ_HASH_SEED, |h, m| seq_hash_step(h, m.id));
                assert_eq!(
                    rolled,
                    hash,
                    "{p} at {}: history hashes differ",
                    world.now()
                );
            }
        }
    }
    (folded, rewrites)
}

fn etob_view(alg: &EtobOmega) -> View<'_> {
    View {
        folded: alg.folded() as usize,
        resident: alg.delivered(),
        hash: Some(alg.delivered_hash()),
        orphan: alg
            .promotion()
            .iter()
            .copied()
            .find(|id| !alg.causal_graph().contains(*id)),
    }
}

proptest! {
    #[test]
    fn etob_omega_deltas_fold_into_its_absolute_history(
        n in 3usize..5,
        ops in 4usize..28,
        spacing in 1u64..5,
        self_leader in any::<bool>(),
        omega_period in 5u64..30,
        stabilizes_at in 0u64..160,
        drop_pct in 0u32..40,
        dup_pct in 0u32..30,
        batch in 0u64..8,
        compaction in any::<bool>(),
        delta_wire in any::<bool>(),
        chained in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let workload = if chained {
            BroadcastWorkload::causal_chains(n, 3, ops.div_ceil(3), 10, spacing)
        } else {
            BroadcastWorkload::uniform(n, ops, 10, spacing)
        };
        let failures = FailurePattern::no_failures(n);
        let pre = if self_leader {
            PreStabilization::SelfLeader
        } else {
            PreStabilization::RoundRobin { period: omega_period }
        };
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(stabilizes_at))
            .with_pre_stabilization(pre);
        let fault_until = workload.last_submission_time() + 60;
        let network = NetworkModel::uniform_delay(1, 3).with_faults(
            Time::ZERO,
            Time::new(fault_until),
            LinkScope::All,
            LinkFaults::new(f64::from(drop_pct) / 100.0, f64::from(dup_pct) / 100.0, 2),
        );
        let mut config = EtobConfig::batched(batch)
            .with_delta_sync(delta_wire)
            .with_resend(15);
        if compaction {
            // effective on the delta wire only; a no-op on the full-graph one
            config = config.with_compaction(4);
        }
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(seed)
            .build_with(|p| EtobOmega::new(p, config), omega);
        workload.submit_to(&mut world);
        let horizon = fault_until.max(stabilizes_at) + 1_500;
        let (folded, _) = fold_and_compare(&mut world, horizon, etob_view);
        // the runs are long enough to converge: one agreed, complete order
        for p in world.process_ids() {
            prop_assert_eq!(folded[p.index()].len(), workload.len(), "{} is incomplete", p);
            prop_assert_eq!(&folded[p.index()], &folded[0], "{} diverged", p);
            prop_assert_eq!(world.algorithm(p).malformed(), 0);
        }
    }

    #[test]
    fn consensus_tob_deltas_fold_into_its_delivered_prefix(
        n in 3usize..6,
        ops in 1usize..16,
        spacing in 1u64..6,
        crash_leader in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let workload = BroadcastWorkload::uniform(n, ops, 10, spacing);
        let mut failures = FailurePattern::no_failures(n);
        if crash_leader {
            failures = failures.with_crash(ProcessId::new(0), Time::new(10 + spacing * 2));
        }
        let fd = PairFd::new(
            OmegaOracle::stabilizing_at(failures.clone(), Time::new(40)),
            SigmaOracle::majority(failures.clone()),
        );
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::uniform_delay(1, 3))
            .failures(failures)
            .seed(seed)
            .build_with(|p| ConsensusTob::new(p, ConsensusTobConfig::default()), fd);
        workload.submit_to(&mut world);
        let horizon = workload.last_submission_time() + 1_000;
        let (_, rewrites) = fold_and_compare(&mut world, horizon, |alg: &ConsensusTob| View {
            folded: 0,
            resident: alg.delivered(),
            hash: None,
            orphan: None,
        });
        prop_assert_eq!(rewrites, 0, "decided slots are final: deltas only extend");
    }

    #[test]
    fn ec_to_etob_deltas_fold_into_the_last_decision(
        n in 3usize..5,
        ops in 1usize..10,
        spacing in 1u64..8,
        stabilizes_at in 0u64..200,
        seed in any::<u64>(),
    ) {
        let workload = BroadcastWorkload::uniform(n, ops, 10, spacing);
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(stabilizes_at));
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .seed(seed)
            .build_with(
                |_| EcToEtob::new(EcOmega::<Vec<AppMessage>>::new(EcConfig { poll_period: 3 }), 4),
                omega,
            );
        workload.submit_to(&mut world);
        let horizon = workload.last_submission_time() + stabilizes_at + 1_500;
        let (folded, _) = fold_and_compare(
            &mut world,
            horizon,
            |alg: &EcToEtob<EcOmega<Vec<AppMessage>>>| View {
                folded: 0,
                resident: alg.delivered(),
                hash: None,
                orphan: None,
            },
        );
        for p in world.process_ids() {
            prop_assert_eq!(folded[p.index()].len(), ops, "{} is incomplete", p);
        }
    }
}
