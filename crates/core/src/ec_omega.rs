//! **Algorithm 4** of the paper: eventual consensus (EC) using Ω, in any
//! environment.
//!
//! Upon `proposeEC_ℓ(v)` a process broadcasts `promote(v, ℓ)` to everyone and
//! records every `promote` it receives. Periodically (on its local timeout)
//! it checks whether it has received a value for its current instance from
//! the process its Ω module currently trusts; if so, it decides that value.
//!
//! Once Ω stabilizes on a single correct leader, all processes decide the
//! value promoted by that leader, so all instances started after the
//! stabilization point agree (EC-Agreement); termination, integrity and
//! validity hold unconditionally. Crucially, no quorum is ever collected —
//! this is why the algorithm works in *any* environment, even with a majority
//! of faulty processes (Lemma 2).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{EcInput, EcOutput, EventualConsensus};

/// Message of [`EcOmega`]: `promote(v, ℓ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcMsg<V> {
    /// The promoted value.
    pub value: V,
    /// The consensus instance `ℓ`.
    pub instance: u64,
}

/// Configuration of [`EcOmega`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcConfig {
    /// Ticks between the local timeouts at which decisions are attempted.
    pub poll_period: u64,
}

impl Default for EcConfig {
    fn default() -> Self {
        EcConfig { poll_period: 5 }
    }
}

/// Algorithm 4: EC from Ω.
///
/// The value type `V` is generic — the paper defines binary EC and notes the
/// standard multivalued extension; the equivalence transformation
/// ([`crate::transforms::EcToEtob`]) instantiates `V` with message sequences.
/// The automaton is `Clone` so that the CHT reduction in `ec-cht` can branch
/// locally simulated runs of it.
#[derive(Clone)]
pub struct EcOmega<V> {
    config: EcConfig,
    /// `count_i`: the last instance this process has been asked to propose.
    count: u64,
    /// `received_i[p, ℓ]`: the value promoted by `p` for instance `ℓ`.
    received: BTreeMap<(u64, ProcessId), V>,
    /// Instances already decided (to enforce EC-Integrity).
    decided: BTreeSet<u64>,
}

impl<V: Clone + fmt::Debug + PartialEq> EcOmega<V> {
    /// Creates the automaton with the given configuration.
    pub fn new(config: EcConfig) -> Self {
        EcOmega {
            config,
            count: 0,
            received: BTreeMap::new(),
            decided: BTreeSet::new(),
        }
    }

    /// The current instance (`count_i`), 0 if nothing was proposed yet.
    pub fn current_instance(&self) -> u64 {
        self.count
    }

    /// Number of `promote` values stored.
    pub fn stored_promotions(&self) -> usize {
        self.received.len()
    }

    fn try_decide(&mut self, ctx: &mut Context<'_, Self>) {
        if self.count == 0 || self.decided.contains(&self.count) {
            return;
        }
        let leader = *ctx.fd();
        if let Some(value) = self.received.get(&(self.count, leader)) {
            let value = value.clone();
            self.decided.insert(self.count);
            ctx.output(EcOutput {
                instance: self.count,
                value,
            });
        }
    }
}

impl<V: Clone + fmt::Debug + PartialEq> Default for EcOmega<V> {
    fn default() -> Self {
        Self::new(EcConfig::default())
    }
}

impl<V: fmt::Debug> fmt::Debug for EcOmega<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcOmega")
            .field("count", &self.count)
            .field("decided", &self.decided)
            .field("stored", &self.received.len())
            .finish()
    }
}

impl<V: Clone + fmt::Debug + PartialEq> Algorithm for EcOmega<V> {
    type Msg = EcMsg<V>;
    type Input = EcInput<V>;
    type Output = EcOutput<V>;
    type Fd = ProcessId;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        ctx.set_timer(self.config.poll_period);
    }

    fn on_input(&mut self, input: EcInput<V>, ctx: &mut Context<'_, Self>) {
        // On invocation of proposeEC_ℓ(v): count_i := ℓ; send promote(v, ℓ) to all.
        self.count = input.instance;
        ctx.broadcast(EcMsg {
            value: input.value,
            instance: input.instance,
        });
    }

    fn on_message(&mut self, from: ProcessId, msg: EcMsg<V>, _ctx: &mut Context<'_, Self>) {
        // On reception of promote(v, ℓ) from p_j: received_i[j, ℓ] := v.
        self.received.insert((msg.instance, from), msg.value);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        // On local timeout: if received_i[Ω_i, count_i] ≠ ⊥ then decide it.
        self.try_decide(ctx);
        ctx.set_timer(self.config.poll_period);
    }
}

impl<V: Clone + fmt::Debug + PartialEq> EventualConsensus for EcOmega<V> {
    type Value = V;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::MultiInstanceProposer;
    use crate::spec::{EcChecker, ProposalRecord};
    use ec_detectors::omega::{OmegaOracle, PreStabilization};
    use ec_sim::{FailurePattern, NetworkModel, OutputHistory, ProcessSet, Time, WorldBuilder};

    /// Runs `instances` sequential EC instances on `n` processes where each
    /// process proposes `base + 10 * its_id + instance`.
    fn run_ec(
        n: usize,
        instances: u64,
        failures: FailurePattern,
        omega: OmegaOracle,
        horizon: u64,
    ) -> (
        OutputHistory<EcOutput<u64>>,
        Vec<ProposalRecord<u64>>,
        ProcessSet,
    ) {
        let mut proposals = Vec::new();
        for p in 0..n {
            for inst in 1..=instances {
                proposals.push(ProposalRecord {
                    instance: inst,
                    by: ProcessId::new(p),
                    value: 10 * p as u64 + inst,
                    at: Time::ZERO,
                });
            }
        }
        let correct = failures.correct();
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .seed(5)
            .build_with(
                |p| {
                    let values: Vec<u64> = (1..=instances)
                        .map(|inst| 10 * p.index() as u64 + inst)
                        .collect();
                    MultiInstanceProposer::new(EcOmega::new(EcConfig::default()), values)
                },
                omega,
            );
        world.run_until(horizon);
        (world.output_history().clone(), proposals, correct)
    }

    #[test]
    fn stable_leader_from_start_gives_agreement_from_instance_one() {
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let (decisions, proposals, correct) = run_ec(n, 4, failures, omega, 5_000);
        let checker = EcChecker::new(decisions, proposals, correct);
        assert!(
            checker.check_all(4, 1).is_ok(),
            "{:?}",
            checker.check_all(4, 1)
        );
        assert_eq!(checker.agreement_index(), 1);
    }

    #[test]
    fn late_stabilization_still_satisfies_ec() {
        // Enough instances that the run keeps proposing well past the
        // stabilization point: early instances may disagree (leaders diverge
        // until t = 100), later ones must all agree. An instance takes about
        // three ticks, so 60 instances span roughly 180 ticks.
        let n = 4;
        let instances = 60;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(100));
        let (decisions, proposals, correct) = run_ec(n, instances, failures, omega, 20_000);
        let checker = EcChecker::new(decisions, proposals, correct);
        // termination / integrity / validity always; agreement from some k
        assert!(
            checker.check_termination(instances).is_empty(),
            "{:?}",
            checker.check_termination(instances)
        );
        assert!(checker.check_integrity().is_empty());
        assert!(checker.check_validity().is_empty());
        let k = checker.agreement_index();
        assert!(
            k <= instances,
            "agreement must set in within the run (k = {k})"
        );
        // with divergent leaders early on, early instances disagree; the point
        // of EC is that this is allowed as long as agreement eventually holds
        assert!(
            k > 1,
            "divergent leaders should cause at least one early disagreement"
        );
        assert!(checker.check_all(instances, instances).is_ok());
    }

    #[test]
    fn works_without_a_correct_majority() {
        // 4 of 5 processes crash early: no majority of correct processes, yet
        // the surviving process keeps deciding (Lemma 2: any environment).
        let n = 5;
        let failures = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId::new(1), Time::new(40)),
                (ProcessId::new(2), Time::new(40)),
                (ProcessId::new(3), Time::new(40)),
                (ProcessId::new(4), Time::new(40)),
            ],
        );
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let (decisions, proposals, correct) = run_ec(n, 6, failures, omega, 10_000);
        let checker = EcChecker::new(decisions, proposals, correct);
        assert!(
            checker.check_all(6, 1).is_ok(),
            "{:?}",
            checker.check_all(6, 1)
        );
    }

    #[test]
    fn leader_crash_before_promoting_does_not_block_termination() {
        // p0 is everyone's leader pre-stabilization but crashes immediately;
        // after stabilization the correct leader's promotions unblock everyone.
        let n = 3;
        let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(1));
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(150))
            .with_pre_stabilization(PreStabilization::Fixed(ProcessId::new(0)));
        let (decisions, proposals, correct) = run_ec(n, 3, failures, omega, 10_000);
        let checker = EcChecker::new(decisions, proposals, correct);
        assert!(
            checker.check_termination(3).is_empty(),
            "{:?}",
            checker.check_termination(3)
        );
        assert!(checker.check_validity().is_empty());
    }

    #[test]
    fn decisions_come_from_the_trusted_leader_only() {
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone())
            .with_eventual_leader(ProcessId::new(2));
        let (decisions, _proposals, _correct) = run_ec(n, 3, failures, omega, 5_000);
        // every decided value is one proposed by p2 (20 + instance)
        for snap in decisions.all() {
            let expected = 20 + snap.value.instance;
            assert_eq!(snap.value.value, expected);
        }
    }

    #[test]
    fn accessors_and_debug() {
        let alg: EcOmega<u32> = EcOmega::default();
        assert_eq!(alg.current_instance(), 0);
        assert_eq!(alg.stored_promotions(), 0);
        assert!(format!("{alg:?}").contains("EcOmega"));
    }
}
