//! **Algorithms 6 & 7** (Appendix A): the equivalence between eventual
//! consensus (EC) and eventual *irrevocable* consensus (EIC).
//!
//! EIC relaxes Integrity instead of Agreement: a bounded number of decisions
//! may be revoked a finite number of times. Algorithm 6 builds EIC from EC by
//! proposing, in instance `ℓ`, the whole sequence of current decisions
//! extended with the new value; whenever the decided sequence disagrees with
//! the locally known one, the disagreeing entries are re-decided (revoked).
//! Algorithm 7 builds EC back from EIC by simply returning the first response
//! of each instance.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{
    EcInput, EcOutput, EicInput, EicOutput, EventualConsensus, EventualIrrevocableConsensus,
};
use crate::wrapper::run_inner;

/// Algorithm 6: EIC from EC (`T_{EC→EIC}`). The wrapped EC implementation
/// must carry sequences of values (`Vec<Vec<u8>>`).
pub struct EcToEic<E: EventualConsensus<Value = Vec<Vec<u8>>>> {
    inner: E,
    /// `decision_i`: the sequence of values currently decided, indexed by
    /// instance (entry `k` is the decision of instance `k + 1`).
    decision: Vec<Vec<u8>>,
}

impl<E: EventualConsensus<Value = Vec<Vec<u8>>>> EcToEic<E> {
    /// Wraps an EC implementation.
    pub fn new(inner: E) -> Self {
        EcToEic {
            inner,
            decision: Vec::new(),
        }
    }

    /// The wrapped EC implementation.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The current decision sequence.
    pub fn decisions(&self) -> &[Vec<u8>] {
        &self.decision
    }

    fn relay(
        &mut self,
        actions: ec_sim::Actions<E>,
        ctx: &mut Context<'_, Self>,
        pending: &mut VecDeque<EcOutput<Vec<Vec<u8>>>>,
    ) {
        for (to, msg) in actions.sends {
            ctx.send(to, msg);
        }
        // Inner timer requests are not relayed; the outermost driver owns the
        // process's single timer chain and forwards fires down the stack.
        pending.extend(actions.outputs);
    }

    fn drain(
        &mut self,
        ctx: &mut Context<'_, Self>,
        pending: &mut VecDeque<EcOutput<Vec<Vec<u8>>>>,
    ) {
        while let Some(response) = pending.pop_front() {
            // On reception of decision as response of proposeEC_ℓ:
            //   for k in 0..ℓ: if decision[k] ≠ decision_i[k] then
            //     DecideEIC(k, decision[k]);
            //   decision_i := decision.
            let decided = response.value;
            for (k, value) in decided.iter().enumerate() {
                if self.decision.get(k) != Some(value) {
                    ctx.output(EicOutput {
                        instance: k as u64 + 1,
                        value: value.clone(),
                    });
                }
            }
            self.decision = decided;
        }
    }
}

impl<E: EventualConsensus<Value = Vec<Vec<u8>>> + fmt::Debug> fmt::Debug for EcToEic<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcToEic")
            .field("inner", &self.inner)
            .field("decisions", &self.decision.len())
            .finish()
    }
}

impl<E: EventualConsensus<Value = Vec<Vec<u8>>>> Algorithm for EcToEic<E> {
    type Msg = E::Msg;
    type Input = EicInput<Vec<u8>>;
    type Output = EicOutput<Vec<u8>>;
    type Fd = E::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_start(ictx),
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }

    fn on_input(&mut self, input: EicInput<Vec<u8>>, ctx: &mut Context<'_, Self>) {
        // On invocation of proposeEIC_ℓ(v): proposeEC_ℓ(decision_i · v).
        let mut proposal = self.decision.clone();
        proposal.truncate(input.instance as usize - 1);
        proposal.push(input.value);
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| {
                inner.on_input(
                    EcInput {
                        instance: input.instance,
                        value: proposal,
                    },
                    ictx,
                )
            },
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }

    fn on_message(&mut self, from: ProcessId, msg: E::Msg, ctx: &mut Context<'_, Self>) {
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_message(from, msg, ictx),
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_timer(ictx),
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }
}

impl<E: EventualConsensus<Value = Vec<Vec<u8>>>> EventualIrrevocableConsensus for EcToEic<E> {
    type Value = Vec<u8>;
}

/// Algorithm 7: EC from EIC (`T_{EIC→EC}`): decide on the *first* response of
/// each instance, ignoring later revocations.
pub struct EicToEc<I: EventualIrrevocableConsensus> {
    inner: I,
    /// `count_i`: the last instance invoked.
    count: u64,
    decided: BTreeSet<u64>,
}

impl<I: EventualIrrevocableConsensus> EicToEc<I> {
    /// Wraps an EIC implementation.
    pub fn new(inner: I) -> Self {
        EicToEc {
            inner,
            count: 0,
            decided: BTreeSet::new(),
        }
    }

    /// The wrapped EIC implementation.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The current instance (`count_i`).
    pub fn current_instance(&self) -> u64 {
        self.count
    }

    fn relay(
        &mut self,
        actions: ec_sim::Actions<I>,
        ctx: &mut Context<'_, Self>,
        pending: &mut VecDeque<EicOutput<I::Value>>,
    ) {
        for (to, msg) in actions.sends {
            ctx.send(to, msg);
        }
        // Inner timer requests are not relayed; the outermost driver owns the
        // process's single timer chain and forwards fires down the stack.
        pending.extend(actions.outputs);
    }

    fn drain(&mut self, ctx: &mut Context<'_, Self>, pending: &mut VecDeque<EicOutput<I::Value>>) {
        while let Some(response) = pending.pop_front() {
            // On reception of v as response of proposeEIC_ℓ:
            //   if count_i = ℓ then DecideEC(ℓ, v) (only the first response).
            if response.instance == self.count && self.decided.insert(response.instance) {
                ctx.output(EcOutput {
                    instance: response.instance,
                    value: response.value,
                });
            }
        }
    }
}

impl<I: EventualIrrevocableConsensus + fmt::Debug> fmt::Debug for EicToEc<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EicToEc")
            .field("inner", &self.inner)
            .field("count", &self.count)
            .field("decided", &self.decided)
            .finish()
    }
}

impl<I: EventualIrrevocableConsensus> Algorithm for EicToEc<I> {
    type Msg = I::Msg;
    type Input = EcInput<I::Value>;
    type Output = EcOutput<I::Value>;
    type Fd = I::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_start(ictx),
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }

    fn on_input(&mut self, input: EcInput<I::Value>, ctx: &mut Context<'_, Self>) {
        // On invocation of proposeEC_ℓ(v): count_i := ℓ; proposeEIC_ℓ(v).
        self.count = input.instance;
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| {
                inner.on_input(
                    EicInput {
                        instance: input.instance,
                        value: input.value,
                    },
                    ictx,
                )
            },
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }

    fn on_message(&mut self, from: ProcessId, msg: I::Msg, ctx: &mut Context<'_, Self>) {
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_message(from, msg, ictx),
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        let mut pending = VecDeque::new();
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_timer(ictx),
        );
        self.relay(actions, ctx, &mut pending);
        self.drain(ctx, &mut pending);
    }
}

impl<I: EventualIrrevocableConsensus> EventualConsensus for EicToEc<I> {
    type Value = I::Value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec_omega::{EcConfig, EcOmega};
    use crate::harness::MultiInstanceProposer;
    use crate::spec::{EcChecker, EicChecker, ProposalRecord};
    use ec_detectors::omega::OmegaOracle;
    use ec_sim::{FailurePattern, NetworkModel, Time, WorldBuilder};

    /// The full circle of Theorem 3: EC (Algorithm 4) → EIC (Algorithm 6) →
    /// EC again (Algorithm 7), driven through sequential instances.
    type Circle = MultiInstanceProposer<EicToEc<EcToEic<EcOmega<Vec<Vec<u8>>>>>>;

    fn build(p: ProcessId, instances: u64) -> Circle {
        let values: Vec<Vec<u8>> = (1..=instances)
            .map(|inst| vec![p.index() as u8, inst as u8])
            .collect();
        MultiInstanceProposer::new(
            EicToEc::new(EcToEic::new(EcOmega::new(EcConfig { poll_period: 3 }))),
            values,
        )
    }

    fn proposals_for(n: usize, instances: u64) -> Vec<ProposalRecord<Vec<u8>>> {
        let mut proposals = Vec::new();
        for p in 0..n {
            for inst in 1..=instances {
                proposals.push(ProposalRecord {
                    instance: inst,
                    by: ProcessId::new(p),
                    value: vec![p as u8, inst as u8],
                    at: Time::ZERO,
                });
            }
        }
        proposals
    }

    #[test]
    fn ec_to_eic_to_ec_circle_satisfies_ec() {
        let n = 3;
        let instances = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures.clone())
            .seed(31)
            .build_with(|p| build(p, instances), omega);
        world.run_until(15_000);
        let decisions = world.output_history().clone();
        let checker = EcChecker::new(decisions, proposals_for(n, instances), failures.correct());
        assert!(
            checker.check_all(instances, 1).is_ok(),
            "{:?}",
            checker.check_all(instances, 1)
        );
    }

    #[test]
    fn eic_layer_revokes_only_finitely_and_converges() {
        // With divergent leaders early on, the EIC layer revises early
        // decisions; after stabilization revisions stop, later instances get a
        // single response, and final responses agree.
        // An instance takes about three ticks, so 40 instances span roughly
        // 120 ticks; leaders diverge for the first 60.
        let n = 3;
        let instances = 40;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(60));
        // drive the EIC wrapper directly (without the EC-restoring layer) so
        // the output history is the EIC response history
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures.clone())
            .seed(37)
            .build_with(
                |p| {
                    let values: Vec<Vec<u8>> = (1..=instances)
                        .map(|inst| vec![p.index() as u8, inst as u8])
                        .collect();
                    EicDriver {
                        inner: EcToEic::new(EcOmega::new(EcConfig { poll_period: 3 })),
                        values,
                        proposed: 0,
                    }
                },
                omega,
            );
        world.run_until(30_000);
        let responses = world.output_history().clone();
        let checker = EicChecker::new(responses, proposals_for(n, instances), failures.correct());
        assert!(
            checker.check_termination(instances).is_empty(),
            "{:?}",
            checker.check_termination(instances)
        );
        assert!(
            checker.check_validity().is_empty(),
            "{:?}",
            checker.check_validity()
        );
        assert!(
            checker.check_agreement().is_empty(),
            "{:?}",
            checker.check_agreement()
        );
        // Divergent leaders cause at least one revocation, but revocations are
        // finite: there is a bound k (well before the last instance) from
        // which every instance gets a single response.
        assert!(checker.revocation_count() > 0);
        let max = checker.max_instance();
        let bound = (1..=max)
            .find(|k| checker.check_integrity(*k).is_empty())
            .expect("revocations must stop");
        assert!(
            bound < max,
            "integrity must hold for a non-trivial suffix (bound {bound}, max {max})"
        );
    }

    #[test]
    fn accessors_and_debug() {
        let eic = EcToEic::new(EcOmega::<Vec<Vec<u8>>>::new(EcConfig::default()));
        assert!(eic.decisions().is_empty());
        assert!(format!("{eic:?}").contains("EcToEic"));
        let ec = EicToEc::new(eic);
        assert_eq!(ec.current_instance(), 0);
        assert!(format!("{ec:?}").contains("EicToEc"));
        assert!(ec.inner().inner().stored_promotions() == 0);
    }

    /// Minimal driver for the EIC interface used by the revocation test: it
    /// proposes the next instance as soon as the *first* response for the
    /// current one arrives.
    struct EicDriver<I: EventualIrrevocableConsensus> {
        inner: I,
        values: Vec<I::Value>,
        proposed: u64,
    }

    impl<I: EventualIrrevocableConsensus> EicDriver<I> {
        fn relay_and_emit(
            &mut self,
            actions: ec_sim::Actions<I>,
            ctx: &mut Context<'_, Self>,
        ) -> Vec<EicOutput<I::Value>> {
            for (to, msg) in actions.sends {
                ctx.send(to, msg);
            }
            for out in &actions.outputs {
                ctx.output(out.clone());
            }
            actions.outputs
        }

        fn drive<F>(&mut self, ctx: &mut Context<'_, Self>, f: F)
        where
            F: FnOnce(&mut I, &mut Context<'_, I>),
        {
            let actions = run_inner(
                &mut self.inner,
                ctx.me(),
                ctx.now(),
                ctx.n(),
                ctx.fd().clone(),
                f,
            );
            let outputs = self.relay_and_emit(actions, ctx);
            let first_response_for_current = outputs.iter().any(|o| o.instance == self.proposed);
            if first_response_for_current {
                self.propose_next(ctx);
            }
        }

        fn propose_next(&mut self, ctx: &mut Context<'_, Self>) {
            if (self.proposed as usize) >= self.values.len() {
                return;
            }
            self.proposed += 1;
            let value = self.values[self.proposed as usize - 1].clone();
            let instance = self.proposed;
            let actions = run_inner(
                &mut self.inner,
                ctx.me(),
                ctx.now(),
                ctx.n(),
                ctx.fd().clone(),
                |inner, ictx| inner.on_input(EicInput { instance, value }, ictx),
            );
            self.relay_and_emit(actions, ctx);
        }
    }

    impl<I: EventualIrrevocableConsensus> Algorithm for EicDriver<I> {
        type Msg = I::Msg;
        type Input = ();
        type Output = EicOutput<I::Value>;
        type Fd = I::Fd;

        fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
            self.drive(ctx, |inner, ictx| inner.on_start(ictx));
            self.propose_next(ctx);
            ctx.set_timer(3);
        }

        fn on_message(&mut self, from: ProcessId, msg: I::Msg, ctx: &mut Context<'_, Self>) {
            self.drive(ctx, |inner, ictx| inner.on_message(from, msg, ictx));
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
            self.drive(ctx, |inner, ictx| inner.on_timer(ictx));
            ctx.set_timer(3);
        }
    }
}
