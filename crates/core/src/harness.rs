//! Drivers that exercise the abstractions the way their specifications
//! assume.
//!
//! The EC specification assumes that every process invokes `proposeEC_{ℓ+1}`
//! as soon as `proposeEC_ℓ` has returned. [`MultiInstanceProposer`] drives any
//! [`EventualConsensus`] implementation through a fixed list of per-instance
//! proposal values following exactly that discipline, re-emitting the
//! decisions so that the run trace contains the full decision history.
//! [`EicProposer`] does the same for an [`EventualIrrevocableConsensus`]
//! implementation, whose responses an instance may revoke: it proposes the
//! next instance on the *first* response of the current one.

use std::collections::VecDeque;
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{
    EcInput, EcOutput, EicInput, EicOutput, EventualConsensus, EventualIrrevocableConsensus,
};

/// Ticks between the driver's local timeouts, which also pace the wrapped
/// algorithm's timeout-driven logic (the driver owns the single timer chain
/// of the process; see [`Context::nest`]).
const POLL_PERIOD: u64 = 3;

/// Drives an [`EventualConsensus`] implementation through sequential
/// instances `1, 2, …, values.len()`, proposing `values[ℓ-1]` in instance `ℓ`
/// as soon as instance `ℓ-1` has returned at this process, and re-emitting
/// every decision as its own output.
pub struct MultiInstanceProposer<E: EventualConsensus> {
    inner: E,
    values: Vec<E::Value>,
    /// Highest instance proposed so far (0 = none).
    proposed: u64,
}

impl<E: EventualConsensus> MultiInstanceProposer<E> {
    /// Creates a driver proposing the given values in instances `1..=len`.
    pub fn new(inner: E, values: Vec<E::Value>) -> Self {
        MultiInstanceProposer {
            inner,
            values,
            proposed: 0,
        }
    }

    /// The wrapped consensus implementation (for inspection in tests).
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Proposes the next value, if any, and returns the decisions the
    /// proposal produced.
    fn propose_next(&mut self, ctx: &mut Context<'_, Self>) -> Vec<EcOutput<E::Value>> {
        let Some(value) = self.values.get(self.proposed as usize).cloned() else {
            return Vec::new();
        };
        self.proposed += 1;
        let instance = self.proposed;
        ctx.nest(
            &mut self.inner,
            |m| m,
            |inner, ictx| inner.on_input(EcInput { instance, value }, ictx),
        )
    }

    fn drain(&mut self, ctx: &mut Context<'_, Self>, decisions: Vec<EcOutput<E::Value>>) {
        let mut pending = VecDeque::from(decisions);
        while let Some(decision) = pending.pop_front() {
            ctx.output(decision.clone());
            // The specification's discipline: invoke the next instance as
            // soon as the previous one returns at this process.
            if decision.instance == self.proposed {
                pending.extend(self.propose_next(ctx));
            }
        }
    }
}

impl<E: EventualConsensus + fmt::Debug> fmt::Debug for MultiInstanceProposer<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiInstanceProposer")
            .field("inner", &self.inner)
            .field("proposed", &self.proposed)
            .field("total_values", &self.values.len())
            .finish()
    }
}

impl<E: EventualConsensus> Algorithm for MultiInstanceProposer<E> {
    type Msg = E::Msg;
    type Input = ();
    type Output = EcOutput<E::Value>;
    type Fd = E::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let mut decisions = ctx.nest(&mut self.inner, |m| m, |inner, ictx| inner.on_start(ictx));
        decisions.extend(self.propose_next(ctx));
        self.drain(ctx, decisions);
        ctx.set_timer(POLL_PERIOD);
    }

    fn on_message(&mut self, from: ProcessId, msg: E::Msg, ctx: &mut Context<'_, Self>) {
        let decisions = ctx.nest(
            &mut self.inner,
            |m| m,
            |inner, ictx| inner.on_message(from, msg, ictx),
        );
        self.drain(ctx, decisions);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        let decisions = ctx.nest(&mut self.inner, |m| m, |inner, ictx| inner.on_timer(ictx));
        self.drain(ctx, decisions);
        ctx.set_timer(POLL_PERIOD);
    }

    fn on_input(&mut self, _input: (), _ctx: &mut Context<'_, Self>) {
        // The driver's proposal schedule is fixed at construction time.
    }
}

/// Drives an [`EventualIrrevocableConsensus`] implementation through
/// sequential instances `1, 2, …, values.len()`, proposing `values[ℓ-1]` in
/// instance `ℓ` as soon as the first response of instance `ℓ-1` has arrived
/// at this process, and re-emitting every response — revocations included —
/// as its own output, so the run's output history is the EIC response
/// history.
pub struct EicProposer<I: EventualIrrevocableConsensus> {
    inner: I,
    values: Vec<I::Value>,
    /// Highest instance proposed so far (0 = none).
    proposed: u64,
}

impl<I: EventualIrrevocableConsensus> EicProposer<I> {
    /// Creates a driver proposing the given values in instances `1..=len`.
    pub fn new(inner: I, values: Vec<I::Value>) -> Self {
        EicProposer {
            inner,
            values,
            proposed: 0,
        }
    }

    /// Runs `f` on the wrapped EIC, re-emits its responses and says whether
    /// one answered the current instance.
    fn run<F>(&mut self, ctx: &mut Context<'_, Self>, f: F) -> bool
    where
        F: FnOnce(&mut I, &mut Context<'_, I>),
    {
        let responses = ctx.nest(&mut self.inner, |m| m, f);
        let answered = responses.iter().any(|out| out.instance == self.proposed);
        for response in responses {
            ctx.output(response);
        }
        answered
    }

    fn drive<F>(&mut self, ctx: &mut Context<'_, Self>, f: F)
    where
        F: FnOnce(&mut I, &mut Context<'_, I>),
    {
        if self.run(ctx, f) {
            self.propose_next(ctx);
        }
    }

    fn propose_next(&mut self, ctx: &mut Context<'_, Self>) {
        let Some(value) = self.values.get(self.proposed as usize).cloned() else {
            return;
        };
        self.proposed += 1;
        let instance = self.proposed;
        self.run(ctx, |inner, ictx| {
            inner.on_input(EicInput { instance, value }, ictx)
        });
    }
}

impl<I: EventualIrrevocableConsensus + fmt::Debug> fmt::Debug for EicProposer<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EicProposer")
            .field("inner", &self.inner)
            .field("proposed", &self.proposed)
            .field("total_values", &self.values.len())
            .finish()
    }
}

impl<I: EventualIrrevocableConsensus> Algorithm for EicProposer<I> {
    type Msg = I::Msg;
    type Input = ();
    type Output = EicOutput<I::Value>;
    type Fd = I::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |inner, ictx| inner.on_start(ictx));
        self.propose_next(ctx);
        ctx.set_timer(POLL_PERIOD);
    }

    fn on_message(&mut self, from: ProcessId, msg: I::Msg, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |inner, ictx| inner.on_message(from, msg, ictx));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |inner, ictx| inner.on_timer(ictx));
        ctx.set_timer(POLL_PERIOD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec_omega::{EcConfig, EcOmega};
    use ec_detectors::omega::OmegaOracle;
    use ec_sim::{FailurePattern, NetworkModel, WorldBuilder};

    #[test]
    fn proposer_walks_through_all_instances() {
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(1))
            .failures(failures)
            .build_with(
                |p| {
                    MultiInstanceProposer::new(
                        EcOmega::<u64>::new(EcConfig::default()),
                        vec![p.index() as u64, 100 + p.index() as u64],
                    )
                },
                omega,
            );
        world.run_until(2_000);
        for p in world.process_ids() {
            let decided: Vec<u64> = world
                .output_history()
                .outputs(p)
                .iter()
                .map(|(_, d)| d.instance)
                .collect();
            assert_eq!(decided, vec![1, 2], "process {p} decisions: {decided:?}");
            assert_eq!(world.algorithm(p).proposed, 2);
        }
    }

    #[test]
    fn proposer_with_no_values_stays_idle() {
        let n = 2;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n).failures(failures).build_with(
            |_p| MultiInstanceProposer::new(EcOmega::<u64>::new(EcConfig::default()), vec![]),
            omega,
        );
        world.run_until(500);
        assert_eq!(world.metrics().outputs, 0);
        assert!(format!("{:?}", world.algorithm(0.into())).contains("MultiInstanceProposer"));
    }
}
