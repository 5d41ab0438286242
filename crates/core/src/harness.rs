//! Drivers that exercise the abstractions the way their specifications
//! assume.
//!
//! The EC specification assumes that every process invokes `proposeEC_{ℓ+1}`
//! as soon as `proposeEC_ℓ` has returned. [`MultiInstanceProposer`] drives any
//! [`EventualConsensus`] implementation through a fixed list of per-instance
//! proposal values following exactly that discipline, re-emitting the
//! decisions so that the run trace contains the full decision history.

use std::collections::VecDeque;
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{EcInput, EcOutput, EventualConsensus};
use crate::wrapper::run_inner;

/// Drives an [`EventualConsensus`] implementation through sequential
/// instances `1, 2, …, values.len()`, proposing `values[ℓ-1]` in instance `ℓ`
/// as soon as instance `ℓ-1` has returned at this process.
/// Ticks between the driver's local timeouts, which also pace the wrapped
/// algorithm's timeout-driven logic (wrappers own the single timer chain of a
/// process; see the module docs of [`crate::wrapper`]).
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

    fn propose_next(
        &mut self,
        ctx: &mut Context<'_, Self>,
        pending: &mut VecDeque<EcOutput<E::Value>>,
    ) {
        let Some(value) = self.values.get(self.proposed as usize).cloned() else {
            return;
        };
        self.proposed += 1;
        let instance = self.proposed;
        let actions = run_inner(
            &mut self.inner,
            ctx.me(),
            ctx.now(),
            ctx.n(),
            ctx.fd().clone(),
            |inner, ictx| inner.on_input(EcInput { instance, value }, ictx),
        );
        self.relay(actions, ctx, pending);
    }

    fn relay(
        &mut self,
        actions: ec_sim::Actions<E>,
        ctx: &mut Context<'_, Self>,
        pending: &mut VecDeque<EcOutput<E::Value>>,
    ) {
        for (to, msg) in actions.sends {
            ctx.send(to, msg);
        }
        // Inner timer requests are deliberately not relayed: the driver owns
        // the single periodic timer chain of the process and forwards every
        // fire to the wrapped algorithm, which keeps the number of scheduled
        // timer events constant instead of growing with every fire.
        pending.extend(actions.outputs);
    }

    fn drain(&mut self, ctx: &mut Context<'_, Self>, pending: &mut VecDeque<EcOutput<E::Value>>) {
        while let Some(decision) = pending.pop_front() {
            ctx.output(decision.clone());
            // The specification's discipline: invoke the next instance as
            // soon as the previous one returns at this process.
            if decision.instance == self.proposed {
                self.propose_next(ctx, pending);
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
        self.propose_next(ctx, &mut pending);
        self.drain(ctx, &mut pending);
        ctx.set_timer(POLL_PERIOD);
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
        ctx.set_timer(POLL_PERIOD);
    }

    fn on_input(&mut self, _input: (), _ctx: &mut Context<'_, Self>) {
        // The driver's proposal schedule is fixed at construction time.
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
