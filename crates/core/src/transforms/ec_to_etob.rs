//! **Algorithm 1**: transformation from eventual consensus to eventual total
//! order broadcast (`T_{EC→ETOB}`).
//!
//! Every broadcast message is pushed to all processes. Periodically, every
//! process proposes to the underlying eventual consensus its current
//! delivered sequence extended by the batch of received-but-undelivered
//! messages; the response of each consensus instance becomes the new
//! delivered sequence. Once the underlying EC starts agreeing, all processes
//! deliver the same, ever-growing sequence.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{
    AppMessage, DeliveryDelta, EcInput, EcOutput, Either, EtobBroadcast, EventualConsensus, MsgId,
};

/// Algorithm 1: ETOB from any EC implementation with message-sequence values.
pub struct EcToEtob<E: EventualConsensus<Value = Vec<AppMessage>>> {
    inner: E,
    /// Ticks between the wrapper's local timeouts.
    poll_period: u64,
    /// `d_i`: the sequence output at any time (the last EC response).
    delivered: Vec<AppMessage>,
    /// `toDeliver_i`: every message received in a `push`, keyed for
    /// deterministic batching.
    to_deliver: BTreeMap<MsgId, AppMessage>,
    /// `count_i`: index of the last consensus instance invoked.
    count: u64,
}

impl<E: EventualConsensus<Value = Vec<AppMessage>>> EcToEtob<E> {
    /// Wraps an EC implementation. `poll_period` is the wrapper's local
    /// timeout used to kick off the first consensus instance.
    pub fn new(inner: E, poll_period: u64) -> Self {
        EcToEtob {
            inner,
            poll_period: poll_period.max(1),
            delivered: Vec::new(),
            to_deliver: BTreeMap::new(),
            count: 0,
        }
    }

    /// The wrapped EC implementation.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The current delivered sequence `d_i`.
    pub fn delivered(&self) -> &[AppMessage] {
        &self.delivered
    }

    /// Index of the last consensus instance invoked.
    pub fn current_instance(&self) -> u64 {
        self.count
    }

    /// `NewBatch(d_i, toDeliver_i)`: the received messages not yet in `d_i`,
    /// in deterministic (identifier) order.
    fn new_batch(&self) -> Vec<AppMessage> {
        let delivered_ids: Vec<MsgId> = self.delivered.iter().map(|m| m.id).collect();
        self.to_deliver
            .values()
            .filter(|m| !delivered_ids.contains(&m.id))
            .cloned()
            .collect()
    }

    /// Invokes `proposeEC_instance(value)` and returns the responses the
    /// invocation produced.
    fn propose(
        &mut self,
        instance: u64,
        value: Vec<AppMessage>,
        ctx: &mut Context<'_, Self>,
    ) -> Vec<EcOutput<Vec<AppMessage>>> {
        ctx.nest(&mut self.inner, Either::Right, |inner, ictx| {
            inner.on_input(EcInput { instance, value }, ictx)
        })
    }

    fn drain(&mut self, ctx: &mut Context<'_, Self>, responses: Vec<EcOutput<Vec<AppMessage>>>) {
        let mut pending = VecDeque::from(responses);
        while let Some(response) = pending.pop_front() {
            // On reception of d as response of proposeEC_ℓ:
            //   d_i := d; count_i := count_i + 1;
            //   proposeEC_{count_i}(d_i · NewBatch(d_i, toDeliver_i))
            if response.instance != self.count {
                // stale response of an earlier instance — the paper's model
                // delivers exactly one response per instance, so ignore
                continue;
            }
            if let Some(delta) = DeliveryDelta::between(&self.delivered, &response.value) {
                self.delivered = response.value;
                ctx.output(delta);
            }
            self.count += 1;
            let mut proposal = self.delivered.clone();
            proposal.extend(self.new_batch());
            pending.extend(self.propose(self.count, proposal, ctx));
        }
    }
}

impl<E: EventualConsensus<Value = Vec<AppMessage>> + fmt::Debug> fmt::Debug for EcToEtob<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcToEtob")
            .field("inner", &self.inner)
            .field("count", &self.count)
            .field("delivered", &self.delivered.len())
            .field("to_deliver", &self.to_deliver.len())
            .finish()
    }
}

impl<E: EventualConsensus<Value = Vec<AppMessage>>> Algorithm for EcToEtob<E> {
    type Msg = Either<AppMessage, E::Msg>;
    type Input = EtobBroadcast;
    type Output = DeliveryDelta;
    type Fd = E::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let responses = ctx.nest(&mut self.inner, Either::Right, |inner, ictx| {
            inner.on_start(ictx)
        });
        self.drain(ctx, responses);
        ctx.set_timer(self.poll_period);
    }

    fn on_input(&mut self, input: EtobBroadcast, ctx: &mut Context<'_, Self>) {
        // On reception of broadcastETOB(m): Send(push(m)) to all.
        ctx.broadcast(Either::Left(input.message));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Either<AppMessage, E::Msg>,
        ctx: &mut Context<'_, Self>,
    ) {
        match msg {
            Either::Left(message) => {
                // On reception of push(m): toDeliver_i := toDeliver_i ∪ {m}.
                self.to_deliver.insert(message.id, message);
            }
            Either::Right(inner_msg) => {
                let responses = ctx.nest(&mut self.inner, Either::Right, |inner, ictx| {
                    inner.on_message(from, inner_msg, ictx)
                });
                self.drain(ctx, responses);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        // On local timeout: if count_i = 0 then count_i := 1;
        //   proposeEC_1(NewBatch(d_i, toDeliver_i)).
        let mut responses = Vec::new();
        if self.count == 0 {
            self.count = 1;
            let proposal = self.new_batch();
            responses = self.propose(1, proposal, ctx);
        }
        // Also tick the wrapped algorithm (its own local timeouts).
        responses.extend(ctx.nest(&mut self.inner, Either::Right, |inner, ictx| {
            inner.on_timer(ictx)
        }));
        self.drain(ctx, responses);
        ctx.set_timer(self.poll_period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec_omega::{EcConfig, EcOmega};
    use crate::spec::EtobChecker;
    use crate::types::materialize;
    use crate::workload::BroadcastWorkload;
    use ec_detectors::omega::OmegaOracle;
    use ec_sim::{FailurePattern, NetworkModel, OutputHistory, Time, WorldBuilder};

    type Stack = EcToEtob<EcOmega<Vec<AppMessage>>>;

    fn build_stack(_p: ProcessId) -> Stack {
        EcToEtob::new(EcOmega::new(EcConfig { poll_period: 3 }), 4)
    }

    fn run(
        n: usize,
        workload: &BroadcastWorkload,
        failures: FailurePattern,
        omega: OmegaOracle,
        horizon: u64,
    ) -> OutputHistory<DeliveryDelta> {
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .seed(17)
            .build_with(build_stack, omega);
        workload.submit_to(&mut world);
        world.run_until(horizon);
        world.output_history().clone()
    }

    #[test]
    fn transformation_implements_etob_with_stable_leader() {
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let workload = BroadcastWorkload::uniform(n, 9, 10, 8);
        let history = run(n, &workload, failures.clone(), omega, 10_000);
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        // everything broadcast ends up delivered everywhere
        let sequences = materialize(&history);
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(sequences.last(p).map(|s| s.len()), Some(9));
        }
    }

    #[test]
    fn transformation_implements_etob_with_late_stabilization() {
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(250));
        let workload = BroadcastWorkload::uniform(n, 8, 5, 10);
        let history = run(n, &workload, failures.clone(), omega, 12_000);
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        // the eventual-delivery properties hold regardless of tau
        assert!(
            checker.check_eventual_delivery().is_empty(),
            "{:?}",
            checker.check_eventual_delivery()
        );
        // ordering properties hold from some finite stabilization point
        let tau = checker
            .find_stabilization_time()
            .expect("ordering must stabilize");
        assert!(checker.with_tau(tau).check_all().is_ok());
    }

    #[test]
    fn transformation_survives_crashes_of_a_minority() {
        let n = 4;
        let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(3), Time::new(60));
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let workload = BroadcastWorkload::uniform(n, 8, 10, 12);
        let history = run(n, &workload, failures.clone(), omega, 12_000);
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        // messages broadcast by the crashed process before its crash may or
        // may not be delivered; the ETOB properties only constrain correct
        // processes' messages and sequences
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
    }

    #[test]
    fn accessors_expose_wrapper_state() {
        let stack = build_stack(ProcessId::new(0));
        assert_eq!(stack.current_instance(), 0);
        assert!(stack.delivered().is_empty());
        assert_eq!(stack.inner().current_instance(), 0);
        assert!(format!("{stack:?}").contains("EcToEtob"));
    }
}
