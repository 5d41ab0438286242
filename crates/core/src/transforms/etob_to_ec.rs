//! **Algorithm 2**: transformation from eventual total order broadcast to
//! eventual consensus (`T_{ETOB→EC}`).
//!
//! To propose a value in instance `ℓ`, a process ETOB-broadcasts a message
//! carrying `(ℓ, v)`. It decides instance `ℓ` on the value carried by the
//! first message of the form `(ℓ, ·)` in its delivered sequence. Once the
//! underlying ETOB stabilizes, the first `(ℓ, ·)` message is the same at
//! every process, so decisions agree.

use std::collections::BTreeSet;
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{
    AppMessage, DeliveryDelta, EcInput, EcOutput, EtobBroadcast, EventualConsensus,
    EventualTotalOrderBroadcast, MsgId,
};

/// Encodes `(ℓ, v)` as the payload of an ETOB message.
fn encode(instance: u64, value: &[u8]) -> Vec<u8> {
    let mut payload = instance.to_le_bytes().to_vec();
    payload.extend_from_slice(value);
    payload
}

/// Decodes the payload of an ETOB message into `(ℓ, v)`, if well-formed.
fn decode(payload: &[u8]) -> Option<(u64, Vec<u8>)> {
    let instance_bytes: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    let value = payload.get(8..)?.to_vec();
    Some((u64::from_le_bytes(instance_bytes), value))
}

/// Algorithm 2: EC from any ETOB implementation. Values are byte strings (the
/// multivalued extension of the paper's binary definition).
pub struct EtobToEc<B: EventualTotalOrderBroadcast> {
    inner: B,
    /// Ticks between the wrapper's local timeouts.
    poll_period: u64,
    /// `count_i`: the last instance invoked.
    count: u64,
    /// `d_i`: the sequence delivered by the wrapped ETOB (its delivery
    /// deltas folded into this wrapper's own copy).
    delivered: Vec<AppMessage>,
    /// Instances already decided.
    decided: BTreeSet<u64>,
    /// Per-process sequence numbers for the ETOB messages this wrapper
    /// broadcasts.
    next_seq: u64,
}

impl<B: EventualTotalOrderBroadcast> EtobToEc<B> {
    /// Wraps an ETOB implementation.
    pub fn new(inner: B, poll_period: u64) -> Self {
        EtobToEc {
            inner,
            poll_period: poll_period.max(1),
            count: 0,
            delivered: Vec::new(),
            decided: BTreeSet::new(),
            next_seq: 0,
        }
    }

    /// The wrapped ETOB implementation.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The current instance (`count_i`).
    pub fn current_instance(&self) -> u64 {
        self.count
    }

    /// `First(ℓ)`: the value of the first message of the form `(ℓ, ·)` in the
    /// delivered sequence, if any.
    fn first(&self, instance: u64) -> Option<Vec<u8>> {
        self.delivered
            .iter()
            .filter_map(|m| decode(&m.payload))
            .find(|(inst, _)| *inst == instance)
            .map(|(_, v)| v)
    }

    fn absorb(&mut self, deliveries: Vec<DeliveryDelta>) {
        for delta in deliveries {
            delta.apply_to(&mut self.delivered);
        }
    }

    fn try_decide(&mut self, ctx: &mut Context<'_, Self>) {
        if self.count == 0 || self.decided.contains(&self.count) {
            return;
        }
        if let Some(value) = self.first(self.count) {
            self.decided.insert(self.count);
            ctx.output(EcOutput {
                instance: self.count,
                value,
            });
        }
    }
}

impl<B: EventualTotalOrderBroadcast + fmt::Debug> fmt::Debug for EtobToEc<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EtobToEc")
            .field("inner", &self.inner)
            .field("count", &self.count)
            .field("decided", &self.decided)
            .finish()
    }
}

impl<B: EventualTotalOrderBroadcast> Algorithm for EtobToEc<B> {
    type Msg = B::Msg;
    type Input = EcInput<Vec<u8>>;
    type Output = EcOutput<Vec<u8>>;
    type Fd = B::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let deliveries = ctx.nest(&mut self.inner, |m| m, |inner, ictx| inner.on_start(ictx));
        self.absorb(deliveries);
        ctx.set_timer(self.poll_period);
    }

    fn on_input(&mut self, input: EcInput<Vec<u8>>, ctx: &mut Context<'_, Self>) {
        // On invocation of proposeEC_ℓ(v): count_i := ℓ; broadcastETOB((ℓ, v)).
        self.count = input.instance;
        self.next_seq += 1;
        let message = AppMessage::new(
            MsgId::new(ctx.me(), self.next_seq),
            encode(input.instance, &input.value),
        );
        let deliveries = ctx.nest(
            &mut self.inner,
            |m| m,
            |inner, ictx| inner.on_input(EtobBroadcast { message }, ictx),
        );
        self.absorb(deliveries);
        self.try_decide(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: B::Msg, ctx: &mut Context<'_, Self>) {
        let deliveries = ctx.nest(
            &mut self.inner,
            |m| m,
            |inner, ictx| inner.on_message(from, msg, ictx),
        );
        self.absorb(deliveries);
        self.try_decide(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        // On local timeout: if First(count_i) ≠ ⊥ then decide it.
        let deliveries = ctx.nest(&mut self.inner, |m| m, |inner, ictx| inner.on_timer(ictx));
        self.absorb(deliveries);
        self.try_decide(ctx);
        ctx.set_timer(self.poll_period);
    }
}

impl<B: EventualTotalOrderBroadcast> EventualConsensus for EtobToEc<B> {
    type Value = Vec<u8>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etob_omega::{EtobConfig, EtobOmega};
    use crate::harness::MultiInstanceProposer;
    use crate::spec::{EcChecker, ProposalRecord};
    use ec_detectors::omega::OmegaOracle;
    use ec_sim::{FailurePattern, NetworkModel, ProcessSet, Time, WorldBuilder};

    type Stack = MultiInstanceProposer<EtobToEc<EtobOmega>>;

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

    fn run(
        n: usize,
        instances: u64,
        failures: FailurePattern,
        omega: OmegaOracle,
        horizon: u64,
    ) -> (ec_sim::OutputHistory<EcOutput<Vec<u8>>>, ProcessSet) {
        let correct = failures.correct();
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .seed(23)
            .build_with(
                |p| -> Stack {
                    let values: Vec<Vec<u8>> = (1..=instances)
                        .map(|inst| vec![p.index() as u8, inst as u8])
                        .collect();
                    MultiInstanceProposer::new(
                        EtobToEc::new(EtobOmega::new(p, EtobConfig::default()), 4),
                        values,
                    )
                },
                omega,
            );
        world.run_until(horizon);
        (world.output_history().clone(), correct)
    }

    #[test]
    fn transformation_implements_ec_with_stable_leader() {
        let n = 3;
        let instances = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let (decisions, correct) = run(n, instances, failures, omega, 15_000);
        let checker = EcChecker::new(decisions, proposals_for(n, instances), correct);
        assert!(
            checker.check_all(instances, 1).is_ok(),
            "{:?}",
            checker.check_all(instances, 1)
        );
    }

    #[test]
    fn transformation_implements_ec_with_late_stabilization() {
        let n = 3;
        let instances = 6;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(200));
        let (decisions, correct) = run(n, instances, failures, omega, 20_000);
        let checker = EcChecker::new(decisions, proposals_for(n, instances), correct);
        assert!(checker.check_termination(instances).is_empty());
        assert!(checker.check_integrity().is_empty());
        assert!(checker.check_validity().is_empty());
        assert!(
            checker.agreement_index() <= instances,
            "agreement must set in within the run"
        );
    }

    #[test]
    fn payload_encoding_roundtrips() {
        let p = encode(42, b"value");
        assert_eq!(decode(&p), Some((42, b"value".to_vec())));
        assert_eq!(decode(&[1, 2, 3]), None);
        assert_eq!(decode(&encode(7, b"")), Some((7, vec![])));
    }

    #[test]
    fn accessors_expose_state() {
        let alg = EtobToEc::new(EtobOmega::new(ProcessId::new(0), EtobConfig::default()), 5);
        assert_eq!(alg.current_instance(), 0);
        assert!(alg.inner().delivered().is_empty());
        assert!(format!("{alg:?}").contains("EtobToEc"));
    }
}
