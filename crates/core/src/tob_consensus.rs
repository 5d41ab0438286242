//! The strongly consistent baseline: consensus-based total order broadcast
//! gated by quorums (Ω + Σ).
//!
//! This is the comparator the paper measures eventual consistency against: a
//! leader-sequencer in the style of multi-Paxos / Chandra–Toueg steady state.
//! The current Ω leader assigns slots to messages and broadcasts an `accept`;
//! every process acknowledges every accepted slot to everyone; a slot is
//! *delivered* (in slot order) once the acknowledgements cover a quorum
//! output by Σ. Delivery of a message broadcast by a non-leader therefore
//! takes **three** communication steps (forward → accept → acknowledge),
//! matching the lower bound the paper cites for strong consistency, versus
//! the two steps of Algorithm 5.
//!
//! Because delivery waits for a Σ quorum, the protocol loses liveness
//! whenever a quorum is unreachable — a minority partition, or any
//! environment without the quorums Σ promises. This is exactly the
//! computational gap (Σ) between consistency and eventual consistency that
//! the paper identifies; experiment E2 exhibits it.
//!
//! Like Algorithm 5, the sequencer honors declared causal dependencies: the
//! leader assigns a slot to a message only once every identifier in `C(m)`
//! occupies a slot, parking early arrivals until then. Slot order — and with
//! it the delivered prefix — therefore respects causal order, so client
//! sessions get the same submission-order guarantee at both consistency
//! levels. (As with Algorithm 5, `C(m)` must name previously broadcast
//! messages; a dependency that is never broadcast parks its chain forever.)
//!
//! Scope note: this baseline targets the steady-state latency and liveness
//! behaviour under a stable leader (the regime every experiment uses it in).
//! Ballot-based recovery from *dueling* leaders — the full Paxos machinery —
//! is out of scope; leader changes are handled by re-forwarding and
//! re-accepting undelivered slots.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId, ProcessSet};

use crate::types::{decode_sequence, AppMessage, DeliveryDelta, EtobBroadcast, MsgId};

/// Messages of [`ConsensusTob`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TobMsg {
    /// A non-leader forwards a message to the current leader for sequencing.
    Forward(AppMessage),
    /// The leader assigns `message` to `slot`.
    Accept {
        /// The sequencing slot.
        slot: u64,
        /// The sequenced message.
        message: AppMessage,
    },
    /// Acknowledgement that the sender has accepted `slot`.
    Ack {
        /// The acknowledged slot.
        slot: u64,
        /// The identifier of the message accepted in that slot.
        id: MsgId,
    },
    /// Catch-up beacon (leader, [`ConsensusTobConfig::catch_up`] only): the
    /// leader's slot horizon and delivered length, letting a replica that was
    /// down detect that it missed decided slots.
    Heads {
        /// The leader's next unassigned slot.
        next_slot: u64,
        /// The leader's delivered-prefix length.
        delivered: u64,
    },
    /// A lagging replica asks the leader for the decided prefix beyond its
    /// own `have` delivered entries.
    SyncRequest {
        /// The requester's delivered-prefix length.
        have: u64,
    },
    /// The leader's answer: its decided (quorum-acknowledged and delivered)
    /// suffix starting at index `have`. Safe state transfer: every entry was
    /// already delivered by the leader, so its position in the total order is
    /// settled.
    SyncReply {
        /// Echo of the request's `have`.
        have: u64,
        /// The leader's `next_deliver_slot` after the suffix.
        next_deliver_slot: u64,
        /// The decided entries `delivered[have..]` of the leader.
        suffix: Vec<AppMessage>,
    },
}

/// Configuration of [`ConsensusTob`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusTobConfig {
    /// Ticks between retransmissions of pending messages and undelivered
    /// slots.
    pub resend_period: u64,
    /// Enables the catch-up protocol (`Heads` / `SyncRequest` / `SyncReply`):
    /// the leader periodically beacons its delivered length, and a replica
    /// that detects it missed decided slots (because it was down when they
    /// were accepted *and* delivered everywhere) pulls the decided prefix
    /// from the leader. Off by default — the paper's crash-stop model never
    /// needs it; crash–*recovery* chaos scenarios do, because the leader's
    /// `resend_period` rebroadcasts only cover slots the leader itself has
    /// not delivered yet.
    ///
    /// Strong consistency additionally requires recovering replicas to rejoin
    /// with their durable state retained
    /// (`ec_sim::RecoveryPolicy::RetainState`) if they may ever act as
    /// leader: a sequencer that forgets its slot assignments could reassign
    /// an occupied slot — the classical reason Paxos acceptors need stable
    /// storage.
    pub catch_up: bool,
}

impl Default for ConsensusTobConfig {
    fn default() -> Self {
        ConsensusTobConfig {
            resend_period: 10,
            catch_up: false,
        }
    }
}

impl ConsensusTobConfig {
    /// Builder-style helper enabling the catch-up protocol.
    pub fn with_catch_up(mut self) -> Self {
        self.catch_up = true;
        self
    }
}

/// Quorum-gated leader-sequencer TOB (the strong-consistency baseline).
pub struct ConsensusTob {
    me: ProcessId,
    config: ConsensusTobConfig,
    /// Messages this process originated that are not yet delivered.
    pending_own: BTreeMap<MsgId, AppMessage>,
    /// Leader side: identifiers already assigned to a slot.
    assigned: BTreeSet<MsgId>,
    /// Identifiers known to occupy *some* slot (assigned here or seen in an
    /// `accept`), used to decide when a message's causal dependencies are
    /// sequenced.
    sequenced: BTreeSet<MsgId>,
    /// Leader side: messages whose declared dependencies `C(m)` are not all
    /// sequenced yet, in arrival order. Slot order respects declared
    /// dependencies, so causal chains deliver in submission order.
    waiting: Vec<AppMessage>,
    /// Next slot a leader would assign.
    next_slot: u64,
    /// Accepted proposals per slot.
    proposals: BTreeMap<u64, AppMessage>,
    /// Acknowledgements received per slot.
    acks: BTreeMap<u64, ProcessSet>,
    /// Delivered prefix.
    delivered: Vec<AppMessage>,
    delivered_ids: BTreeSet<MsgId>,
    /// Next slot to deliver.
    next_deliver_slot: u64,
    /// Number of incoming messages dropped as malformed
    /// ([`crate::types::DecodeError`]). Dropped input never touches state.
    malformed: u64,
    /// Optional telemetry recorder ([`crate::types::Instrumented`]):
    /// lifecycle events and latency clocks, attached by the engines and
    /// never consulted by the protocol itself.
    telemetry: Option<Box<ec_telemetry::Recorder>>,
}

impl ConsensusTob {
    /// Creates the automaton for process `me`.
    pub fn new(me: ProcessId, config: ConsensusTobConfig) -> Self {
        ConsensusTob {
            me,
            config,
            pending_own: BTreeMap::new(),
            assigned: BTreeSet::new(),
            sequenced: BTreeSet::new(),
            waiting: Vec::new(),
            next_slot: 0,
            proposals: BTreeMap::new(),
            acks: BTreeMap::new(),
            delivered: Vec::new(),
            delivered_ids: BTreeSet::new(),
            next_deliver_slot: 0,
            malformed: 0,
            telemetry: None,
        }
    }

    /// Pushes the current logical tick into the attached recorder, if any.
    fn telemetry_tick(&mut self, now: u64) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.set_tick(now);
        }
    }

    /// Records every delivered entry beyond the recorder's watermark (the
    /// quorum path and the catch-up path both append to `delivered`, so one
    /// suffix scan per change covers both).
    fn record_delivered_tail(&mut self) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let start = t.delivered_watermark() as usize;
        for m in self.delivered.iter().skip(start) {
            t.delivered(m.id.origin.index() as u32, m.id.seq);
        }
        let total = self.delivered.len() as u64;
        t.set_delivered_watermark(total);
    }

    /// Number of incoming messages this process dropped as malformed. A
    /// non-zero count under a byzantine-free nemesis is a bug.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// The delivered sequence so far.
    pub fn delivered(&self) -> &[AppMessage] {
        &self.delivered
    }

    /// Number of slots this process has accepted.
    pub fn accepted_slots(&self) -> usize {
        self.proposals.len()
    }

    /// Number of messages originated here that still await delivery.
    pub fn pending(&self) -> usize {
        self.pending_own.len()
    }

    fn leader(ctx: &Context<'_, Self>) -> ProcessId {
        ctx.fd().0
    }

    fn quorum(ctx: &Context<'_, Self>) -> ProcessSet {
        ctx.fd().1.clone()
    }

    /// Sequences a message: assigns it the next slot if all its declared
    /// dependencies already occupy a slot, else parks it (in arrival order)
    /// until they do. Slot order therefore respects `C(m)`, so the delivered
    /// prefix is causally ordered — the same contract Algorithm 5 gives.
    fn assign(&mut self, message: AppMessage, ctx: &mut Context<'_, Self>) {
        if self.is_known(&message.id) || self.waiting.iter().any(|m| m.id == message.id) {
            self.drain_waiting(ctx);
            return;
        }
        self.waiting.push(message);
        self.drain_waiting(ctx);
    }

    fn is_known(&self, id: &MsgId) -> bool {
        self.assigned.contains(id) || self.sequenced.contains(id) || self.delivered_ids.contains(id)
    }

    fn deps_sequenced(&self, message: &AppMessage) -> bool {
        message.deps.iter().all(|dep| self.is_known(dep))
    }

    fn drain_waiting(&mut self, ctx: &mut Context<'_, Self>) {
        loop {
            let Some(pos) = self.waiting.iter().position(|m| self.deps_sequenced(m)) else {
                return;
            };
            let message = self.waiting.remove(pos);
            if self.is_known(&message.id) {
                continue;
            }
            let slot = self.next_slot;
            self.next_slot += 1;
            self.assigned.insert(message.id);
            self.sequenced.insert(message.id);
            ctx.broadcast(TobMsg::Accept { slot, message });
        }
    }

    /// Outputs what was appended to the delivered prefix since it was
    /// `before` entries long — decided slots are final, so every delta of
    /// this implementation is a pure extension (`keep` = the old length).
    fn output_appended(&mut self, before: usize, ctx: &mut Context<'_, Self>) {
        let appended = self.delivered.get(before..).unwrap_or_default();
        if appended.is_empty() {
            return;
        }
        let delta = DeliveryDelta {
            keep: before,
            suffix: appended.to_vec(),
        };
        self.record_delivered_tail();
        ctx.output(delta);
    }

    fn try_deliver(&mut self, ctx: &mut Context<'_, Self>) {
        let quorum = Self::quorum(ctx);
        let before = self.delivered.len();
        loop {
            let slot = self.next_deliver_slot;
            let Some(message) = self.proposals.get(&slot) else {
                break;
            };
            let acked = self.acks.entry(slot).or_default();
            if !quorum.is_subset(acked) {
                break;
            }
            let message = message.clone();
            self.pending_own.remove(&message.id);
            if self.delivered_ids.insert(message.id) {
                self.delivered.push(message);
            }
            self.next_deliver_slot += 1;
        }
        self.output_appended(before, ctx);
    }
}

impl fmt::Debug for ConsensusTob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConsensusTob")
            .field("me", &self.me)
            .field("delivered", &self.delivered.len())
            .field("accepted_slots", &self.proposals.len())
            .field("pending_own", &self.pending_own.len())
            .finish()
    }
}

impl Algorithm for ConsensusTob {
    type Msg = TobMsg;
    type Input = EtobBroadcast;
    type Output = DeliveryDelta;
    /// The pair (Ω, Σ): the eventual leader and a quorum.
    type Fd = (ProcessId, ProcessSet);

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        self.telemetry_tick(ctx.now().as_u64());
        ctx.set_timer(self.config.resend_period);
    }

    fn on_input(&mut self, input: EtobBroadcast, ctx: &mut Context<'_, Self>) {
        let message = input.message;
        self.telemetry_tick(ctx.now().as_u64());
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.submitted(message.id.origin.index() as u32, message.id.seq);
        }
        self.pending_own.insert(message.id, message.clone());
        let leader = Self::leader(ctx);
        if leader == self.me {
            self.assign(message, ctx);
        } else {
            ctx.send(leader, TobMsg::Forward(message));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: TobMsg, ctx: &mut Context<'_, Self>) {
        let _ = from;
        self.telemetry_tick(ctx.now().as_u64());
        match msg {
            TobMsg::Forward(message) => {
                if Self::leader(ctx) == self.me {
                    self.assign(message, ctx);
                }
            }
            TobMsg::Accept { slot, message } => {
                self.next_slot = self.next_slot.max(slot + 1);
                let id = message.id;
                if self.sequenced.insert(id) {
                    // First sighting of this message in a slot: it is now
                    // admitted to the total order (tentatively, pending the
                    // quorum), the strong baseline's analogue of Algorithm
                    // 5's graph admission + promotion.
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.admitted(id.origin.index() as u32, id.seq);
                        t.promoted(id.origin.index() as u32, id.seq);
                    }
                }
                self.proposals.insert(slot, message);
                ctx.broadcast(TobMsg::Ack { slot, id });
                if Self::leader(ctx) == self.me {
                    // a dependency sequenced by a previous leader may unblock
                    // parked messages
                    self.drain_waiting(ctx);
                }
                self.try_deliver(ctx);
            }
            TobMsg::Ack { slot, id: _ } => {
                self.acks.entry(slot).or_default().insert(from);
                self.try_deliver(ctx);
            }
            TobMsg::Heads {
                next_slot,
                delivered,
            } => {
                // Trust only the process our own Ω currently outputs.
                if Self::leader(ctx) == from {
                    self.next_slot = self.next_slot.max(next_slot);
                    if (delivered as usize) > self.delivered.len() {
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.sync_pull();
                        }
                        ctx.send(
                            from,
                            TobMsg::SyncRequest {
                                have: self.delivered.len() as u64,
                            },
                        );
                    }
                }
            }
            TobMsg::SyncRequest { have } => {
                // `have` comes off the wire: slice via .get() so an absurd
                // value yields no reply instead of a panic.
                if let Some(suffix) = self.delivered.get(have as usize..) {
                    if !suffix.is_empty() {
                        ctx.send(
                            from,
                            TobMsg::SyncReply {
                                have,
                                next_deliver_slot: self.next_deliver_slot,
                                suffix: suffix.to_vec(),
                            },
                        );
                    }
                }
            }
            TobMsg::SyncReply {
                have,
                next_deliver_slot,
                suffix,
            } => {
                // Delivered prefixes are prefixes of one total order, so the
                // leader's decided suffix can be appended directly (skipping
                // whatever arrived through the normal path meanwhile).
                if decode_sequence(&suffix).is_err() {
                    self.malformed += 1;
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.malformed();
                    }
                    return;
                }
                if Self::leader(ctx) == from {
                    let have = have as usize;
                    if have <= self.delivered.len() {
                        let before = self.delivered.len();
                        let skip = before - have;
                        for message in suffix.into_iter().skip(skip) {
                            self.pending_own.remove(&message.id);
                            self.sequenced.insert(message.id);
                            if self.delivered_ids.insert(message.id) {
                                self.delivered.push(message);
                            }
                        }
                        self.next_deliver_slot = self.next_deliver_slot.max(next_deliver_slot);
                        self.output_appended(before, ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        self.telemetry_tick(ctx.now().as_u64());
        let leader = Self::leader(ctx);
        // Re-drive messages this process originated that are still pending.
        let pending: Vec<AppMessage> = self.pending_own.values().cloned().collect();
        for message in pending {
            if self.delivered_ids.contains(&message.id) {
                continue;
            }
            if leader == self.me {
                self.assign(message, ctx);
            } else {
                ctx.send(leader, TobMsg::Forward(message));
            }
        }
        // A leader also re-broadcasts undelivered slots so late joiners and a
        // newly elected leader converge, and retries parked messages whose
        // dependencies may have been sequenced elsewhere in the meantime.
        if leader == self.me {
            for (slot, message) in self
                .proposals
                .range(self.next_deliver_slot..)
                .map(|(s, m)| (*s, m.clone()))
                .collect::<Vec<_>>()
            {
                ctx.broadcast(TobMsg::Accept { slot, message });
            }
            self.drain_waiting(ctx);
            if self.config.catch_up {
                ctx.broadcast(TobMsg::Heads {
                    next_slot: self.next_slot,
                    delivered: self.delivered.len() as u64,
                });
            }
        }
        self.try_deliver(ctx);
        ctx.set_timer(self.config.resend_period);
    }

    fn wire_size(msg: &TobMsg) -> u64 {
        ec_storage::codec::encoded_len(msg)
    }
}

// The strong baseline never folds history: the trait defaults (`stable_base`
// 0, empty frontier, nothing to drain, recovery unsupported) are exactly its
// behavior, and a durable replica of it restarts blank and catches up.
impl crate::types::Compactable for ConsensusTob {
    fn delivered(&self) -> &[AppMessage] {
        &self.delivered
    }
}

impl crate::types::Instrumented for ConsensusTob {
    fn attach_recorder(&mut self, recorder: ec_telemetry::Recorder) {
        self.telemetry = Some(Box::new(recorder));
    }

    fn recorder(&self) -> Option<&ec_telemetry::Recorder> {
        self.telemetry.as_deref()
    }

    fn recorder_mut(&mut self) -> Option<&mut ec_telemetry::Recorder> {
        self.telemetry.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EtobChecker;
    use crate::types::materialize;
    use crate::workload::BroadcastWorkload;
    use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
    use ec_sim::{
        FailureDetector, FailurePattern, NetworkModel, OutputHistory, PartitionSpec, Time,
        WorldBuilder,
    };

    fn run(
        n: usize,
        workload: &BroadcastWorkload,
        failures: FailurePattern,
        network: NetworkModel,
        fd: impl FailureDetector<Output = (ProcessId, ProcessSet)>,
        horizon: u64,
    ) -> OutputHistory<DeliveryDelta> {
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(3)
            .build_with(|p| ConsensusTob::new(p, ConsensusTobConfig::default()), fd);
        workload.submit_to(&mut world);
        world.run_until(horizon);
        world.output_history().clone()
    }

    /// Drives a leader automaton step directly (the wrapper-algorithm test
    /// pattern) and returns the actions the step produced.
    fn leader_step<F>(alg: &mut ConsensusTob, n: usize, f: F) -> ec_sim::Actions<ConsensusTob>
    where
        F: FnOnce(&mut ConsensusTob, &mut ec_sim::Context<'_, ConsensusTob>),
    {
        let fd = (alg.me, ProcessSet::all(n));
        let mut actions = ec_sim::Actions::<ConsensusTob>::new();
        {
            let mut ctx = ec_sim::Context::new(alg.me, Time::ZERO, n, fd, &mut actions);
            f(alg, &mut ctx);
        }
        actions
    }

    fn accepts(actions: &ec_sim::Actions<ConsensusTob>) -> Vec<(u64, MsgId)> {
        let mut out: Vec<(u64, MsgId)> = actions
            .sends
            .iter()
            .filter_map(|(_, msg)| match msg {
                TobMsg::Accept { slot, message } => Some((*slot, message.id)),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The causal gate: a message forwarded before its declared dependency
    /// is parked, and both are sequenced in dependency order once the
    /// dependency arrives — so session chains keep submission order under
    /// strong consistency even when forwards are reordered on the way to
    /// the leader.
    #[test]
    fn leader_parks_messages_until_their_dependencies_are_sequenced() {
        let n = 2;
        let mut leader = ConsensusTob::new(ProcessId::new(0), ConsensusTobConfig::default());
        let m1 = AppMessage::new(MsgId::new(ProcessId::new(1), 1), b"first".to_vec());
        let m2 = AppMessage::with_deps(
            MsgId::new(ProcessId::new(1), 2),
            b"second".to_vec(),
            vec![m1.id],
        );

        // m2 arrives first: no slot may be assigned yet
        let early = leader_step(&mut leader, n, |a, ctx| {
            a.on_message(ProcessId::new(1), TobMsg::Forward(m2.clone()), ctx)
        });
        assert!(accepts(&early).is_empty(), "dependency not sequenced yet");

        // once m1 arrives, both are sequenced, dependency first
        let late = leader_step(&mut leader, n, |a, ctx| {
            a.on_message(ProcessId::new(1), TobMsg::Forward(m1.clone()), ctx)
        });
        assert_eq!(accepts(&late), vec![(0, m1.id), (1, m2.id)]);

        // retransmission of either does not burn extra slots
        let resent = leader_step(&mut leader, n, |a, ctx| {
            a.on_message(ProcessId::new(1), TobMsg::Forward(m2.clone()), ctx)
        });
        assert!(accepts(&resent).is_empty());
        assert_eq!(leader.next_slot, 2);
    }

    #[test]
    fn stable_leader_majority_quorums_give_full_tob() {
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::majority(failures.clone()),
        );
        let workload = BroadcastWorkload::uniform(n, 10, 10, 9);
        let history = run(
            n,
            &workload,
            failures.clone(),
            NetworkModel::fixed_delay(2),
            fd,
            5_000,
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        // everything is delivered everywhere
        let sequences = materialize(&history);
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(sequences.last(p).map(|s| s.len()), Some(10));
        }
    }

    #[test]
    fn survives_minority_crashes_with_alive_set_quorums() {
        let n = 5;
        let failures = FailurePattern::no_failures(n)
            .with_crash(ProcessId::new(3), Time::new(80))
            .with_crash(ProcessId::new(4), Time::new(120));
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::alive_set(failures.clone()),
        );
        let workload = BroadcastWorkload::uniform(3, 9, 10, 30);
        let history = run(
            n,
            &workload,
            failures.clone(),
            NetworkModel::fixed_delay(2),
            fd,
            8_000,
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        assert_eq!(
            materialize(&history)
                .last(ProcessId::new(0))
                .map(|s| s.len()),
            Some(9),
            "all messages from correct processes must be delivered"
        );
    }

    #[test]
    fn minority_partition_blocks_delivery_until_heal() {
        // The leader p0 is partitioned with p1 (a minority). Messages
        // broadcast inside the minority cannot gather a majority quorum, so
        // nothing new is delivered there until the partition heals — the
        // availability price of Σ that eventual consistency does not pay.
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::majority(failures.clone()),
        );
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let heal = 800u64;
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(50),
            Time::new(heal),
            PartitionSpec::isolate(minority, n),
        );
        let mut workload = BroadcastWorkload::new();
        for k in 0..4 {
            workload.push(
                ProcessId::new(k % 2),
                100 + 20 * k as u64,
                format!("blocked-{k}").into_bytes(),
                vec![],
            );
        }
        let history = run(n, &workload, failures.clone(), network, fd, 5_000);

        // during the partition: no deliveries of the new messages anywhere
        let sequences = materialize(&history);
        for p in (0..n).map(ProcessId::new) {
            let during = sequences
                .value_at(p, Time::new(heal - 1))
                .map(|s| s.len())
                .unwrap_or(0);
            assert_eq!(during, 0, "{p} delivered during the minority partition");
        }
        // after the heal: everything is delivered and full TOB holds
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        assert_eq!(sequences.last(ProcessId::new(2)).map(|s| s.len()), Some(4));
    }

    #[test]
    fn leader_crash_is_recovered_by_the_next_leader() {
        let n = 5;
        let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(150));
        // Ω switches from p0 to p1 at the crash.
        let fd = PairFd::new(
            OmegaOracle::stabilizing_at(failures.clone(), Time::new(160))
                .with_pre_stabilization(ec_detectors::PreStabilization::Fixed(ProcessId::new(0))),
            SigmaOracle::alive_set(failures.clone()),
        );
        let workload = BroadcastWorkload::uniform(n, 8, 10, 40);
        let history = run(
            n,
            &workload,
            failures.clone(),
            NetworkModel::fixed_delay(2),
            fd,
            10_000,
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::new(200),
        );
        assert!(
            checker.check_eventual_delivery().is_empty(),
            "{:?}",
            checker.check_eventual_delivery()
        );
        assert!(
            checker.check_ordering().is_empty(),
            "{:?}",
            checker.check_ordering()
        );
    }

    #[test]
    fn delivery_takes_three_communication_steps_for_non_leader_broadcasts() {
        let n = 5;
        let delay = 10u64;
        let failures = FailurePattern::no_failures(n);
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::majority(failures.clone()),
        );
        let mut workload = BroadcastWorkload::new();
        workload.push(ProcessId::new(3), 100, b"slow".to_vec(), vec![]);
        let history = run(
            n,
            &workload,
            failures.clone(),
            NetworkModel::fixed_delay(delay),
            fd,
            3_000,
        );
        let id = workload.ids()[0];
        let sequences = materialize(&history);
        let mut first_delivery = None;
        for p in (0..n).map(ProcessId::new) {
            if let Some(t) = sequences.first_time_where(p, |seq| seq.iter().any(|m| m.id == id)) {
                first_delivery = Some(first_delivery.map_or(t, |x: Time| x.min(t)));
            }
        }
        let latency = first_delivery
            .expect("delivered")
            .saturating_since(Time::new(100));
        assert!(latency >= 3 * delay, "latency {latency}");
        assert!(
            latency < 4 * delay + delay,
            "latency {latency} should be about 3 hops"
        );
    }

    #[test]
    fn catch_up_lets_a_recovered_replica_learn_decided_slots() {
        // p3 is down while every op is accepted, quorum-acknowledged and
        // delivered by the others; after its rejoin nothing is retransmitted
        // through the normal path (the leader has delivered everything), so
        // only the catch-up protocol can close p3's gap.
        let n = 5;
        let failures = FailurePattern::no_failures(n).with_crash_recovery(
            ProcessId::new(3),
            Time::new(50),
            Time::new(1_000),
        );
        let mut workload = BroadcastWorkload::new();
        for k in 0..6u64 {
            workload.push(
                ProcessId::new(1),
                100 + 20 * k,
                format!("decided-{k}").into_bytes(),
                vec![],
            );
        }
        let run_with = |config: ConsensusTobConfig| {
            let fd = PairFd::new(
                OmegaOracle::stable_from_start(failures.clone()),
                SigmaOracle::majority(failures.clone()),
            );
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(3)
                .build_with(|p| ConsensusTob::new(p, config), fd);
            workload.submit_to(&mut world);
            world.run_until(4_000);
            materialize(world.output_history())
        };

        let without = run_with(ConsensusTobConfig::default());
        assert_eq!(
            without.last(ProcessId::new(3)).map(|s| s.len()),
            None,
            "without catch-up the rejoined replica must be stuck (motivates the protocol)"
        );

        let with = run_with(ConsensusTobConfig::default().with_catch_up());
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(
                with.last(p).map(|s| s.len()),
                Some(6),
                "{p} must hold the full decided prefix"
            );
        }
        let reference: Vec<MsgId> = with
            .last(ProcessId::new(0))
            .map(|s| s.iter().map(|m| m.id).collect())
            .unwrap();
        let synced: Vec<MsgId> = with
            .last(ProcessId::new(3))
            .map(|s| s.iter().map(|m| m.id).collect())
            .unwrap();
        assert_eq!(reference, synced, "state transfer must preserve the order");
    }

    #[test]
    fn accessors_and_debug() {
        let alg = ConsensusTob::new(ProcessId::new(1), ConsensusTobConfig::default());
        assert!(alg.delivered().is_empty());
        assert_eq!(alg.accepted_slots(), 0);
        assert_eq!(alg.pending(), 0);
        assert!(format!("{alg:?}").contains("ConsensusTob"));
    }
}
