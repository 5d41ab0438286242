//! Checkers for the TOB / ETOB properties of Section 3.

use std::collections::{BTreeMap, BTreeSet};

use ec_sim::{OutputHistory, ProcessId, ProcessSet, Time};

use crate::types::{DeliveryDelta, MsgId};

/// A record of one `broadcastETOB(m, C(m))` invocation, kept by the workload
/// so the checker knows which messages exist, who broadcast them, when, and
/// with which declared causal dependencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastRecord {
    /// The broadcast message identifier.
    pub id: MsgId,
    /// The broadcasting process.
    pub by: ProcessId,
    /// The invocation time.
    pub at: Time,
    /// Declared causal predecessors `C(m)`.
    pub deps: Vec<MsgId>,
}

/// A violation of one of the TOB / ETOB properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TobViolation {
    /// A correct process broadcast a message but never stably delivered it.
    Validity {
        /// The lost message.
        message: MsgId,
        /// The broadcaster that never delivered it.
        broadcaster: ProcessId,
    },
    /// A delivered message was never broadcast (or was delivered before its
    /// broadcast).
    NoCreation {
        /// The offending message.
        message: MsgId,
        /// The delivering process.
        process: ProcessId,
        /// The delivery-sequence time at which it appeared.
        at: Time,
    },
    /// A message appears more than once in a delivered sequence.
    NoDuplication {
        /// The duplicated message.
        message: MsgId,
        /// The process whose sequence contains the duplicate.
        process: ProcessId,
        /// The time of the offending sequence.
        at: Time,
    },
    /// A message stably delivered by one correct process is missing from the
    /// final sequence of another correct process.
    Agreement {
        /// The message in question.
        message: MsgId,
        /// A correct process that stably delivered it.
        delivered_by: ProcessId,
        /// A correct process whose final sequence lacks it.
        missing_at: ProcessId,
    },
    /// After the stabilization time, a process's delivered sequence was not a
    /// prefix of a later one (ETOB-Stability / TOB-Stability).
    Stability {
        /// The offending process.
        process: ProcessId,
        /// The earlier snapshot time.
        earlier: Time,
        /// The later snapshot time.
        later: Time,
    },
    /// After the stabilization time, two correct processes order a pair of
    /// messages differently (ETOB-Total-order / TOB-Total-order).
    TotalOrder {
        /// The message one process delivers first.
        first: MsgId,
        /// The message it delivers second.
        second: MsgId,
        /// The process with `first` before `second`.
        process_a: ProcessId,
        /// The process with the opposite order.
        process_b: ProcessId,
        /// The snapshot time at which the disagreement is visible.
        at: Time,
    },
    /// A message appears before one of its (transitive) causal predecessors
    /// (TOB-Causal-Order).
    CausalOrder {
        /// The causal predecessor.
        dependency: MsgId,
        /// The dependent message appearing too early.
        message: MsgId,
        /// The process whose sequence violates causality.
        process: ProcessId,
        /// The time of the offending sequence.
        at: Time,
    },
}

impl std::fmt::Display for TobViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TobViolation::Validity {
                message,
                broadcaster,
            } => write!(
                f,
                "validity: correct process {broadcaster} broadcast {message} but never stably delivered it"
            ),
            TobViolation::NoCreation {
                message,
                process,
                at,
            } => write!(
                f,
                "no-creation: {process} delivered {message} at {at} but it was never broadcast before"
            ),
            TobViolation::NoDuplication {
                message,
                process,
                at,
            } => write!(
                f,
                "no-duplication: {message} appears twice in the sequence of {process} at {at}"
            ),
            TobViolation::Agreement {
                message,
                delivered_by,
                missing_at,
            } => write!(
                f,
                "agreement: {message} stably delivered by {delivered_by} but missing at {missing_at}"
            ),
            TobViolation::Stability {
                process,
                earlier,
                later,
            } => write!(
                f,
                "stability: sequence of {process} at {earlier} is not a prefix of its sequence at {later}"
            ),
            TobViolation::TotalOrder {
                first,
                second,
                process_a,
                process_b,
                at,
            } => write!(
                f,
                "total-order: at {at}, {process_a} orders {first} before {second} but {process_b} orders them oppositely"
            ),
            TobViolation::CausalOrder {
                dependency,
                message,
                process,
                at,
            } => write!(
                f,
                "causal-order: {message} appears before its causal predecessor {dependency} at {process} ({at})"
            ),
        }
    }
}

impl std::error::Error for TobViolation {}

/// Checker for the TOB / ETOB properties over the delivered-sequence history
/// `d_i(t)` of a run.
///
/// With `tau = Time::ZERO` the checker verifies full (strong) TOB: stability
/// and total order must hold over the whole run — this is how experiment E3
/// verifies property P2 of Algorithm 5 (a stable leader from the start yields
/// strong consistency). With a later `tau` it verifies the ETOB relaxations.
#[derive(Clone, Debug)]
pub struct EtobChecker {
    history: OutputHistory<Vec<MsgId>>,
    broadcasts: Vec<BroadcastRecord>,
    correct: ProcessSet,
    tau: Time,
}

impl EtobChecker {
    /// Creates a checker from an already-projected history of message-id
    /// sequences.
    pub fn new(
        history: OutputHistory<Vec<MsgId>>,
        broadcasts: Vec<BroadcastRecord>,
        correct: ProcessSet,
        tau: Time,
    ) -> Self {
        EtobChecker {
            history,
            broadcasts,
            correct,
            tau,
        }
    }

    /// Creates a checker from the raw [`DeliveryDelta`] history produced by
    /// an (E)TOB algorithm's output trace: each process's deltas are folded
    /// back into the identifier sequence `d_i(t)` they describe, output by
    /// output, which is what the properties quantify over.
    pub fn from_delivered(
        history: &OutputHistory<DeliveryDelta>,
        broadcasts: Vec<BroadcastRecord>,
        correct: ProcessSet,
        tau: Time,
    ) -> Self {
        let projected = history.scan(Vec::new(), |ids: &mut Vec<MsgId>, delta| {
            ids.truncate(delta.keep);
            ids.extend(delta.suffix.iter().map(|m| m.id));
        });
        Self::new(projected, broadcasts, correct, tau)
    }

    /// The stabilization time this checker uses for the ordering properties.
    pub fn tau(&self) -> Time {
        self.tau
    }

    /// Returns a copy of the checker with a different stabilization time.
    pub fn with_tau(&self, tau: Time) -> Self {
        let mut c = self.clone();
        c.tau = tau;
        c
    }

    fn broadcast_of(&self, id: MsgId) -> Option<&BroadcastRecord> {
        self.broadcasts.iter().find(|b| b.id == id)
    }

    fn final_sequence(&self, p: ProcessId) -> &[MsgId] {
        self.history.last(p).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// TOB-Validity: every message broadcast by a correct process appears in
    /// that process's final delivered sequence.
    pub fn check_validity(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        for b in &self.broadcasts {
            if self.correct.contains(b.by) && !self.final_sequence(b.by).contains(&b.id) {
                v.push(TobViolation::Validity {
                    message: b.id,
                    broadcaster: b.by,
                });
            }
        }
        v
    }

    /// TOB-No-creation: every delivered message was broadcast, no later than
    /// its first appearance.
    pub fn check_no_creation(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        let mut reported: BTreeSet<(ProcessId, MsgId)> = BTreeSet::new();
        for snap in self.history.all() {
            for id in snap.value {
                let ok = self
                    .broadcast_of(*id)
                    .map(|b| b.at <= snap.time)
                    .unwrap_or(false);
                if !ok && reported.insert((snap.process, *id)) {
                    v.push(TobViolation::NoCreation {
                        message: *id,
                        process: snap.process,
                        at: snap.time,
                    });
                }
            }
        }
        v
    }

    /// TOB-No-duplication: no message appears twice in any delivered sequence.
    pub fn check_no_duplication(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        for snap in self.history.all() {
            let mut seen = BTreeSet::new();
            for id in snap.value {
                if !seen.insert(*id) {
                    v.push(TobViolation::NoDuplication {
                        message: *id,
                        process: snap.process,
                        at: snap.time,
                    });
                }
            }
        }
        v
    }

    /// TOB-Agreement: a message stably delivered by one correct process is
    /// eventually stably delivered by every correct process (finite-prefix
    /// reading: it appears in the final sequence of every correct process).
    pub fn check_agreement(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        for p in self.correct.iter() {
            for id in self.final_sequence(p) {
                for q in self.correct.iter() {
                    if q != p && !self.final_sequence(q).contains(id) {
                        v.push(TobViolation::Agreement {
                            message: *id,
                            delivered_by: p,
                            missing_at: q,
                        });
                    }
                }
            }
        }
        v
    }

    /// ETOB-Stability from `tau`: for every correct process, sequences output
    /// at times `tau ≤ t1 ≤ t2` are prefix-ordered.
    pub fn check_stability(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        for p in self.correct.iter() {
            // Within one process outputs are time-ordered, so it suffices to
            // check consecutive outputs at or after tau — prefix order is
            // transitive.
            let outs: Vec<(Time, &Vec<MsgId>)> = self
                .history
                .outputs(p)
                .iter()
                .filter(|(t, _)| *t >= self.tau)
                .map(|(t, s)| (*t, s))
                .collect();
            for w in outs.windows(2) {
                let (t1, s1) = w[0];
                let (t2, s2) = w[1];
                if !is_prefix(s1, s2) {
                    v.push(TobViolation::Stability {
                        process: p,
                        earlier: t1,
                        later: t2,
                    });
                }
            }
        }
        v
    }

    /// ETOB-Total-order from `tau`: at every time `t ≥ tau`, any two correct
    /// processes order the messages common to their sequences identically.
    pub fn check_total_order(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        let mut times: Vec<Time> = self
            .history
            .output_times()
            .into_iter()
            .filter(|t| *t >= self.tau)
            .collect();
        if let Some(end) = self.history.output_times().last().copied() {
            if times.last().is_none_or(|t| *t < end) {
                times.push(end);
            }
        }
        let correct: Vec<ProcessId> = self.correct.iter().collect();
        for (ai, &a) in correct.iter().enumerate() {
            for &b in &correct[ai + 1..] {
                for &t in &times {
                    let (Some(sa), Some(sb)) =
                        (self.history.value_at(a, t), self.history.value_at(b, t))
                    else {
                        continue;
                    };
                    if let Some((m1, m2)) = order_disagreement(sa, sb) {
                        v.push(TobViolation::TotalOrder {
                            first: m1,
                            second: m2,
                            process_a: a,
                            process_b: b,
                            at: t,
                        });
                    }
                }
            }
        }
        v
    }

    /// TOB-Causal-Order: in every delivered sequence (at any time, of any
    /// correct process), every message appears after its transitive causal
    /// predecessors that are present in the same sequence.
    pub fn check_causal_order(&self) -> Vec<TobViolation> {
        let mut v = Vec::new();
        let closure = self.causal_closure();
        let mut reported: BTreeSet<(ProcessId, MsgId, MsgId)> = BTreeSet::new();
        for snap in self.history.all() {
            if !self.correct.contains(snap.process) {
                continue;
            }
            let pos: BTreeMap<MsgId, usize> = snap
                .value
                .iter()
                .enumerate()
                .map(|(i, id)| (*id, i))
                .collect();
            for id in snap.value {
                let Some(deps) = closure.get(id) else {
                    continue;
                };
                for dep in deps {
                    if let (Some(&pd), Some(&pm)) = (pos.get(dep), pos.get(id)) {
                        if pd >= pm && reported.insert((snap.process, *dep, *id)) {
                            v.push(TobViolation::CausalOrder {
                                dependency: *dep,
                                message: *id,
                                process: snap.process,
                                at: snap.time,
                            });
                        }
                    }
                }
            }
        }
        v
    }

    /// The four properties that ETOB shares with TOB unconditionally
    /// (Validity, No-creation, No-duplication, Agreement).
    pub fn check_eventual_delivery(&self) -> Vec<TobViolation> {
        let mut v = self.check_validity();
        v.extend(self.check_no_creation());
        v.extend(self.check_no_duplication());
        v.extend(self.check_agreement());
        v
    }

    /// The ordering properties (Stability and Total-order) from `tau`.
    pub fn check_ordering(&self) -> Vec<TobViolation> {
        let mut v = self.check_stability();
        v.extend(self.check_total_order());
        v
    }

    /// Checks the full ETOB specification (without the optional causal-order
    /// property).
    ///
    /// # Errors
    ///
    /// Returns the list of violations if any property fails.
    pub fn check_all(&self) -> Result<(), Vec<TobViolation>> {
        let mut v = self.check_eventual_delivery();
        v.extend(self.check_ordering());
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Checks the full ETOB specification plus TOB-Causal-Order.
    ///
    /// # Errors
    ///
    /// Returns the list of violations if any property fails.
    pub fn check_all_with_causal(&self) -> Result<(), Vec<TobViolation>> {
        let mut v = self.check_eventual_delivery();
        v.extend(self.check_ordering());
        v.extend(self.check_causal_order());
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// The smallest output time `τ` from which the ordering properties hold
    /// (the measured convergence point used by experiment E8), or `None` if
    /// they do not even hold from the last output onwards.
    pub fn find_stabilization_time(&self) -> Option<Time> {
        let mut candidates = vec![Time::ZERO];
        candidates.extend(self.history.output_times());
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .find(|t| self.with_tau(*t).check_ordering().is_empty())
    }

    fn causal_closure(&self) -> BTreeMap<MsgId, BTreeSet<MsgId>> {
        let direct: BTreeMap<MsgId, Vec<MsgId>> = self
            .broadcasts
            .iter()
            .map(|b| (b.id, b.deps.clone()))
            .collect();
        let mut closure: BTreeMap<MsgId, BTreeSet<MsgId>> = BTreeMap::new();
        fn visit(
            id: MsgId,
            direct: &BTreeMap<MsgId, Vec<MsgId>>,
            closure: &mut BTreeMap<MsgId, BTreeSet<MsgId>>,
            in_progress: &mut BTreeSet<MsgId>,
        ) -> BTreeSet<MsgId> {
            if let Some(done) = closure.get(&id) {
                return done.clone();
            }
            if !in_progress.insert(id) {
                // cycle in declared dependencies — treat conservatively
                return BTreeSet::new();
            }
            let mut acc = BTreeSet::new();
            if let Some(deps) = direct.get(&id) {
                for d in deps {
                    acc.insert(*d);
                    acc.extend(visit(*d, direct, closure, in_progress));
                }
            }
            in_progress.remove(&id);
            closure.insert(id, acc.clone());
            acc
        }
        let ids: Vec<MsgId> = direct.keys().copied().collect();
        for id in ids {
            let mut in_progress = BTreeSet::new();
            visit(id, &direct, &mut closure, &mut in_progress);
        }
        closure
    }
}

fn is_prefix(shorter: &[MsgId], longer: &[MsgId]) -> bool {
    shorter.len() <= longer.len() && shorter.iter().zip(longer.iter()).all(|(a, b)| a == b)
}

/// Finds a pair of messages ordered differently by the two sequences, if any.
fn order_disagreement(a: &[MsgId], b: &[MsgId]) -> Option<(MsgId, MsgId)> {
    let pos_b: BTreeMap<MsgId, usize> = b.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let common: Vec<(usize, MsgId)> = a
        .iter()
        .enumerate()
        .filter(|(_, id)| pos_b.contains_key(id))
        .map(|(i, id)| (i, *id))
        .collect();
    for (i, (_, m1)) in common.iter().enumerate() {
        for (_, m2) in &common[i + 1..] {
            // m1 before m2 in a; check the same holds in b
            if pos_b[m1] > pos_b[m2] {
                return Some((*m1, *m2));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: usize, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    fn correct(n: usize) -> ProcessSet {
        ProcessSet::all(n)
    }

    fn broadcast(p: usize, s: u64, at: u64) -> BroadcastRecord {
        BroadcastRecord {
            id: id(p, s),
            by: ProcessId::new(p),
            at: Time::new(at),
            deps: vec![],
        }
    }

    /// A well-behaved history: both processes converge on [a, b].
    fn good_history() -> (OutputHistory<Vec<MsgId>>, Vec<BroadcastRecord>) {
        let a = id(0, 1);
        let b = id(1, 1);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![a]);
        h.record(ProcessId::new(0), Time::new(10), vec![a, b]);
        h.record(ProcessId::new(1), Time::new(6), vec![a]);
        h.record(ProcessId::new(1), Time::new(12), vec![a, b]);
        (h, vec![broadcast(0, 1, 1), broadcast(1, 1, 2)])
    }

    #[test]
    fn well_behaved_history_passes_everything() {
        let (h, b) = good_history();
        let checker = EtobChecker::new(h, b, correct(2), Time::ZERO);
        assert!(checker.check_all_with_causal().is_ok());
        assert_eq!(checker.find_stabilization_time(), Some(Time::ZERO));
    }

    #[test]
    fn delivery_deltas_are_folded_back_into_the_sequences_they_describe() {
        use crate::types::AppMessage;
        let (a, b, c) = (id(0, 1), id(1, 1), id(1, 2));
        let delta = |keep, ids: &[MsgId]| DeliveryDelta {
            keep,
            suffix: ids.iter().map(|id| AppMessage::new(*id, vec![])).collect(),
        };
        // p0: [b] → rewritten to [a, b] → extended to [a, b, c]
        let mut deltas = OutputHistory::new(2);
        deltas.record(ProcessId::new(0), Time::new(5), delta(0, &[b]));
        deltas.record(ProcessId::new(0), Time::new(10), delta(0, &[a, b]));
        deltas.record(ProcessId::new(0), Time::new(15), delta(2, &[c]));
        deltas.record(ProcessId::new(1), Time::new(12), delta(0, &[a, b, c]));
        let records = vec![broadcast(0, 1, 1), broadcast(1, 1, 1), broadcast(1, 2, 2)];
        let checker = EtobChecker::from_delivered(&deltas, records, correct(2), Time::ZERO);
        assert_eq!(checker.final_sequence(ProcessId::new(0)), &[a, b, c]);
        // the rewrite at t=10 is a stability violation of strong TOB …
        assert_eq!(checker.check_stability().len(), 1);
        // … and the extension at t=15 is not: ETOB holds from t=10
        assert_eq!(checker.find_stabilization_time(), Some(Time::new(10)));
        assert!(checker.with_tau(Time::new(10)).check_all().is_ok());
    }

    #[test]
    fn validity_violation_is_detected() {
        let (h, mut b) = good_history();
        // a third message broadcast by correct p0 that never appears
        b.push(broadcast(0, 2, 3));
        let checker = EtobChecker::new(h, b, correct(2), Time::ZERO);
        let v = checker.check_validity();
        assert!(
            matches!(v.as_slice(), [TobViolation::Validity { message, .. }] if *message == id(0, 2))
        );
    }

    #[test]
    fn no_creation_violation_is_detected() {
        let a = id(0, 1);
        let ghost = id(3, 9);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![a, ghost]);
        let checker = EtobChecker::new(h, vec![broadcast(0, 1, 1)], correct(2), Time::ZERO);
        let v = checker.check_no_creation();
        assert!(
            matches!(v.as_slice(), [TobViolation::NoCreation { message, .. }] if *message == ghost)
        );
    }

    #[test]
    fn delivery_before_broadcast_counts_as_creation() {
        let a = id(0, 1);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(1), Time::new(5), vec![a]);
        h.record(ProcessId::new(0), Time::new(20), vec![a]);
        // broadcast happened at t=10, after p1 delivered it
        let checker = EtobChecker::new(h, vec![broadcast(0, 1, 10)], correct(2), Time::ZERO);
        assert_eq!(checker.check_no_creation().len(), 1);
    }

    #[test]
    fn duplication_violation_is_detected() {
        let a = id(0, 1);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![a, a]);
        let checker = EtobChecker::new(h, vec![broadcast(0, 1, 1)], correct(2), Time::ZERO);
        assert_eq!(checker.check_no_duplication().len(), 1);
    }

    #[test]
    fn agreement_violation_is_detected() {
        let a = id(0, 1);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![a]);
        h.record(ProcessId::new(1), Time::new(5), vec![]);
        let checker = EtobChecker::new(h, vec![broadcast(0, 1, 1)], correct(2), Time::ZERO);
        let v = checker.check_agreement();
        assert!(
            matches!(v.as_slice(), [TobViolation::Agreement { missing_at, .. }] if *missing_at == ProcessId::new(1))
        );
    }

    #[test]
    fn agreement_ignores_faulty_processes() {
        let a = id(0, 1);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![a]);
        h.record(ProcessId::new(1), Time::new(5), vec![]);
        let only_p0: ProcessSet = [0].into_iter().collect();
        let checker = EtobChecker::new(h, vec![broadcast(0, 1, 1)], only_p0, Time::ZERO);
        assert!(checker.check_agreement().is_empty());
    }

    #[test]
    fn stability_violation_before_tau_is_tolerated_after_tau_not() {
        let a = id(0, 1);
        let b = id(1, 1);
        let mut h = OutputHistory::new(2);
        // p0 first delivers [b], then replaces it by [a, b]: not prefix-ordered
        h.record(ProcessId::new(0), Time::new(5), vec![b]);
        h.record(ProcessId::new(0), Time::new(10), vec![a, b]);
        h.record(ProcessId::new(1), Time::new(10), vec![a, b]);
        let records = vec![broadcast(0, 1, 1), broadcast(1, 1, 1)];
        let strict = EtobChecker::new(h.clone(), records.clone(), correct(2), Time::ZERO);
        assert_eq!(strict.check_stability().len(), 1);
        // with tau after the glitch, the history is acceptable (ETOB)
        let relaxed = strict.with_tau(Time::new(6));
        assert!(relaxed.check_stability().is_empty());
        assert_eq!(strict.find_stabilization_time(), Some(Time::new(10)));
    }

    #[test]
    fn total_order_violation_is_detected() {
        let a = id(0, 1);
        let b = id(1, 1);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![a, b]);
        h.record(ProcessId::new(1), Time::new(5), vec![b, a]);
        let records = vec![broadcast(0, 1, 1), broadcast(1, 1, 1)];
        let checker = EtobChecker::new(h, records, correct(2), Time::ZERO);
        let v = checker.check_total_order();
        assert!(!v.is_empty());
        assert!(matches!(v[0], TobViolation::TotalOrder { .. }));
        assert!(!format!("{}", v[0]).is_empty());
    }

    #[test]
    fn causal_order_violation_is_detected_transitively() {
        let a = id(0, 1);
        let b = id(0, 2);
        let c = id(0, 3);
        let mut h = OutputHistory::new(2);
        // c depends on b depends on a; sequence has c before a
        h.record(ProcessId::new(0), Time::new(5), vec![c, a, b]);
        let records = vec![
            BroadcastRecord {
                id: a,
                by: ProcessId::new(0),
                at: Time::new(1),
                deps: vec![],
            },
            BroadcastRecord {
                id: b,
                by: ProcessId::new(0),
                at: Time::new(2),
                deps: vec![a],
            },
            BroadcastRecord {
                id: c,
                by: ProcessId::new(0),
                at: Time::new(3),
                deps: vec![b],
            },
        ];
        let checker = EtobChecker::new(h, records, correct(2), Time::ZERO);
        let v = checker.check_causal_order();
        // c before a (transitive) and c before b (direct) are both violations
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn check_all_reports_accumulated_violations() {
        let a = id(0, 1);
        let ghost = id(3, 3);
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), vec![ghost, ghost]);
        h.record(ProcessId::new(1), Time::new(5), vec![a]);
        let checker = EtobChecker::new(h, vec![broadcast(0, 1, 1)], correct(2), Time::ZERO);
        let err = checker.check_all().unwrap_err();
        assert!(err.len() >= 3, "expected several violations, got {err:?}");
    }

    #[test]
    fn find_stabilization_time_returns_none_when_never_stable() {
        let a = id(0, 1);
        let b = id(1, 1);
        let mut h = OutputHistory::new(2);
        // final sequences disagree on order → no tau can work
        h.record(ProcessId::new(0), Time::new(5), vec![a, b]);
        h.record(ProcessId::new(1), Time::new(5), vec![b, a]);
        let records = vec![broadcast(0, 1, 1), broadcast(1, 1, 1)];
        let checker = EtobChecker::new(h, records, correct(2), Time::ZERO);
        assert_eq!(checker.find_stabilization_time(), None);
    }

    #[test]
    fn prefix_helper() {
        let a = id(0, 1);
        let b = id(0, 2);
        assert!(is_prefix(&[], &[a]));
        assert!(is_prefix(&[a], &[a, b]));
        assert!(!is_prefix(&[b], &[a, b]));
        assert!(!is_prefix(&[a, b], &[a]));
    }
}
