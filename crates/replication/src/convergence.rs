//! Convergence metrics over replica output histories.
//!
//! Eventual consistency promises that replicas *eventually* agree; these
//! metrics quantify the "eventually": when did all correct replicas last
//! reach identical snapshots, how many distinct divergence episodes occurred,
//! and how much progress each replica had made at any point. Experiment E2
//! reports them side by side for the Ω-only replicated service and the
//! Ω + Σ baseline.

use ec_sim::{OutputHistory, ProcessSet, Time};

use crate::replica::ReplicaOutput;

/// A maximal period during which at least two correct replicas exposed
/// different snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// First time at which the snapshots differed.
    pub from: Time,
    /// First subsequent time at which all correct replicas agreed again
    /// (`None` if they never re-converged within the recorded history).
    pub until: Option<Time>,
}

/// Summary of a replicated run. Replicas are compared by the state digests
/// their outputs carry, so a digest collision (≈ 2⁻⁶⁴ per comparison) can at
/// worst hide a transient divergence episode here; every final-agreement
/// check ([`crate::ShardReport::snapshots_agree`], the conformance and chaos
/// suites) compares snapshot bytes read from the replicas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// The time from which all correct replicas exposed identical snapshots
    /// until the end of the history (`None` if they never converged).
    pub converged_at: Option<Time>,
    /// Divergence episodes, in order.
    pub divergences: Vec<Divergence>,
}

impl ConvergenceReport {
    /// Builds the report from a replica output history and the set of
    /// correct processes.
    pub fn from_history(history: &OutputHistory<ReplicaOutput>, correct: &ProcessSet) -> Self {
        let mut times = history.output_times();
        times.dedup();
        let mut divergences: Vec<Divergence> = Vec::new();
        let mut open: Option<Time> = None;
        let mut last_state = true;
        for &t in &times {
            let agree = Self::agree_at(history, correct, t);
            if !agree && open.is_none() {
                open = Some(t);
            }
            if agree {
                if let Some(from) = open.take() {
                    divergences.push(Divergence {
                        from,
                        until: Some(t),
                    });
                }
            }
            last_state = agree;
        }
        if let Some(from) = open {
            divergences.push(Divergence { from, until: None });
        }
        // converged_at: the last time agreement was (re-)established, if the
        // history ends in agreement.
        let converged_at = if last_state {
            match divergences.last() {
                Some(Divergence { until: Some(t), .. }) => Some(*t),
                Some(Divergence { until: None, .. }) => None,
                None => times.first().copied().or(Some(Time::ZERO)),
            }
        } else {
            None
        };
        ConvergenceReport {
            converged_at,
            divergences,
        }
    }

    fn agree_at(history: &OutputHistory<ReplicaOutput>, correct: &ProcessSet, t: Time) -> bool {
        let mut digests = correct
            .iter()
            .map(|p| history.value_at(p, t).map(|o| o.digest));
        let Some(first) = digests.next() else {
            return true;
        };
        digests.all(|d| d == first)
    }

    /// Number of divergence episodes.
    pub fn divergence_count(&self) -> usize {
        self.divergences.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_sim::ProcessId;

    fn out(applied: usize, tag: u8) -> ReplicaOutput {
        ReplicaOutput {
            applied,
            digest: crate::state_machine::snapshot_digest(&[tag]),
        }
    }

    fn correct(n: usize) -> ProcessSet {
        ProcessSet::all(n)
    }

    #[test]
    fn identical_histories_are_converged_with_no_divergence() {
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), out(1, 1));
        h.record(ProcessId::new(1), Time::new(5), out(1, 1));
        let report = ConvergenceReport::from_history(&h, &correct(2));
        assert_eq!(report.converged_at, Some(Time::new(5)));
        assert_eq!(report.divergence_count(), 0);
    }

    #[test]
    fn temporary_divergence_is_reported_and_closed() {
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), out(1, 1));
        // p1 lags: at t=5 it has no output yet → divergence
        h.record(ProcessId::new(1), Time::new(20), out(1, 1));
        let report = ConvergenceReport::from_history(&h, &correct(2));
        assert_eq!(report.divergence_count(), 1);
        assert_eq!(report.divergences[0].from, Time::new(5));
        assert_eq!(report.divergences[0].until, Some(Time::new(20)));
        assert_eq!(report.converged_at, Some(Time::new(20)));
    }

    #[test]
    fn unclosed_divergence_means_not_converged() {
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), out(1, 1));
        h.record(ProcessId::new(1), Time::new(10), out(1, 2));
        let report = ConvergenceReport::from_history(&h, &correct(2));
        assert_eq!(report.converged_at, None);
        assert_eq!(report.divergence_count(), 1);
        assert_eq!(report.divergences[0].until, None);
    }

    #[test]
    fn a_lagging_and_a_diverging_replica_give_two_closed_episodes() {
        // (replica, time, applied, state tag): p1 lags, p2 diverges and
        // comes back
        let timeline = [
            (0, 5, 1, 1u8),
            (2, 6, 1, 7),
            (1, 9, 1, 1),
            (2, 12, 1, 1),
            (0, 20, 2, 2),
            (1, 20, 2, 2),
            (2, 21, 2, 2),
        ];
        let mut h = OutputHistory::new(3);
        for (p, t, applied, tag) in timeline {
            h.record(ProcessId::new(p), Time::new(t), out(applied, tag));
        }
        let report = ConvergenceReport::from_history(&h, &correct(3));
        assert_eq!(report.divergence_count(), 2);
        assert_eq!(report.converged_at, Some(Time::new(21)));
    }

    #[test]
    fn only_correct_processes_are_compared() {
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(5), out(1, 1));
        h.record(ProcessId::new(1), Time::new(10), out(9, 9));
        let only_p0: ProcessSet = [0].into_iter().collect();
        let report = ConvergenceReport::from_history(&h, &only_p0);
        assert_eq!(report.converged_at, Some(Time::new(5)));
        assert_eq!(report.divergence_count(), 0);
    }

    #[test]
    fn empty_history_is_trivially_converged() {
        let h: OutputHistory<ReplicaOutput> = OutputHistory::new(3);
        let report = ConvergenceReport::from_history(&h, &correct(3));
        assert_eq!(report.converged_at, Some(Time::ZERO));
    }
}
