//! Output histories `H_O`: what each process output, and when.

use crate::{ProcessId, Time};

/// A single timed output of one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputSnapshot<O> {
    /// The producing process.
    pub process: ProcessId,
    /// The time of the output.
    pub time: Time,
    /// The output value.
    pub value: O,
}

/// The output history of a run: for every process, the timed sequence of
/// values it output. For an algorithm whose outputs are the successive values
/// of one variable, the history gives direct access to that variable at every
/// time, which is what the TOB/ETOB property definitions quantify over
/// (`d_i(t)` for every `i` and `t`). An algorithm that outputs *changes* to
/// the variable instead (as the ETOB implementations in `ec-core` do, to keep
/// each output O(change)) gets the same view back from
/// [`OutputHistory::scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputHistory<O> {
    per_process: Vec<Vec<(Time, O)>>,
}

impl<O: Clone> OutputHistory<O> {
    /// Creates an empty history for `n` processes.
    pub fn new(n: usize) -> Self {
        OutputHistory {
            per_process: vec![Vec::new(); n],
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.per_process.len()
    }

    /// Records that `p` output `value` at time `t`. A process's outputs
    /// must be recorded in non-decreasing time order ([`Self::value_at`]
    /// searches on it).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn record(&mut self, p: ProcessId, t: Time, value: O) {
        let outputs = &mut self.per_process[p.index()];
        debug_assert!(
            outputs.last().is_none_or(|(last, _)| *last <= t),
            "the outputs of a process must be recorded in non-decreasing time order"
        );
        outputs.push((t, value));
    }

    /// All timed outputs of process `p`, in order.
    pub fn outputs(&self, p: ProcessId) -> &[(Time, O)] {
        &self.per_process[p.index()]
    }

    /// The last value output by `p` at or before time `t` — i.e. the value of
    /// `p`'s output variable at time `t` (outputs are sticky until replaced).
    pub fn value_at(&self, p: ProcessId, t: Time) -> Option<&O> {
        let outputs = &self.per_process[p.index()];
        let until = outputs.partition_point(|(when, _)| *when <= t);
        until.checked_sub(1).map(|newest| &outputs[newest].1)
    }

    /// The final value output by `p`, if any.
    pub fn last(&self, p: ProcessId) -> Option<&O> {
        self.per_process[p.index()].last().map(|(_, v)| v)
    }

    /// The time of the first output of `p` satisfying `pred`, if any.
    pub fn first_time_where<F: Fn(&O) -> bool>(&self, p: ProcessId, pred: F) -> Option<Time> {
        self.per_process[p.index()]
            .iter()
            .find(|(_, v)| pred(v))
            .map(|(t, _)| *t)
    }

    /// Iterates over every output of every process, in per-process order.
    pub fn all(&self) -> impl Iterator<Item = OutputSnapshot<&O>> + '_ {
        self.per_process.iter().enumerate().flat_map(|(i, outs)| {
            outs.iter().map(move |(t, v)| OutputSnapshot {
                process: ProcessId::new(i),
                time: *t,
                value: v,
            })
        })
    }

    /// All distinct times at which any process produced an output, sorted.
    pub fn output_times(&self) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .per_process
            .iter()
            .flat_map(|outs| outs.iter().map(|(t, _)| *t))
            .collect();
        times.sort_unstable();
        times.dedup();
        times
    }

    /// Maps every output value, preserving structure. Useful for projecting a
    /// composite output down to the component a checker cares about.
    pub fn map<P, F: Fn(&O) -> P>(&self, f: F) -> OutputHistory<P>
    where
        P: Clone,
    {
        OutputHistory {
            per_process: self
                .per_process
                .iter()
                .map(|outs| outs.iter().map(|(t, v)| (*t, f(v))).collect())
                .collect(),
        }
    }

    /// Folds every process's outputs, in order, into an accumulator that
    /// starts at `init`, and records the accumulator after each output (at
    /// that output's time). For outputs that are *changes* to a variable
    /// this materialises the variable's history, so [`Self::value_at`],
    /// [`Self::last`] and [`Self::first_time_where`] on the result read the
    /// variable itself.
    pub fn scan<S, F: Fn(&mut S, &O)>(&self, init: S, step: F) -> OutputHistory<S>
    where
        S: Clone,
    {
        OutputHistory {
            per_process: self
                .per_process
                .iter()
                .map(|outs| {
                    let mut acc = init.clone();
                    outs.iter()
                        .map(|(t, v)| {
                            step(&mut acc, v);
                            (*t, acc.clone())
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Filter-maps every output value; outputs mapped to `None` are dropped.
    pub fn filter_map<P, F: Fn(&O) -> Option<P>>(&self, f: F) -> OutputHistory<P>
    where
        P: Clone,
    {
        OutputHistory {
            per_process: self
                .per_process
                .iter()
                .map(|outs| {
                    outs.iter()
                        .filter_map(|(t, v)| f(v).map(|p| (*t, p)))
                        .collect()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> OutputHistory<u32> {
        let mut h = OutputHistory::new(2);
        h.record(ProcessId::new(0), Time::new(1), 10);
        h.record(ProcessId::new(0), Time::new(5), 20);
        h.record(ProcessId::new(1), Time::new(3), 30);
        h
    }

    #[test]
    fn value_at_is_sticky() {
        let mut h = history();
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(0)), None);
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(1)), Some(&10));
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(4)), Some(&10));
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(5)), Some(&20));
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(99)), Some(&20));
        // of several outputs at one time, the last recorded is the value
        h.record(ProcessId::new(0), Time::new(5), 21);
        h.record(ProcessId::new(0), Time::new(5), 22);
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(4)), Some(&10));
        assert_eq!(h.value_at(ProcessId::new(0), Time::new(5)), Some(&22));
        // a process that never output has no value at any time
        let silent: OutputHistory<u32> = OutputHistory::new(1);
        assert_eq!(silent.value_at(ProcessId::new(0), Time::new(99)), None);
    }

    #[test]
    fn last_and_first_time_where() {
        let h = history();
        assert_eq!(h.last(ProcessId::new(0)), Some(&20));
        assert_eq!(h.last(ProcessId::new(1)), Some(&30));
        assert_eq!(
            h.first_time_where(ProcessId::new(0), |v| *v >= 20),
            Some(Time::new(5))
        );
        assert_eq!(h.first_time_where(ProcessId::new(1), |v| *v >= 99), None);
    }

    #[test]
    fn all_and_output_times() {
        let h = history();
        assert_eq!(h.all().count(), 3);
        assert_eq!(
            h.output_times(),
            vec![Time::new(1), Time::new(3), Time::new(5)]
        );
    }

    #[test]
    fn map_and_filter_map() {
        let h = history();
        let doubled = h.map(|v| v * 2);
        assert_eq!(doubled.last(ProcessId::new(0)), Some(&40));
        let only_big = h.filter_map(|v| if *v >= 20 { Some(*v) } else { None });
        assert_eq!(only_big.outputs(ProcessId::new(0)).len(), 1);
        assert_eq!(only_big.outputs(ProcessId::new(1)).len(), 1);
    }

    #[test]
    fn scan_materialises_a_history_of_changes() {
        // outputs are changes `(keep, suffix)` to a sequence; p0 appends
        // twice, rewrites from index 1 at t=7, then appends again
        let p = ProcessId::new(0);
        let mut changes: OutputHistory<(usize, Vec<u32>)> = OutputHistory::new(2);
        changes.record(p, Time::new(1), (0, vec![10, 11]));
        changes.record(p, Time::new(4), (2, vec![12]));
        changes.record(p, Time::new(7), (1, vec![21, 22]));
        changes.record(p, Time::new(9), (3, vec![23]));
        changes.record(ProcessId::new(1), Time::new(2), (0, vec![10]));
        let materialised = changes.scan(Vec::new(), |seq: &mut Vec<u32>, (keep, suffix)| {
            seq.truncate(*keep);
            seq.extend(suffix);
        });
        // what an algorithm emitting the whole sequence would have recorded
        let mut full: OutputHistory<Vec<u32>> = OutputHistory::new(2);
        full.record(p, Time::new(1), vec![10, 11]);
        full.record(p, Time::new(4), vec![10, 11, 12]);
        full.record(p, Time::new(7), vec![10, 21, 22]);
        full.record(p, Time::new(9), vec![10, 21, 22, 23]);
        full.record(ProcessId::new(1), Time::new(2), vec![10]);
        assert_eq!(materialised, full);
        assert_eq!(materialised.value_at(p, Time::new(0)), None);
        assert_eq!(
            materialised.value_at(p, Time::new(6)),
            Some(&vec![10, 11, 12])
        );
        assert_eq!(
            materialised.value_at(p, Time::new(8)),
            Some(&vec![10, 21, 22])
        );
        assert_eq!(materialised.last(p), Some(&vec![10, 21, 22, 23]));
        // 12 was delivered at t=4 and rewritten away at t=7: the scan keeps
        // both facts, where the raw changes would only show the append
        assert_eq!(
            materialised.first_time_where(p, |seq| seq.contains(&12)),
            Some(Time::new(4))
        );
        assert_eq!(
            materialised.first_time_where(p, |seq| !seq.contains(&11) && !seq.is_empty()),
            Some(Time::new(7))
        );
        assert_eq!(materialised.output_times(), changes.output_times());
    }

    #[test]
    #[should_panic]
    fn out_of_range_process_panics() {
        let h = history();
        let _ = h.outputs(ProcessId::new(9));
    }
}
