//! Compact, exact digests of causality-graph contents: per-origin sequence
//! ranges ("version vectors with holes").
//!
//! The delta-state wire format (see [`crate::etob_omega`]) replaces the
//! paper's full-graph `update(CG_i)` broadcasts with suffix deltas. For that
//! to be *correctness-preserving*, a receiver must be able to decide —
//! exactly, not heuristically — whether the sender knows a message it does
//! not, and a repairer must be able to compute exactly which messages a
//! requester is missing. A classical version vector (origin → max sequence
//! number) cannot do either: sequence numbers may have gaps (explicit
//! [`crate::types::MsgId`]s, interleaved facade- and replica-assigned
//! counters), and under message loss a receiver's known set is not a prefix.
//!
//! [`VersionVector`] therefore stores, per origin, the *set* of known
//! sequence numbers as sorted maximal runs ([`SeqRanges`]). In every
//! non-adversarial execution sequence numbers are contiguous per origin, so
//! the digest is one `(lo, hi)` pair per origin — as small as a classical
//! version vector — while remaining exact in the worst case.

use std::collections::BTreeMap;
use std::fmt;

use ec_sim::ProcessId;

use crate::types::MsgId;

/// A set of `u64` sequence numbers stored as sorted, disjoint, maximal
/// inclusive runs `(lo, hi)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeqRanges {
    ranges: Vec<(u64, u64)>,
}

impl SeqRanges {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one sequence number, coalescing adjacent runs.
    ///
    /// Sequence numbers arrive from peers, so this path is panic-free: no
    /// indexing, and `seq + 1` is checked arithmetic (a hostile
    /// `seq == u64::MAX` must not overflow in debug builds).
    pub fn insert(&mut self, seq: u64) {
        // position of the first run with lo > seq
        let idx = self.ranges.partition_point(|&(lo, _)| lo <= seq);
        // inside (or adjacent above) the run before idx?
        if let Some(prev) = idx.checked_sub(1) {
            let Some(&(lo, hi)) = self.ranges.get(prev) else {
                return;
            };
            if seq <= hi {
                return; // already present
            }
            if hi.checked_add(1) == Some(seq) {
                // extend upward; may now bridge to the next run
                let bridged = self
                    .ranges
                    .get(idx)
                    .filter(|&&(nlo, _)| seq.checked_add(1) == Some(nlo))
                    .map(|&(_, nhi)| nhi);
                if let Some(slot) = self.ranges.get_mut(prev) {
                    *slot = (lo, bridged.unwrap_or(seq));
                }
                if bridged.is_some() {
                    self.ranges.remove(idx);
                }
                return;
            }
        }
        // adjacent below the run at idx?
        if let Some(next) = self.ranges.get_mut(idx) {
            if seq.checked_add(1) == Some(next.0) {
                next.0 = seq;
                return;
            }
        }
        self.ranges.insert(idx, (seq, seq));
    }

    /// Returns `true` if `seq` is in the set.
    pub fn contains(&self, seq: u64) -> bool {
        let idx = self.ranges.partition_point(|&(lo, _)| lo <= seq);
        idx.checked_sub(1)
            .and_then(|prev| self.ranges.get(prev))
            .is_some_and(|&(_, hi)| seq <= hi)
    }

    /// Returns `true` if every member of `other` is a member of `self`.
    pub fn covers(&self, other: &SeqRanges) -> bool {
        other.ranges.iter().all(|&(lo, hi)| {
            let idx = self.ranges.partition_point(|&(l, _)| l <= lo);
            idx.checked_sub(1)
                .and_then(|prev| self.ranges.get(prev))
                .is_some_and(|&(_, h)| hi <= h)
        })
    }

    /// Inserts every member of `other` — a two-pointer union over the run
    /// lists, O(runs), *not* O(sequence numbers). Frontier merges happen on
    /// every message reception, so this must stay constant-time in the
    /// contiguous common case regardless of history length.
    pub fn merge(&mut self, other: &SeqRanges) {
        if other.ranges.is_empty() {
            return;
        }
        if self.ranges.is_empty() {
            self.ranges = other.ranges.clone();
            return;
        }
        let mut merged: Vec<(u64, u64)> =
            Vec::with_capacity(self.ranges.len() + other.ranges.len());
        let mut mine = self.ranges.iter().copied().peekable();
        let mut theirs = other.ranges.iter().copied().peekable();
        loop {
            let next = match (mine.peek().copied(), theirs.peek().copied()) {
                (Some(a), Some(b)) if a.0 <= b.0 => {
                    mine.next();
                    a
                }
                (_, Some(b)) => {
                    theirs.next();
                    b
                }
                (Some(a), None) => {
                    mine.next();
                    a
                }
                (None, None) => break,
            };
            match merged.last_mut() {
                // overlapping or adjacent: coalesce into one maximal run
                Some(last) if next.0 <= last.1.saturating_add(1) => last.1 = last.1.max(next.1),
                _ => merged.push(next),
            }
        }
        self.ranges = merged;
    }

    /// Number of sequence numbers in the set.
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The maximal runs of the set.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Rebuilds a set from its canonical run list — the inverse of
    /// [`SeqRanges::runs`], used by wire decoders. Returns `None` unless the
    /// runs are well-formed (`lo <= hi`), strictly ascending, and maximal
    /// (separated by at least one absent sequence number): accepting a
    /// non-canonical list would break digest equality, so a hostile encoding
    /// is rejected rather than repaired.
    pub fn from_runs(runs: Vec<(u64, u64)>) -> Option<Self> {
        let mut prev_hi: Option<u64> = None;
        for &(lo, hi) in &runs {
            if lo > hi {
                return None;
            }
            if let Some(p) = prev_hi {
                // `lo` must leave a gap after the previous run; `p + 1` may
                // not overflow when p == u64::MAX because then no valid `lo`
                // exists at all.
                match p.checked_add(1) {
                    Some(next) if lo > next => {}
                    _ => return None,
                }
            }
            prev_hi = Some(hi);
        }
        Some(SeqRanges { ranges: runs })
    }
}

/// An exact digest of a set of [`MsgId`]s: per origin, the known sequence
/// numbers as [`SeqRanges`].
///
/// # Example
///
/// ```
/// use ec_core::version::VersionVector;
/// use ec_core::types::MsgId;
/// use ec_sim::ProcessId;
///
/// let mut mine = VersionVector::new();
/// mine.insert(MsgId::new(ProcessId::new(0), 1));
/// let mut theirs = mine.clone();
/// theirs.insert(MsgId::new(ProcessId::new(1), 1));
/// assert!(theirs.covers(&mine));
/// assert!(!mine.covers(&theirs), "p1#1 is a detectable gap");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionVector {
    entries: BTreeMap<ProcessId, SeqRanges>,
}

impl VersionVector {
    /// The empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one message identifier.
    pub fn insert(&mut self, id: MsgId) {
        self.entries.entry(id.origin).or_default().insert(id.seq);
    }

    /// Returns `true` if the digest contains `id`.
    pub fn contains(&self, id: MsgId) -> bool {
        self.entries
            .get(&id.origin)
            .is_some_and(|r| r.contains(id.seq))
    }

    /// Returns `true` if every identifier of `other` is in `self` — the
    /// exact "do I know everything the sender knows?" test that triggers a
    /// digest pull when it fails.
    pub fn covers(&self, other: &VersionVector) -> bool {
        other.entries.iter().all(|(origin, ranges)| {
            self.entries
                .get(origin)
                .is_some_and(|mine| mine.covers(ranges))
        })
    }

    /// Inserts every identifier of `other`.
    pub fn merge(&mut self, other: &VersionVector) {
        for (origin, ranges) in &other.entries {
            self.entries.entry(*origin).or_default().merge(ranges);
        }
    }

    /// Total number of identifiers in the digest.
    pub fn len(&self) -> u64 {
        self.entries.values().map(SeqRanges::len).sum()
    }

    /// Returns `true` if the digest is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The per-origin entries of the digest.
    pub fn entries(&self) -> impl Iterator<Item = (ProcessId, &SeqRanges)> + '_ {
        self.entries.iter().map(|(p, r)| (*p, r))
    }

    /// Merges a whole per-origin range set into the digest — the bulk
    /// counterpart of [`VersionVector::insert`], used by wire decoders
    /// rebuilding a digest from its entries. An empty range set is a no-op,
    /// preserving the invariant that every stored entry is non-empty (on
    /// which digest equality relies).
    pub fn insert_ranges(&mut self, origin: ProcessId, ranges: &SeqRanges) {
        if ranges.is_empty() {
            return;
        }
        self.entries.entry(origin).or_default().merge(ranges);
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (origin, ranges)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{origin}:")?;
            for (j, (lo, hi)) in ranges.runs().iter().enumerate() {
                if j > 0 {
                    write!(f, "+")?;
                }
                if lo == hi {
                    write!(f, "{lo}")?;
                } else {
                    write!(f, "{lo}..{hi}")?;
                }
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: usize, seq: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), seq)
    }

    #[test]
    fn ranges_coalesce_and_stay_sorted() {
        let mut r = SeqRanges::new();
        for seq in [5u64, 3, 1, 2, 7, 6, 4] {
            r.insert(seq);
        }
        assert_eq!(r.runs(), &[(1, 7)]);
        assert_eq!(r.len(), 7);
        r.insert(7); // idempotent
        assert_eq!(r.runs(), &[(1, 7)]);
        r.insert(10);
        assert_eq!(r.runs(), &[(1, 7), (10, 10)]);
        assert!(r.contains(4) && r.contains(10) && !r.contains(9));
        assert!(!r.is_empty());
    }

    #[test]
    fn gap_insertion_bridges_runs() {
        let mut r = SeqRanges::new();
        r.insert(1);
        r.insert(3);
        assert_eq!(r.runs(), &[(1, 1), (3, 3)]);
        r.insert(2);
        assert_eq!(r.runs(), &[(1, 3)]);
    }

    #[test]
    fn covers_is_exact_under_holes() {
        let mut a = SeqRanges::new();
        let mut b = SeqRanges::new();
        // a = {1, 3}; b = {2, 3}: same size, same max, neither covers
        a.insert(1);
        a.insert(3);
        b.insert(2);
        b.insert(3);
        assert!(!a.covers(&b) && !b.covers(&a));
        a.insert(2);
        assert!(a.covers(&b));
        assert!(
            a.covers(&SeqRanges::new()),
            "everything covers the empty set"
        );
    }

    #[test]
    fn merge_unions_the_sets() {
        let mut a = SeqRanges::new();
        a.insert(1);
        let mut b = SeqRanges::new();
        b.insert(2);
        b.insert(9);
        a.merge(&b);
        assert_eq!(a.runs(), &[(1, 2), (9, 9)]);
        let mut empty = SeqRanges::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&SeqRanges::new());
        assert_eq!(a.runs(), &[(1, 2), (9, 9)]);
    }

    #[test]
    fn merge_coalesces_overlapping_and_adjacent_runs_in_run_time() {
        // interval union, not element-wise: a huge contiguous run merges as
        // one O(1) step (element-wise expansion would hang well before u64::MAX)
        let mut a = SeqRanges::new();
        a.insert(5);
        let mut big = SeqRanges::new();
        big.insert(1);
        for &(cases_a, cases_b, expect) in &[
            (
                &[(1u64, 10u64), (20, 30)][..],
                &[(5u64, 25u64)][..],
                &[(1u64, 30u64)][..],
            ),
            (&[(1, 3)][..], &[(4, 6)][..], &[(1, 6)][..]),
            (
                &[(10, 12)][..],
                &[(1, 2), (5, 6)][..],
                &[(1, 2), (5, 6), (10, 12)][..],
            ),
        ] {
            let mut x = SeqRanges::new();
            x.ranges = cases_a.to_vec();
            let mut y = SeqRanges::new();
            y.ranges = cases_b.to_vec();
            x.merge(&y);
            assert_eq!(x.runs(), expect);
        }
        let mut huge = SeqRanges::new();
        huge.ranges = vec![(1, u64::MAX - 1)];
        a.merge(&huge);
        assert_eq!(a.runs(), &[(1, u64::MAX - 1)]);
        assert!(a.contains(5) && a.covers(&huge));
    }

    #[test]
    fn from_runs_accepts_exactly_the_canonical_lists() {
        let mut reference = SeqRanges::new();
        for seq in [1u64, 2, 3, 7, 9] {
            reference.insert(seq);
        }
        let rebuilt = SeqRanges::from_runs(reference.runs().to_vec()).expect("canonical");
        assert_eq!(rebuilt, reference);
        assert_eq!(SeqRanges::from_runs(Vec::new()), Some(SeqRanges::new()));
        // inverted, overlapping, adjacent (non-maximal), unsorted, and
        // u64::MAX-boundary lists are all rejected
        for bad in [
            vec![(5u64, 3u64)],
            vec![(1, 4), (3, 6)],
            vec![(1, 2), (3, 4)],
            vec![(5, 6), (1, 2)],
            vec![(1, u64::MAX), (0, 0)],
        ] {
            assert_eq!(SeqRanges::from_runs(bad.clone()), None, "{bad:?}");
        }
    }

    #[test]
    fn insert_ranges_merges_and_ignores_empty_sets() {
        let mut v = VersionVector::new();
        let mut ranges = SeqRanges::new();
        ranges.insert(4);
        ranges.insert(5);
        v.insert_ranges(ProcessId::new(1), &ranges);
        assert!(v.contains(id(1, 4)) && v.contains(id(1, 5)));
        let before = v.clone();
        v.insert_ranges(ProcessId::new(2), &SeqRanges::new());
        assert_eq!(v, before, "empty entries must not be materialized");
        let mut by_insert = VersionVector::new();
        by_insert.insert(id(1, 4));
        by_insert.insert(id(1, 5));
        assert_eq!(v, by_insert);
    }

    #[test]
    fn version_vector_tracks_per_origin_sets() {
        let mut v = VersionVector::new();
        assert!(v.is_empty());
        v.insert(id(0, 1));
        v.insert(id(0, 2));
        v.insert(id(2, 7));
        assert_eq!(v.len(), 3);
        assert!(v.contains(id(0, 2)) && v.contains(id(2, 7)));
        assert!(!v.contains(id(0, 3)) && !v.contains(id(1, 1)));

        let mut w = v.clone();
        w.insert(id(1, 1));
        assert!(w.covers(&v) && !v.covers(&w));
        v.merge(&w);
        assert!(v.covers(&w) && w.covers(&v));
        assert_eq!(v.entries().count(), 3);
    }

    #[test]
    fn wire_size_is_independent_of_history_length_when_contiguous() {
        let mut v = VersionVector::new();
        for seq in 1..=1_000u64 {
            v.insert(id(0, seq));
        }
        let mut w = VersionVector::new();
        w.insert(id(0, 1));
        assert_eq!(
            ec_storage::codec::encoded_len(&v),
            ec_storage::codec::encoded_len(&w),
            "one run per origin, whatever its length"
        );
        assert!(format!("{v}").contains("1..1000"));
        assert_eq!(format!("{w}"), "{p0:1}");
    }
}
