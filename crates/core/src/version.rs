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
//! sequence numbers as sorted maximal runs — the run-list version vector of
//! Malkhi & Terry ("Concise Version Vectors in WinFS", DISC 2005). In every
//! non-adversarial execution sequence numbers are contiguous per origin, so
//! the digest is one `(lo, hi)` pair per origin — as small as a classical
//! version vector — while remaining exact in the worst case.
//!
//! The runs of all origins live in one flat list sorted by `(origin, lo)`,
//! because a digest rides on every delta: a clone is one allocation, and a
//! merge in which one side covers the other — every merge of an in-order
//! delivery — reuses the list it already has.

use std::fmt;

use ec_sim::ProcessId;

use crate::types::MsgId;

/// One maximal run of an origin's known sequence numbers: `(origin, lo, hi)`,
/// both bounds inclusive.
pub type Run = (ProcessId, u64, u64);

/// An exact digest of a set of [`MsgId`]s: per origin, the known sequence
/// numbers as sorted, disjoint, maximal inclusive runs.
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
    /// Sorted by `(origin, lo)`; each origin's runs are disjoint and
    /// separated by at least one absent sequence number, so equal sets have
    /// equal lists.
    runs: Vec<Run>,
}

impl VersionVector {
    /// The empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of the first run that starts after `id` in list order: the
    /// run before it, if it has `id`'s origin, is the only one that can
    /// hold `id`.
    fn after(&self, id: MsgId) -> usize {
        self.runs
            .partition_point(|&(origin, lo, _)| (origin, lo) <= (id.origin, id.seq))
    }

    /// Inserts one message identifier, coalescing adjacent runs.
    ///
    /// Sequence numbers arrive from peers, so this path is panic-free: no
    /// indexing, and `seq + 1` is checked arithmetic (a hostile
    /// `seq == u64::MAX` must not overflow in debug builds).
    pub fn insert(&mut self, id: MsgId) {
        let (origin, seq) = (id.origin, id.seq);
        let idx = self.after(id);
        // inside (or adjacent above) the run before idx?
        if let Some(prev) = idx.checked_sub(1) {
            let Some(&(p, _, hi)) = self.runs.get(prev) else {
                return;
            };
            if p == origin && seq <= hi {
                return; // already present
            }
            if p == origin && hi.checked_add(1) == Some(seq) {
                // extend upward; may now bridge to the next run
                let bridged = self
                    .runs
                    .get(idx)
                    .filter(|&&(np, nlo, _)| np == origin && seq.checked_add(1) == Some(nlo))
                    .map(|&(_, _, nhi)| nhi);
                if let Some(slot) = self.runs.get_mut(prev) {
                    slot.2 = bridged.unwrap_or(seq);
                }
                if bridged.is_some() {
                    self.runs.remove(idx);
                }
                return;
            }
        }
        // adjacent below the run at idx?
        if let Some(next) = self.runs.get_mut(idx) {
            if next.0 == origin && seq.checked_add(1) == Some(next.1) {
                next.1 = seq;
                return;
            }
        }
        self.runs.insert(idx, (origin, seq, seq));
    }

    /// Returns `true` if the digest contains `id`.
    pub fn contains(&self, id: MsgId) -> bool {
        self.after(id)
            .checked_sub(1)
            .and_then(|prev| self.runs.get(prev))
            .is_some_and(|&(origin, _, hi)| origin == id.origin && id.seq <= hi)
    }

    /// Returns `true` if every identifier of `other` is in `self` — the
    /// exact "do I know everything the sender knows?" test that triggers a
    /// digest pull when it fails. One pass over both run lists: each run of
    /// `other` must lie inside the first run of `self` that does not end
    /// before it.
    pub fn covers(&self, other: &VersionVector) -> bool {
        let mut mine = self.runs.iter().peekable();
        other.runs.iter().all(|&(origin, lo, hi)| {
            while mine.next_if(|&&(p, _, h)| (p, h) < (origin, lo)).is_some() {}
            mine.peek()
                .is_some_and(|&&(p, l, h)| p == origin && l <= lo && hi <= h)
        })
    }

    /// Inserts every identifier of `other` — O(runs), *not* O(sequence
    /// numbers). Frontier merges happen on every message reception, so the
    /// common cases allocate nothing: if `self` already covers `other` this
    /// is a no-op, and if `other` covers `self` its list is copied into the
    /// capacity `self` already has. Only a true interleaving builds a new
    /// list, by a two-pointer union.
    pub fn merge(&mut self, other: &VersionVector) {
        if self.covers(other) {
            return;
        }
        if other.covers(self) {
            self.runs.clone_from(&other.runs);
            return;
        }
        let mut merged: Vec<Run> = Vec::with_capacity(self.runs.len() + other.runs.len());
        let mut mine = self.runs.iter().copied().peekable();
        let mut theirs = other.runs.iter().copied().peekable();
        loop {
            let next = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) if (a.0, a.1) <= (b.0, b.1) => mine.next(),
                (_, Some(_)) => theirs.next(),
                _ => mine.next(),
            };
            let Some(next) = next else {
                break;
            };
            match merged.last_mut() {
                // same origin, overlapping or adjacent: one maximal run
                Some(last) if last.0 == next.0 && next.1 <= last.2.saturating_add(1) => {
                    last.2 = last.2.max(next.2);
                }
                _ => merged.push(next),
            }
        }
        self.runs = merged;
    }

    /// Total number of identifiers in the digest, saturating at
    /// `u64::MAX`: the full run `(0, u64::MAX)` alone holds 2⁶⁴ of them.
    pub fn len(&self) -> u64 {
        self.runs
            .iter()
            .map(|&(_, lo, hi)| hi.saturating_sub(lo).saturating_add(1))
            .fold(0, u64::saturating_add)
    }

    /// Returns `true` if the digest is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The maximal runs of the digest, sorted by `(origin, lo)`.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Rebuilds a digest from its canonical run list — the inverse of
    /// [`VersionVector::runs`], used by wire decoders. Returns `None` unless
    /// [`VersionVector::is_canonical`] holds: accepting a non-canonical list
    /// would break digest equality, so a hostile encoding is rejected rather
    /// than repaired.
    pub(crate) fn from_runs(runs: Vec<Run>) -> Option<Self> {
        Self::is_canonical(&runs).then_some(VersionVector { runs })
    }

    /// Returns `true` if `runs` is a canonical run list: origins ascending,
    /// every run well-formed (`lo <= hi`), and each origin's runs strictly
    /// ascending and maximal (separated by at least one absent sequence
    /// number).
    pub(crate) fn is_canonical(runs: &[Run]) -> bool {
        let mut prev: Option<(ProcessId, u64)> = None;
        runs.iter().all(|&(origin, lo, hi)| {
            let ordered = match prev {
                Some((p, _)) if p > origin => false,
                // `lo` must leave a gap after the previous run; `h + 1` may
                // not overflow when h == u64::MAX because then no valid `lo`
                // exists at all.
                Some((p, h)) if p == origin => h.checked_add(1).is_some_and(|next| lo > next),
                _ => true,
            };
            prev = Some((origin, hi));
            ordered && lo <= hi
        })
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, group) in self.runs.chunk_by(|a, b| a.0 == b.0).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            for (j, &(origin, lo, hi)) in group.iter().enumerate() {
                if j == 0 {
                    write!(f, "{origin}:")?;
                } else {
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
    use std::collections::BTreeSet;

    use ec_storage::{Reader, WireCodec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn id(p: usize, seq: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), seq)
    }

    /// A single-origin digest of p0 holding `seqs`.
    fn p0(seqs: &[u64]) -> VersionVector {
        let mut v = VersionVector::new();
        for &seq in seqs {
            v.insert(id(0, seq));
        }
        v
    }

    /// A single-origin run list of p0.
    fn runs0(pairs: &[(u64, u64)]) -> Vec<Run> {
        pairs
            .iter()
            .map(|&(lo, hi)| (ProcessId::new(0), lo, hi))
            .collect()
    }

    fn roundtrip(v: &VersionVector) -> VersionVector {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let back = VersionVector::decode(&mut reader).expect("decodes");
        reader.ensure_consumed().expect("fully consumed");
        back
    }

    #[test]
    fn ranges_coalesce_and_stay_sorted() {
        let mut r = p0(&[5, 3, 1, 2, 7, 6, 4]);
        assert_eq!(r.runs(), runs0(&[(1, 7)]));
        assert_eq!(r.len(), 7);
        r.insert(id(0, 7)); // idempotent
        assert_eq!(r.runs(), runs0(&[(1, 7)]));
        r.insert(id(0, 10));
        assert_eq!(r.runs(), runs0(&[(1, 7), (10, 10)]));
        assert!(r.contains(id(0, 4)) && r.contains(id(0, 10)) && !r.contains(id(0, 9)));
        assert!(!r.is_empty());
    }

    #[test]
    fn gap_insertion_bridges_runs() {
        let mut r = p0(&[1, 3]);
        assert_eq!(r.runs(), runs0(&[(1, 1), (3, 3)]));
        r.insert(id(0, 2));
        assert_eq!(r.runs(), runs0(&[(1, 3)]));
    }

    #[test]
    fn adjacent_sequence_numbers_of_different_origins_never_coalesce() {
        let mut v = VersionVector::new();
        v.insert(id(0, 1));
        v.insert(id(1, 2));
        v.insert(id(1, 0));
        v.insert(id(0, 2));
        assert_eq!(
            v.runs(),
            &[
                (ProcessId::new(0), 1, 2),
                (ProcessId::new(1), 0, 0),
                (ProcessId::new(1), 2, 2)
            ]
        );
        assert!(!v.contains(id(0, 0)) && !v.contains(id(1, 1)));
    }

    #[test]
    fn covers_is_exact_under_holes() {
        // a = {1, 3}; b = {2, 3}: same size, same max, neither covers
        let mut a = p0(&[1, 3]);
        let b = p0(&[2, 3]);
        assert!(!a.covers(&b) && !b.covers(&a));
        a.insert(id(0, 2));
        assert!(a.covers(&b));
        assert!(
            a.covers(&VersionVector::new()),
            "everything covers the empty set"
        );
    }

    #[test]
    fn merge_unions_the_sets() {
        let mut a = p0(&[1]);
        let b = p0(&[2, 9]);
        a.merge(&b);
        assert_eq!(a.runs(), runs0(&[(1, 2), (9, 9)]));
        let mut empty = VersionVector::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&VersionVector::new());
        assert_eq!(a.runs(), runs0(&[(1, 2), (9, 9)]));
    }

    #[test]
    fn merge_coalesces_overlapping_and_adjacent_runs_in_run_time() {
        // interval union, not element-wise: a huge contiguous run merges as
        // one O(1) step (element-wise expansion would hang well before u64::MAX)
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
            let mut x = VersionVector::from_runs(runs0(cases_a)).expect("canonical");
            let y = VersionVector::from_runs(runs0(cases_b)).expect("canonical");
            x.merge(&y);
            assert_eq!(x.runs(), runs0(expect));
        }
        let mut a = p0(&[5]);
        let huge = VersionVector::from_runs(runs0(&[(1, u64::MAX - 1)])).expect("canonical");
        a.merge(&huge);
        assert_eq!(a.runs(), runs0(&[(1, u64::MAX - 1)]));
        assert!(a.contains(id(0, 5)) && a.covers(&huge));
    }

    #[test]
    fn a_covering_merge_reuses_the_list_it_has() {
        let mut mine = p0(&[1, 2, 3, 9]);
        let before = mine.runs().as_ptr();
        mine.merge(&p0(&[2, 3]));
        assert_eq!(mine.runs().as_ptr(), before, "covered: nothing to do");
        mine.merge(&p0(&[1, 2, 3, 4, 9, 10]));
        assert_eq!(mine.runs(), runs0(&[(1, 4), (9, 10)]));
        assert_eq!(mine.runs().as_ptr(), before, "covering: copied in place");
    }

    #[test]
    fn from_runs_accepts_exactly_the_canonical_lists() {
        let reference = p0(&[1, 2, 3, 7, 9]);
        let rebuilt = VersionVector::from_runs(reference.runs().to_vec()).expect("canonical");
        assert_eq!(rebuilt, reference);
        assert_eq!(
            VersionVector::from_runs(Vec::new()),
            Some(VersionVector::new())
        );
        // inverted, overlapping, adjacent (non-maximal), unsorted, and
        // u64::MAX-boundary lists are all rejected
        for bad in [
            runs0(&[(5, 3)]),
            runs0(&[(1, 4), (3, 6)]),
            runs0(&[(1, 2), (3, 4)]),
            runs0(&[(5, 6), (1, 2)]),
            runs0(&[(1, u64::MAX), (0, 0)]),
            vec![(ProcessId::new(1), 1, 1), (ProcessId::new(0), 5, 5)],
        ] {
            assert_eq!(VersionVector::from_runs(bad.clone()), None, "{bad:?}");
        }
        // the same run under two origins is two runs, not an overlap
        let two = vec![(ProcessId::new(0), 1, 4), (ProcessId::new(1), 1, 4)];
        assert!(VersionVector::from_runs(two).is_some());
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
        assert_eq!(v, w);
    }

    #[test]
    fn wire_size_is_independent_of_history_length_when_contiguous() {
        let mut v = VersionVector::new();
        for seq in 1..=1_000u64 {
            v.insert(id(0, seq));
        }
        let w = p0(&[1]);
        assert_eq!(
            ec_storage::codec::encoded_len(&v),
            ec_storage::codec::encoded_len(&w),
            "one run per origin, whatever its length"
        );
        assert!(format!("{v}").contains("1..1000"));
        assert_eq!(format!("{w}"), "{p0:1}");
    }

    #[test]
    fn the_encoding_of_a_digest_is_pinned() {
        let mut v = VersionVector::new();
        for (p, seqs) in [(0, 1..=5), (1, 3..=3), (1, 7..=9), (2, 1..=1)] {
            for seq in seqs {
                v.insert(id(p, seq));
            }
        }
        assert_eq!(format!("{v}"), "{p0:1..5, p1:3+7..9, p2:1}");
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let pinned: &[u8] = &[
            0, 0, 0, 3, // three origins
            0, 0, 0, 0, 0, 0, 0, 1, // p0: one run
            0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, // 1..5
            0, 0, 0, 1, 0, 0, 0, 2, // p1: two runs
            0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, // 3
            0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9, // 7..9
            0, 0, 0, 2, 0, 0, 0, 1, // p2: one run
            0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, // 1
        ];
        assert_eq!(bytes, pinned);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn a_full_range_digest_from_a_peer_has_a_saturated_length() {
        let mut bytes = Vec::new();
        let full = VersionVector::from_runs(runs0(&[(0, u64::MAX)])).expect("canonical");
        full.encode(&mut bytes);
        let decoded = VersionVector::decode(&mut Reader::new(&bytes)).expect("decodes");
        assert_eq!(decoded.len(), u64::MAX);
        assert!(!decoded.is_empty() && decoded.contains(id(0, u64::MAX)));
        let mut two = decoded.clone();
        two.insert(id(1, 4));
        assert_eq!(two.len(), u64::MAX);
    }

    /// Random `insert`/`merge` sequences over three origins against a
    /// `BTreeSet<MsgId>` model. Sequence numbers come from a small pool with
    /// holes, 0 and the top of the range, so runs coalesce, bridge and meet
    /// the `u64::MAX` bound; merges take every path.
    #[test]
    fn digests_agree_with_a_set_model() {
        const TOP: u64 = u64::MAX;
        const POOL: [u64; 12] = [0, 1, 2, 3, 5, 6, 7, 9, 10, TOP - 2, TOP - 1, TOP];
        let mut rng = StdRng::seed_from_u64(0xD16E57);
        // merges where self covered other, other covered self, neither
        let mut paths = [0u32; 3];
        for _ in 0..400 {
            let mut digests = [VersionVector::new(), VersionVector::new()];
            let mut models = [BTreeSet::new(), BTreeSet::new()];
            for _ in 0..rng.gen_range(1..40usize) {
                let side = rng.gen_range(0..2usize);
                let (mine, theirs) = (side, 1 - side);
                if rng.gen_range(0..4u32) == 0 {
                    let other = digests[theirs].clone();
                    let (a, b) = (&models[mine], &models[theirs]);
                    paths[if b.is_subset(a) {
                        0
                    } else if a.is_subset(b) {
                        1
                    } else {
                        2
                    }] += 1;
                    digests[mine].merge(&other);
                    let union: BTreeSet<MsgId> = a.union(b).copied().collect();
                    models[mine] = union;
                } else {
                    let m = id(rng.gen_range(0..3usize), POOL[rng.gen_range(0..POOL.len())]);
                    digests[mine].insert(m);
                    models[mine].insert(m);
                }
                for (digest, model) in digests.iter().zip(&models) {
                    assert!(VersionVector::is_canonical(digest.runs()), "{digest}");
                    assert_eq!(digest.len(), model.len() as u64);
                    for p in 0..3 {
                        for &seq in &POOL {
                            assert_eq!(digest.contains(id(p, seq)), model.contains(&id(p, seq)));
                        }
                    }
                    assert_eq!(&roundtrip(digest), digest);
                }
                let [a, b] = &digests;
                let [ma, mb] = &models;
                assert_eq!(a.covers(b), mb.is_subset(ma), "{a} ⊇ {b}");
                assert_eq!(b.covers(a), ma.is_subset(mb), "{b} ⊇ {a}");
                assert_eq!(a == b, ma == mb, "{a} = {b}");
            }
        }
        assert!(
            paths.iter().all(|&n| n >= 20),
            "merge paths taken: {paths:?}"
        );
    }
}
