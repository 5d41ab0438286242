//! Log-linear (HDR-style) latency histogram.
//!
//! Values are bucketed exactly up to 32 and with 16 linear sub-buckets per
//! octave beyond that, bounding the relative bucket error at 1/16 (6.25%)
//! across the full `u64` range. Recording is O(1) and allocation-free after
//! construction; [`Histogram::merge`] is associative and commutative, so
//! per-replica histograms can be folded together in any order and always
//! produce the same totals — the property the cross-replica report
//! aggregation relies on.

use std::fmt;

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (and the exact-bucket range `0..SUB`).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets covering the full `u64` range.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a value. Exact for `v < 32`; 1/16 relative error above.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (e - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
        SUB + (e - SUB_BITS as usize) * SUB + sub
    }
}

/// Lowest value mapping to bucket `i` (the inverse of [`bucket_of`]).
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let octave = (i - SUB) / SUB;
        let sub = ((i - SUB) % SUB) as u64;
        (SUB as u64 + sub) << octave
    }
}

/// Highest value mapping to bucket `i`.
fn bucket_high(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_low(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A mergeable log-linear latency histogram over `u64` values (ticks on the
/// simulator, milliseconds on the real-time engines).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(500))
            .field("p99", &self.quantile(990))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value. O(1), allocation-free.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value at quantile `per_mille`/1000 (e.g. 500 → p50, 999 → p999),
    /// reported as the upper bound of the owning bucket clamped to the
    /// recorded maximum — so the estimate is conservative but never exceeds
    /// an actually observed value. Returns 0 when empty.
    pub fn quantile(&self, per_mille: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let per_mille = per_mille.min(1000);
        let rank = ((u128::from(self.total) * u128::from(per_mille)).div_ceil(1000) as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. Associative and commutative: merging any
    /// permutation of a set of histograms yields identical counts, sums and
    /// maxima.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Writes the stable JSON object for this histogram (sorted keys,
    /// integers only) into `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"count\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"sum\":{}}}",
            self.total,
            self.max,
            self.quantile(500),
            self.quantile(900),
            self.quantile(990),
            self.quantile(999),
            self.sum
        );
    }

    /// The stable JSON export: `{"count":..,"max":..,"p50":..,"p90":..,
    /// "p99":..,"p999":..,"sum":..}` with integer values only.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            let b = bucket_of(v);
            assert_eq!(bucket_low(b), v);
            assert_eq!(bucket_high(b), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_high(i) + 1,
                bucket_low(i + 1),
                "gap after bucket {i}"
            );
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn round_trip_bounds_every_value() {
        for &v in &[
            0,
            1,
            15,
            16,
            31,
            32,
            33,
            100,
            1000,
            65_535,
            1 << 40,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(bucket_low(b) <= v && v <= bucket_high(b), "v={v} b={b}");
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        let p50 = h.quantile(500);
        assert!((50..=53).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1000), 100);
        assert!(h.quantile(990) <= 100);
        assert_eq!(Histogram::new().quantile(500), 0);
    }

    #[test]
    fn merge_matches_bulk_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            if v % 3 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            all.record(v * 7);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(flipped, all);
    }

    #[test]
    fn json_is_stable_and_integer_only() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(7);
        let json = h.to_json();
        assert_eq!(
            json,
            "{\"count\":2,\"max\":7,\"p50\":5,\"p90\":7,\"p99\":7,\"p999\":7,\"sum\":12}"
        );
        assert!(!json.contains('.'));
    }
}
