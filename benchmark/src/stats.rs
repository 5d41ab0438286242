//! Order statistics over measured samples.
//!
//! Percentiles are nearest-rank (no interpolation), so every reported value
//! is one that was actually measured, and each comes with the number of
//! samples it was taken from.

/// A nearest-rank percentile together with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank (0.0 when there are no samples).
    pub value: f64,
    /// Number of samples the rank was taken from.
    pub samples: usize,
    /// Number of samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of `samples`: the smallest value such that at
/// least `pct` percent of the samples are less than or equal to it.
pub fn percentile(samples: &[f64], pct: f64) -> Percentile {
    if samples.is_empty() {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    Percentile {
        value: sorted[index],
        samples: n,
        beyond: n - 1 - index,
    }
}

/// The median (nearest-rank 50th percentile for odd counts, mean of the two
/// middle values for even counts), 0.0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Position by position, the smallest value any row has there (rows may
/// differ in length; a position is as long as the longest row).
pub fn fastest_per_position(rows: &[&[f64]]) -> Vec<f64> {
    let len = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            rows.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), or `None` below two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Python's rule verbatim, including its extrapolation for tiny inputs:
    // j = k(n+1) div 4 clamped to [1, n-1], delta = k(n+1) - 4j
    let at = |k: usize| {
        let m = k * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance rule compares with a metric's bound. 0.0 below two samples or
/// for a zero median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values_with_counts() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let p50 = percentile(&samples, 50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (5.0, 10, 5));
        let p90 = percentile(&samples, 90.0);
        assert_eq!((p90.value, p90.beyond), (9.0, 1));
        let p99 = percentile(&samples, 99.0);
        assert_eq!((p99.value, p99.beyond), (10.0, 0));
        assert_eq!(percentile(&samples, 0.0).value, 1.0);
        assert_eq!(percentile(&[], 90.0).samples, 0);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let p = percentile(&[9.0, 1.0, 5.0, 3.0, 7.0], 50.0);
        assert_eq!(p.value, 5.0);
        assert_eq!(p.beyond, 2);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_fastest_per_position_ignores_disturbed_rows() {
        let rows: [&[f64]; 3] = [&[30.0, 45.0, 31.0], &[41.0, 30.5, 33.0], &[29.0, 60.0]];
        assert_eq!(fastest_per_position(&rows), vec![29.0, 30.5, 31.0]);
        assert!(fastest_per_position(&[]).is_empty());
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&samples).expect("ten samples");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&samples) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!(quartiles(&[1.0]).is_none());
    }
}
