//! Exact order statistics over recorded samples.
//!
//! Everything here sorts the samples and reads positions off the sorted
//! list; nothing is bucketed (the daemon's own `Log2Histogram` percentiles
//! are bucket bounds and cannot resolve a 10 % change).

/// The value at percentile `p` (0–100) of `sorted`, by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or below
/// it.
///
/// # Panics
///
/// Panics on an empty slice — every caller records at least one sample.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Sorts a copy of `samples` ascending (total order; the samples are
/// measured times, never NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by the nearest-rank rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50)
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, or `None` when the set is too small for any tail percentile above
/// the median to qualify (fewer than 21 samples).
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (51..=99u32).rev().find(|&p| {
        let rank = (samples * p as usize).div_ceil(100).max(1);
        samples - rank >= 10
    })
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method:
/// position `i·(n+1)/4` in the sorted list, linearly interpolated) — the
/// same rule the acceptance check applies to ten runs.
///
/// # Panics
///
/// Panics with fewer than two samples, as the Python function raises.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 240 samples: p95 sits at rank 228, leaving 12 beyond; p96 would
        // leave 9.
        assert_eq!(tail_percentile(240), Some(95));
        // 200 samples: rank 190 leaves exactly 10.
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100), Some(90));
        // 21 samples: p51 is rank 11, 10 beyond.
        assert_eq!(tail_percentile(21), Some(52));
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(5), None);
        for n in 21..400 {
            let p = tail_percentile(n).unwrap();
            let rank = (n * p as usize).div_ceil(100);
            assert!(n - rank >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
