//! Fixed-bucket log2 latency histograms.
//!
//! A [`Log2Histogram`] has 65 power-of-two buckets: bucket 0 holds the value
//! 0, bucket `i` (1..=64) holds `[2^(i-1), 2^i - 1]`. Recording is lock-free
//! (relaxed atomics — the histogram is a monitor, not a synchronizer), so
//! the daemon's connection handlers share one instance without
//! coordination. Percentiles are resolved to the upper bound of the first
//! bucket whose cumulative count reaches the rank, clamped to the observed
//! maximum so a lone sample in a wide bucket does not report a latency
//! nobody saw.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 65;

/// A concurrent fixed-bucket histogram over `u64` values (microseconds, in
/// this workspace).
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else one past the highest set bit.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Integer mean of recorded values (0 when empty).
    pub fn avg(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The `p`-th percentile (`0..=100`): the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(count * p / 100)`,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn percentile(&self, p: u8) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = (count * u64::from(p)).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Renders the histogram in Prometheus text exposition format:
    /// `# HELP` / `# TYPE` lines, cumulative `_bucket{le="..."}` samples for
    /// every non-empty bucket plus `le="+Inf"`, then `_sum` and `_count`.
    pub fn render_prometheus(&self, name: &str, help: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            cumulative += n;
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper(i)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count());
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn aggregates_and_percentiles() {
        let h = Log2Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 400);
        assert_eq!(h.avg(), 200);
        assert_eq!(h.max(), 300);
        // 100 lands in [64,127] -> upper 127; 300 in [256,511] -> clamped to max.
        assert_eq!(h.percentile(50), 127);
        assert_eq!(h.percentile(95), 300);
        assert_eq!(h.percentile(99), 300);
    }

    #[test]
    fn empty_and_zero_values() {
        let h = Log2Histogram::new();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.avg(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(99), 0);
    }

    #[test]
    fn single_sample_clamps_to_observed_value() {
        let h = Log2Histogram::new();
        h.record(1500);
        // Bucket upper is 2047 but nobody saw 2047.
        assert_eq!(h.percentile(50), 1500);
        assert_eq!(h.percentile(99), 1500);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_well_formed() {
        let h = Log2Histogram::new();
        h.record(100);
        h.record(100);
        h.record(300);
        let text = h.render_prometheus("tw_latency_us", "request latency");
        assert!(text.starts_with("# HELP tw_latency_us request latency\n"));
        assert!(text.contains("# TYPE tw_latency_us histogram\n"));
        assert!(text.contains("tw_latency_us_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("tw_latency_us_bucket{le=\"511\"} 3\n"));
        assert!(text.contains("tw_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("tw_latency_us_sum 500\n"));
        assert!(text.ends_with("tw_latency_us_count 3\n"));
    }
}
