//! The crate's one log2 histogram, dependency-free and unit-agnostic:
//! task latencies in microseconds (`FlowletMetrics`), record value
//! sizes in bytes (`SketchSet`), and the registry's concurrent series
//! (`Histogram::merge_from`) all count into this bucket scheme.
//!
//! 64 power-of-two buckets: bucket 0 holds exact zeros, bucket `b`
//! (b >= 1) holds values in `[2^(b-1), 2^b)`. That gives ~2x resolution
//! over the whole `u64` range at a fixed 528-byte footprint, so one
//! histogram can live inside every `FlowletMetrics` and every sketch
//! without anyone noticing. [`fmt_us`] prints its microsecond values.

use std::time::Duration;

const BUCKETS: usize = 64;

/// Bucket count shared with the registry's concurrent histograms so
/// a `Log2Hist` merges into a registry series loss-free.
pub(crate) const HIST_BUCKETS: usize = BUCKETS;

/// A mergeable log2 histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

#[inline]
pub(crate) fn bucket_of(us: u64) -> usize {
    // Zero has 64 leading zeros, so it lands in bucket 0 unbranched.
    (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, used as its representative value.
#[inline]
pub(crate) fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// The crate's one duration format, for microseconds: whole
/// microseconds below 10 ms, then milliseconds, then seconds, one
/// decimal each — always a single whitespace-free token.
pub fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

impl Log2Hist {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Record `n` copies of `v` — a bucket of a scraped histogram.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Record a `Duration` in microseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)` (0 when empty). Because buckets are powers of
    /// two, the result is within 2x of the true quantile, and monotone
    /// in `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Raw per-bucket counts, for export into the registry.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket-wise sum: exact, associative, commutative.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = Log2Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.50), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_are_monotonic_and_bound_samples() {
        let mut h = Log2Hist::new();
        for us in [1u64, 2, 3, 10, 100, 1000, 10_000, 100_000] {
            h.record(us);
        }
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p50 of samples up to 100k must be >= the 4th sample (10 µs)
        // and the p99 bucket must contain the max sample.
        assert!(p50 >= 10);
        assert!(p99 >= 100_000);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn quantile_within_2x_of_exact() {
        let mut h = Log2Hist::new();
        for _ in 0..1000 {
            h.record(700);
        }
        let p50 = h.quantile(0.50);
        // 700 lands in [512, 1024); upper bound 1023 is < 2x of 700.
        assert!((700..1400).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        for us in [5u64, 50, 500] {
            a.record(us);
        }
        for us in [7u64, 70] {
            b.record(us);
        }
        let mut whole = Log2Hist::new();
        for us in [5u64, 50, 500, 7, 70] {
            whole.record(us);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 632);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_us(999), "999us");
        assert_eq!(fmt_us(52_000), "52.0ms");
        assert_eq!(fmt_us(12_000_000), "12.0s");
    }

    #[test]
    fn record_n_is_n_records() {
        let (mut once, mut each) = (Log2Hist::new(), Log2Hist::new());
        once.record_n(700, 3);
        (0..3).for_each(|_| each.record(700));
        assert_eq!(once, each);
    }

    #[test]
    fn record_duration_converts_to_us() {
        let mut h = Log2Hist::new();
        h.record_duration(Duration::from_millis(3));
        assert_eq!(h.sum(), 3000);
        assert_eq!(h.count(), 1);
    }
}
