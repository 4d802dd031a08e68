//! Order statistics for small samples.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            median,
            q1,
            q3,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// Inter-quartile distance as a share of the median — the spread
    /// the bounds in `BENCHMARK.json` are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of an ascending slice, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is
/// what the driver applies to the per-run medians. A single value is
/// its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    assert!(len > 0, "quartiles of an empty sample");
    if len == 1 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // With two values Python's weight leaves [0, 1] and the
        // quartile extrapolates past the ends; clamp it so a quartile
        // never leaves [min, max]. From three values on they agree.
        let delta = ((i * (len + 1)) as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        sorted[j - 1] * (1.0 - delta) + sorted[j] * delta
    })
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Quantile `q` of a log2-bucketed histogram as the registry stores
/// them (`hamr_trace::HistSample::buckets`): bucket 0 holds zeros,
/// bucket `b` holds `[2^(b-1), 2^b)`. Interpolates inside the bucket.
pub fn log2_bucket_quantile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (b, &n) in buckets.iter().enumerate() {
        let next = seen + n as f64;
        if n > 0 && next >= target {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u64 << (b - 1)) as f64;
            return lo + lo * ((target - seen) / n as f64);
        }
        seen = next;
    }
    0.0
}
