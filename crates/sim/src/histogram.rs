//! Fixed-bucket histogram with quantiles.

/// A histogram over `[0, max)` with uniform buckets plus an overflow bucket.
///
/// Used for query-latency distributions: the paper reports mean latency in
/// hops/seconds (Fig. 9); we also keep the full distribution so EXPERIMENTS.md
/// can report tail percentiles.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max_seen: f64,
}

impl Histogram {
    /// A histogram with `n_buckets` uniform buckets covering `[0, max)`.
    pub fn new(max: f64, n_buckets: usize) -> Histogram {
        assert!(max > 0.0 && max.is_finite(), "max must be positive");
        assert!(n_buckets >= 1, "need at least one bucket");
        Histogram {
            bucket_width: max / n_buckets as f64,
            buckets: vec![0; n_buckets],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Records one observation (must be ≥ 0 and finite).
    pub fn record(&mut self, v: f64) {
        assert!(v >= 0.0 && v.is_finite(), "observation must be ≥ 0");
        let idx = (v / self.bucket_width) as usize;
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max_seen = self.max_seen.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max_seen)
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` (upper edge of the bucket holding
    /// the q-th observation; overflow reports the max seen).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i + 1) as f64 * self.bucket_width);
            }
        }
        Some(self.max_seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new(10.0, 10);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = Histogram::new(10.0, 10);
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_bracket_distribution() {
        let mut h = Histogram::new(100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((49.0..=52.0).contains(&median), "median was {median}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 98.0);
    }

    #[test]
    fn overflow_counts_and_uses_max() {
        let mut h = Histogram::new(1.0, 4);
        h.record(100.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn rejects_negative() {
        let mut h = Histogram::new(1.0, 1);
        h.record(-0.1);
    }
}
