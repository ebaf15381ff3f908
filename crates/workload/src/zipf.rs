//! Zipf popularity sampling.
//!
//! The paper draws destinations "with locality according to the Zipf law of
//! popularity vs. ranking" for orders α ∈ {0.75, 1.00, 1.25, 1.50}: the
//! probability of the rank-`r` item (1-based) is proportional to `1/r^α`.

use rand::Rng;

/// A sampler over ranks `0..n` with Zipf(α) probabilities.
///
/// Precomputes the CDF once (O(n)) and samples by binary search
/// (O(log n)). α = 0 degenerates to the uniform distribution.
///
/// ```
/// use terradir_workload::ZipfSampler;
/// use rand::SeedableRng;
/// let z = ZipfSampler::new(1000, 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let r = z.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    order: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with the given order α ≥ 0.
    pub fn new(n: usize, order: f64) -> ZipfSampler {
        assert!(n >= 1, "need at least one rank");
        assert!(order >= 0.0 && order.is_finite(), "order must be ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(order);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Defend against rounding: the last entry must be exactly 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf, order }
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has a single rank (then it always returns 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // construction requires n >= 1
    }

    /// The Zipf order α.
    #[inline]
    pub fn order(&self) -> f64 {
        self.order
    }

    /// Probability mass of rank `r` (0-based); 0 for out-of-range ranks.
    pub fn pmf(&self, r: usize) -> f64 {
        let Some(&hi) = self.cdf.get(r) else {
            return 0.0;
        };
        let lo = if r == 0 {
            0.0
        } else {
            self.cdf.get(r - 1).copied().unwrap_or(0.0)
        };
        hi - lo
    }

    /// Draws a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the first
        // index whose CDF value is ≥ u — exactly inverse-CDF sampling.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(100, 1.25);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn order_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_order_concentrates_head() {
        let z1 = ZipfSampler::new(1000, 0.75);
        let z2 = ZipfSampler::new(1000, 1.5);
        assert!(z2.pmf(0) > z1.pmf(0));
        let head1: f64 = (0..10).map(|r| z1.pmf(r)).sum();
        let head2: f64 = (0..10).map(|r| z2.pmf(r)).sum();
        assert!(head2 > head1);
    }

    #[test]
    fn zipf_ratio_law_holds() {
        // P(1)/P(2) = 2^α (1-based ranks).
        let z = ZipfSampler::new(100, 1.0);
        let ratio = z.pmf(0) / z.pmf(1);
        assert!((ratio - 2.0).abs() < 1e-9);
        let z = ZipfSampler::new(100, 1.5);
        let ratio = z.pmf(0) / z.pmf(1);
        assert!((ratio - 2.0f64.powf(1.5)).abs() < 1e-9);
    }

    #[test]
    fn sample_matches_pmf_empirically() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 200_000;
        let mut counts = [0u32; 50];
        for _ in 0..trials {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 5, 20] {
            let observed = counts[r] as f64 / trials as f64;
            let expected = z.pmf(r);
            assert!(
                (observed - expected).abs() < 0.01 + expected * 0.1,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn samples_cover_full_range() {
        let z = ZipfSampler::new(8, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
