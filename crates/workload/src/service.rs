//! Exponential service-time distribution.

use rand::Rng;

/// Exponentially distributed per-query service times.
///
/// The paper's servers process queries with "service times … exponentially
/// distributed with a mean of 20 milliseconds" (§4.1). The mean is
/// configurable per server to model heterogeneity.
#[derive(Debug, Clone, Copy)]
pub struct ExpService {
    mean: f64,
}

impl ExpService {
    /// Creates a distribution with the given mean in seconds.
    pub fn new(mean_seconds: f64) -> ExpService {
        assert!(
            mean_seconds > 0.0 && mean_seconds.is_finite(),
            "mean must be positive"
        );
        ExpService { mean: mean_seconds }
    }

    /// The paper's default: 20 ms mean service time.
    pub fn paper_default() -> ExpService {
        ExpService::new(0.020)
    }

    /// Mean service time in seconds.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one service time in seconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() * self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_mean_converges() {
        let s = ExpService::paper_default();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.020).abs() < 0.001, "mean {mean} should be ~20ms");
    }

    #[test]
    fn samples_positive() {
        let s = ExpService::new(1.0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = s.sample(&mut rng);
            assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn memoryless_tail() {
        // P(X > mean) = 1/e for exponentials.
        let s = ExpService::new(0.020);
        let mut rng = StdRng::seed_from_u64(10);
        let n = 100_000;
        let over = (0..n).filter(|_| s.sample(&mut rng) > 0.020).count();
        let frac = over as f64 / n as f64;
        assert!((frac - (-1.0f64).exp()).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn rejects_nonpositive_mean() {
        ExpService::new(-1.0);
    }
}
