//! Poisson arrival process.

use rand::Rng;

/// A homogeneous Poisson arrival process with rate λ (events per second).
///
/// Inter-arrival gaps are exponential with mean `1/λ`, generated by inverse
/// transform (the scalability experiment scales λ with system size).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given rate in events/second.
    pub fn new(rate: f64) -> PoissonArrivals {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        PoissonArrivals { rate }
    }

    /// The current rate λ.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws the next inter-arrival gap in seconds.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform: −ln(U)/λ with U ∈ (0, 1].
        let u: f64 = 1.0 - rng.gen::<f64>(); // in (0, 1]
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_gap_matches_rate() {
        let p = PoissonArrivals::new(200.0);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 0.005).abs() < 0.0005,
            "mean gap {mean} should be ~1/200"
        );
    }

    #[test]
    fn gaps_are_positive_and_finite() {
        let p = PoissonArrivals::new(1.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let g = p.next_gap(&mut rng);
            assert!(g > 0.0 && g.is_finite());
        }
    }

    #[test]
    fn variance_matches_exponential() {
        // For Exp(λ), var = 1/λ². Check the CV ≈ 1.
        let p = PoissonArrivals::new(50.0);
        let mut rng = StdRng::seed_from_u64(6);
        let n = 100_000;
        let gaps: Vec<f64> = (0..n).map(|_| p.next_gap(&mut rng)).collect();
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "CV {cv} should be ~1");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        PoissonArrivals::new(0.0);
    }
}
