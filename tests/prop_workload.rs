//! Property tests for the workload substrate: distributional laws and
//! determinism guarantees the experiments rely on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir_repro::workload::{
    derive_seed, ExpService, PoissonArrivals, PopularityRanking, QueryStream, StreamPlan,
    ZipfSampler,
};

proptest! {
    #[test]
    fn zipf_pmf_is_monotone_decreasing(n in 2usize..500, order in 0.0f64..2.0) {
        let z = ZipfSampler::new(n, order);
        for r in 1..n {
            prop_assert!(z.pmf(r - 1) >= z.pmf(r) - 1e-12);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..300, order in 0.0f64..2.0) {
        let z = ZipfSampler::new(n, order);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range(n in 1usize..100, order in 0.0f64..2.0, seed in 0u64..100) {
        let z = ZipfSampler::new(n, order);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn poisson_gaps_positive(rate in 0.1f64..1e5, seed in 0u64..100) {
        let p = PoissonArrivals::new(rate);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let g = p.next_gap(&mut rng);
            prop_assert!(g > 0.0 && g.is_finite());
        }
    }

    #[test]
    fn service_samples_positive(mean in 1e-4f64..10.0, seed in 0u64..100) {
        let s = ExpService::new(mean);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            prop_assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn ranking_stays_a_permutation_through_reshuffles(
        n in 1usize..200,
        shuffles in 0usize..5,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = PopularityRanking::random(n, &mut rng);
        for _ in 0..shuffles {
            r.reshuffle(&mut rng);
        }
        let mut seen = vec![false; n];
        for rank in 0..n {
            let node = r.node_at_rank(rank);
            prop_assert!(!seen[node.index()]);
            seen[node.index()] = true;
        }
        prop_assert_eq!(r.reshuffles(), shuffles as u64);
    }

    #[test]
    fn streams_are_seed_deterministic(
        seed in 0u64..1000,
        order in 0.5f64..1.5,
        n_nodes in 2usize..100,
    ) {
        let mk = || QueryStream::new(StreamPlan::uzipf(order, 10.0), n_nodes, 4, seed);
        let mut a = mk();
        let mut b = mk();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            prop_assert_eq!(a.next_query(t), b.next_query(t));
        }
    }

    #[test]
    fn derived_seeds_differ_across_tags(master in 0u64..u64::MAX, tag in 0u64..64) {
        prop_assert_ne!(derive_seed(master, tag), derive_seed(master, tag + 1));
    }

    #[test]
    fn plan_reshuffle_times_lie_inside_the_run(
        order in 0.5f64..2.0,
        warmup in 1.0f64..100.0,
        shifts in 1usize..6,
        seg in 1.0f64..100.0,
    ) {
        let plan = StreamPlan::adaptation(order, warmup, shifts, seg);
        let times = plan.reshuffle_times();
        prop_assert_eq!(times.len(), shifts);
        for (i, &t) in times.iter().enumerate() {
            prop_assert!((t - (warmup + i as f64 * seg)).abs() < 1e-9);
            prop_assert!(t < plan.total_duration());
        }
    }
}
