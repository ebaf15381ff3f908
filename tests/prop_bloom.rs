//! Property tests for the Bloom digest substrate: the one-sided-error
//! contract the whole map-pruning design rests on.

use proptest::prelude::*;

use terradir_repro::bloom::{BloomFilter, BloomParams, Digest, DigestBuilder};

proptest! {
    #[test]
    fn never_a_false_negative(
        items in proptest::collection::hash_set("[a-z0-9/]{1,24}", 1..200),
        fpr in 0.001f64..0.2,
        seed in 0u64..1000,
    ) {
        let mut f = BloomFilter::with_capacity(items.len(), fpr, seed);
        for it in &items {
            f.insert(it.as_bytes());
        }
        for it in &items {
            prop_assert!(f.contains(it.as_bytes()), "false negative for {it}");
        }
    }

    #[test]
    fn false_positive_rate_near_design(
        seed in 0u64..50,
    ) {
        let capacity = 500;
        let mut f = BloomFilter::with_capacity(capacity, 0.02, seed);
        for i in 0..capacity {
            f.insert(format!("/member/{i}").as_bytes());
        }
        let trials = 5_000;
        let fp = (0..trials)
            .filter(|i| f.contains(format!("/absent/{i}").as_bytes()))
            .count();
        let rate = fp as f64 / trials as f64;
        // Allow generous sampling slack over the 2% design point.
        prop_assert!(rate < 0.06, "rate {rate} for seed {seed}");
    }

    #[test]
    fn params_scale_with_capacity(cap in 1usize..10_000, fpr in 0.0001f64..0.1) {
        let p = BloomParams::for_capacity(cap, fpr, 0);
        prop_assert!(p.bits >= 64);
        prop_assert!(p.k >= 1);
        // More capacity at the same fpr needs at least as many bits.
        let p2 = BloomParams::for_capacity(cap * 2, fpr, 0);
        prop_assert!(p2.bits >= p.bits);
    }

    #[test]
    fn digest_generations_are_a_total_order(g1 in 0u64..100, g2 in 0u64..100) {
        let params = BloomParams::for_capacity(8, 0.01, 0);
        let d1 = DigestBuilder::new(params).seal(g1);
        let d2 = DigestBuilder::new(params).seal(g2);
        prop_assert_eq!(d1.is_superseded_by(&d2), g2 > g1);
        prop_assert_eq!(d2.is_superseded_by(&d1), g1 > g2);
    }

    #[test]
    fn digest_test_matches_filter(
        names in proptest::collection::hash_set("/[a-z]{1,6}(/[a-z]{1,6}){0,3}", 1..50),
    ) {
        let params = BloomParams::for_capacity(names.len(), 0.01, 7);
        let mut b = DigestBuilder::new(params);
        for n in &names {
            b.add(n);
        }
        let d: Digest = b.seal(1);
        for n in &names {
            prop_assert!(d.test(n));
        }
        prop_assert_eq!(d.items(), names.len());
    }
}
