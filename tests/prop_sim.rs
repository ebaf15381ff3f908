//! Property tests for the DES kernel: event ordering is the bedrock of
//! reproducibility, so it gets model-checked against a sorted reference.

use proptest::prelude::*;

use terradir_repro::sim::{rolling_mean, BinnedCounter, Calendar, Engine, Histogram};

proptest! {
    #[test]
    fn calendar_matches_stable_sort_reference(
        times in proptest::collection::vec(0u32..1000, 1..200),
    ) {
        // Push payload = original index; popping must match a stable sort
        // by (time, insertion order).
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.push(t as f64, i);
        }
        let mut reference: Vec<(u32, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        reference.sort_by_key(|&(t, i)| (t, i));
        for (t, i) in reference {
            let (pt, pi) = cal.pop().expect("same number of events");
            prop_assert_eq!(pt, t as f64);
            prop_assert_eq!(pi, i);
        }
        prop_assert!(cal.is_empty());
    }

    #[test]
    fn engine_clock_is_monotone(times in proptest::collection::vec(0u32..1000, 1..100)) {
        let mut e = Engine::new();
        for &t in &times {
            e.schedule(t as f64, ());
        }
        let mut last = 0.0;
        while let Some(()) = e.pop() {
            prop_assert!(e.now() >= last);
            last = e.now();
        }
    }

    #[test]
    fn interleaved_scheduling_stays_ordered(
        rounds in proptest::collection::vec((0u32..100, 0u32..100), 1..50),
    ) {
        // Alternate pushes (relative delays) and pops; times popped must be
        // non-decreasing overall.
        let mut e = Engine::new();
        let mut last = 0.0;
        for &(d1, d2) in &rounds {
            e.schedule_in(d1 as f64, ());
            e.schedule_in(d2 as f64, ());
            if e.pop().is_some() {
                prop_assert!(e.now() >= last);
                last = e.now();
            }
        }
    }

    #[test]
    fn binned_counter_total_is_preserved(events in proptest::collection::vec(0.0f64..100.0, 0..200)) {
        let mut c = BinnedCounter::new(1.0);
        for &t in &events {
            c.record(t);
        }
        prop_assert_eq!(c.total() as usize, events.len());
        prop_assert_eq!(c.bins().iter().sum::<u64>() as usize, events.len());
    }

    #[test]
    fn histogram_quantiles_are_monotone(values in proptest::collection::vec(0.0f64..10.0, 1..200)) {
        let mut h = Histogram::new(10.0, 100);
        for &v in &values {
            h.record(v);
        }
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        prop_assert!(q25 <= q50 + 1e-9);
        prop_assert!(q50 <= q99 + 1e-9);
        prop_assert!(h.mean().unwrap() <= h.max().unwrap() + 1e-9);
        prop_assert!(h.min().unwrap() <= h.mean().unwrap() + 1e-9);
    }

    #[test]
    fn rolling_mean_is_bounded_by_input_range(
        series in proptest::collection::vec(0.0f64..1.0, 1..100),
        window in 1usize..20,
    ) {
        let out = rolling_mean(&series, window);
        prop_assert_eq!(out.len(), series.len());
        let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &v in &out {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
