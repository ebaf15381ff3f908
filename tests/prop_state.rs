//! Property tests for per-server state machinery: the load meter's busy
//! accounting, the LRU route cache checked against a reference model, and
//! meta-data version monotonicity.

use proptest::prelude::*;

use terradir_repro::namespace::{NodeId, ServerId};
use terradir_repro::protocol::{Meta, NodeMap, RouteCache};

proptest! {
    /// The windowed load meter conserves busy time: summing
    /// `measured × window` across all completed windows equals the total
    /// busy time recorded (for intervals fully inside the rolled horizon,
    /// without overlaps).
    #[test]
    fn load_meter_conserves_busy_time(gaps in proptest::collection::vec(0.01f64..0.4, 1..40)) {
        use terradir_repro::protocol::load::LoadMeter;
        let window = 0.5;
        let mut m = LoadMeter::new(window, 1.0);
        // Non-overlapping busy intervals: duration = half the gap.
        let mut t = 0.0;
        let mut total_busy = 0.0;
        let mut events = Vec::new();
        for g in gaps {
            let dur = g / 2.0;
            events.push((t, dur));
            total_busy += dur;
            t += g;
        }
        let horizon = (t / window).ceil() * window + window;
        let mut acc = 0.0;
        let mut next_window = window;
        let mut i = 0;
        while next_window <= horizon + 1e-9 {
            while i < events.len() && events[i].0 < next_window {
                m.record_busy(events[i].0, events[i].1);
                i += 1;
            }
            m.roll(next_window);
            acc += m.measured() * window;
            next_window += window;
        }
        prop_assert!((acc - total_busy).abs() < 1e-6,
            "accounted {acc} vs recorded {total_busy}");
    }

    /// The LRU cache behaves exactly like a reference model (ordered map
    /// with explicit recency) under arbitrary interleavings of insert,
    /// get, and remove.
    #[test]
    fn route_cache_matches_reference_model(
        ops in proptest::collection::vec((0u8..3, 0u32..12, 0u32..8), 1..200),
        slots in 1usize..6,
    ) {
        let mut cache = RouteCache::new(slots);
        // Reference: Vec of (node, host), most recently used last.
        let mut model: Vec<(u32, u32)> = Vec::new();
        for (op, node, host) in ops {
            match op {
                0 => {
                    // insert
                    cache.insert(NodeId(node), NodeMap::singleton(ServerId(host)), 0.0);
                    if let Some(pos) = model.iter().position(|&(n, _)| n == node) {
                        model.remove(pos);
                        model.push((node, host));
                    } else {
                        if model.len() >= slots {
                            model.remove(0); // evict LRU
                        }
                        model.push((node, host));
                    }
                }
                1 => {
                    // get (touches)
                    let got = cache.get(NodeId(node)).map(|m| m.entries()[0].0);
                    let expected = model.iter().position(|&(n, _)| n == node);
                    match (got, expected) {
                        (Some(h), Some(pos)) => {
                            prop_assert_eq!(h, model[pos].1);
                            let e = model.remove(pos);
                            model.push(e);
                        }
                        (None, None) => {}
                        other => prop_assert!(false, "divergence: {other:?}"),
                    }
                }
                _ => {
                    cache.remove(NodeId(node));
                    model.retain(|&(n, _)| n != node);
                }
            }
            prop_assert_eq!(cache.len(), model.len());
        }
        // Final content equality.
        for &(n, h) in &model {
            let m = cache.peek(NodeId(n)).expect("model says present");
            prop_assert_eq!(m.entries()[0], ServerId(h));
        }
    }

    /// Meta versions are monotone under any interleaving of set/remove/
    /// absorb, and absorb never lowers the version.
    #[test]
    fn meta_versions_are_monotone(
        ops in proptest::collection::vec((0u8..3, 0u8..4), 1..50),
    ) {
        let mut a = Meta::new();
        let mut b = Meta::new();
        let mut last_a = 0;
        for (op, key) in ops {
            let k = format!("k{key}");
            match op {
                0 => a.set_attr(&k, "v"),
                1 => { a.remove_attr(&k); }
                _ => { b.absorb(&a); }
            }
            prop_assert!(a.version() >= last_a);
            last_a = a.version();
            prop_assert!(b.version() <= a.version());
        }
        b.absorb(&a);
        prop_assert_eq!(b.version(), a.version());
        // Fully absorbed metas agree on attributes.
        let av: Vec<(String, String)> =
            a.iter().map(|(k, v)| (k.into(), v.into())).collect();
        let bv: Vec<(String, String)> =
            b.iter().map(|(k, v)| (k.into(), v.into())).collect();
        prop_assert_eq!(av, bv);
    }
}
