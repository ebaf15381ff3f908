//! Property tests for node-map invariants: the soft-state rules every map
//! operation must preserve (bounded size, no duplicates, head preservation,
//! never-empty filtering).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir_repro::namespace::ServerId;
use terradir_repro::protocol::{NodeMap, NODE_MAP_CAP};

/// Up to `NODE_MAP_CAP` host ids, duplicates allowed: a map holds at most
/// that many distinct hosts.
fn arb_map() -> impl Strategy<Value = NodeMap> {
    proptest::collection::vec(0u32..64, 1..NODE_MAP_CAP + 1)
        .prop_map(|ids| NodeMap::from_entries(ids.into_iter().map(ServerId)))
}

fn no_dups(m: &NodeMap) -> bool {
    let mut v = m.entries().to_vec();
    v.sort_unstable();
    v.dedup();
    v.len() == m.len()
}

proptest! {
    #[test]
    fn from_entries_never_duplicates(m in arb_map()) {
        prop_assert!(no_dups(&m));
        prop_assert!(!m.is_empty());
    }

    #[test]
    fn merge_respects_bound_and_heads(
        a in arb_map(),
        b in arb_map(),
        r_map in 1usize..8,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = a.merge(&b, r_map, &mut rng);
        prop_assert!(m.len() <= r_map);
        prop_assert!(no_dups(&m));
        // Every result entry came from one of the inputs.
        for &h in m.entries() {
            prop_assert!(a.contains(h) || b.contains(h));
        }
        // The freshest advertisement of each side survives while the bound
        // allows.
        if r_map >= 2 {
            let ha = a.entries()[0];
            let hb = b.entries()[0];
            prop_assert!(m.contains(ha) || m.contains(hb));
            if ha != hb {
                prop_assert!(m.contains(ha) && m.contains(hb));
            }
        }
    }

    #[test]
    fn merge_never_empty(a in arb_map(), b in arb_map(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(!a.merge(&b, 1, &mut rng).is_empty());
    }

    #[test]
    fn advertise_front_and_bound(m in arb_map(), host in 0u32..128, r_map in 1usize..8) {
        let mut m = m;
        m.advertise(ServerId(host), r_map);
        prop_assert_eq!(m.entries()[0], ServerId(host));
        prop_assert!(m.len() <= r_map);
        prop_assert!(no_dups(&m));
    }

    #[test]
    fn filter_stale_never_empties(m in arb_map(), stale_mask in 0u64..u64::MAX) {
        let mut m = m;
        m.filter_stale(|h| stale_mask & (1 << (h.0 % 64)) != 0);
        prop_assert!(!m.is_empty());
        prop_assert!(no_dups(&m));
    }

    #[test]
    fn select_always_returns_an_entry(m in arb_map(), seed in 0u64..100, excl in 0u32..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = m.select(Some(ServerId(excl)), &mut rng).expect("non-empty map");
        prop_assert!(m.contains(sel));
        // Exclusion honored when alternatives exist.
        if m.len() > 1 || m.entries()[0] != ServerId(excl) {
            prop_assert_ne!(sel, ServerId(excl));
        }
    }

    #[test]
    fn select_avoiding_prefers_fresh_hosts(
        m in arb_map(),
        avoid in proptest::collection::vec(0u32..64, 0..6),
        seed in 0u64..100,
    ) {
        let avoid: Vec<ServerId> = avoid.into_iter().map(ServerId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = m.select_avoiding(&avoid, &mut rng).expect("non-empty map");
        prop_assert!(m.contains(sel));
        let any_fresh = m.entries().iter().any(|h| !avoid.contains(h));
        if any_fresh {
            prop_assert!(!avoid.contains(&sel));
        }
    }

    #[test]
    fn remove_respects_last_entry_guard(m in arb_map(), victim in 0u32..64) {
        let mut m2 = m;
        m2.remove(ServerId(victim), false);
        prop_assert!(!m2.is_empty());
        let mut m3 = m;
        m3.remove(ServerId(victim), true);
        prop_assert!(!m3.contains(ServerId(victim)));
    }
}
