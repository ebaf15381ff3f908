#![allow(
    clippy::expect_used,
    reason = "fixture helpers outside #[test] abort on a broken fixture"
)]

//! Property tests for the namespace substrate: the distance metric, LCA,
//! next-hop progress, and name parsing — on arbitrary random trees.

use proptest::prelude::*;

use terradir_repro::namespace::{
    ancestors, distance, from_paths, is_ancestor_or_self, lca, next_hop_toward, path_between,
    Namespace, NodeId, NodeName,
};

/// Strategy: a random tree described as a set of absolute paths with
/// bounded depth and fanout.
fn arb_namespace() -> impl Strategy<Value = Namespace> {
    proptest::collection::vec(
        proptest::collection::vec(0u8..4, 1..6), // one path: segments 0..4, depth 1..6
        1..40,
    )
    .prop_map(|paths| {
        let strings: Vec<String> = paths
            .iter()
            .map(|segs| {
                let mut s = String::new();
                for seg in segs {
                    s.push('/');
                    s.push((b'a' + seg) as char);
                }
                s
            })
            .collect();
        from_paths(strings.iter().map(std::string::String::as_str))
            .expect("generated paths are valid")
    })
}

fn arb_pair() -> impl Strategy<Value = (Namespace, NodeId, NodeId)> {
    arb_namespace().prop_flat_map(|ns| {
        let n = ns.len() as u32;
        (Just(ns), 0..n, 0..n).prop_map(|(ns, a, b)| (ns, NodeId(a), NodeId(b)))
    })
}

proptest! {
    #[test]
    fn distance_is_symmetric_and_zero_iff_equal((ns, a, b) in arb_pair()) {
        prop_assert_eq!(distance(&ns, a, b), distance(&ns, b, a));
        prop_assert_eq!(distance(&ns, a, b) == 0, a == b);
    }

    #[test]
    fn triangle_inequality((ns, a, b) in arb_pair(), c_seed in 0u32..1000) {
        let c = NodeId(c_seed % ns.len() as u32);
        prop_assert!(distance(&ns, a, b) <= distance(&ns, a, c) + distance(&ns, c, b));
    }

    #[test]
    fn lca_is_common_ancestor_and_deepest((ns, a, b) in arb_pair()) {
        let l = lca(&ns, a, b);
        prop_assert!(is_ancestor_or_self(&ns, l, a));
        prop_assert!(is_ancestor_or_self(&ns, l, b));
        // No child of l is an ancestor of both.
        for &c in ns.children(l) {
            prop_assert!(!(is_ancestor_or_self(&ns, c, a) && is_ancestor_or_self(&ns, c, b)));
        }
    }

    #[test]
    fn next_hop_makes_unit_progress((ns, a, b) in arb_pair()) {
        if a != b {
            let h = next_hop_toward(&ns, a, b);
            prop_assert_eq!(distance(&ns, h, b) + 1, distance(&ns, a, b));
            // The hop is a topological neighbor.
            prop_assert!(ns.parent(a) == Some(h) || ns.parent(h) == Some(a));
        }
    }

    #[test]
    fn path_between_is_consistent((ns, a, b) in arb_pair()) {
        let p = path_between(&ns, a, b);
        prop_assert_eq!(p.first(), Some(&a));
        prop_assert_eq!(p.last(), Some(&b));
        prop_assert_eq!(p.len() as u32, distance(&ns, a, b) + 1);
        // No repeated nodes on a tree path.
        let mut sorted: Vec<NodeId> = p.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), p.len());
    }

    #[test]
    fn ancestors_are_exactly_the_parent_chain((ns, a, _b) in arb_pair()) {
        let anc = ancestors(&ns, a);
        prop_assert_eq!(anc.len() as u16, ns.depth(a));
        let mut cur = a;
        for &x in &anc {
            prop_assert_eq!(ns.parent(cur), Some(x));
            cur = x;
        }
        if !anc.is_empty() {
            prop_assert_eq!(*anc.last().unwrap(), ns.root());
        }
    }

    #[test]
    fn name_round_trips_through_parse(segs in proptest::collection::vec("[a-z]{1,8}", 0..6)) {
        let mut s = String::from("/");
        s.push_str(&segs.join("/"));
        if segs.is_empty() { s = "/".into(); }
        let name = NodeName::parse(&s).expect("constructed name is valid");
        prop_assert_eq!(name.as_str(), s.as_str());
        prop_assert_eq!(name.depth(), segs.len());
        let back: Vec<&str> = name.segments().collect();
        prop_assert_eq!(back, segs.iter().map(std::string::String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn namespace_name_lookup_bijection(ns in arb_namespace()) {
        for id in ns.ids() {
            prop_assert_eq!(ns.lookup(ns.name(id)), Some(id));
        }
    }

    #[test]
    fn depth_matches_name_depth(ns in arb_namespace()) {
        for id in ns.ids() {
            prop_assert_eq!(ns.depth(id) as usize, ns.name(id).depth());
        }
    }
}
