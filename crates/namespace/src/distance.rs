//! Namespace distance metric, lowest common ancestors, and tree paths.
//!
//! The TerraDir routing procedure guarantees *incremental progress*: each
//! forwarding step moves the query at least one unit closer to the
//! destination in the namespace distance metric. The metric is the length of
//! the unique tree path between two nodes:
//!
//! `d(a, b) = depth(a) + depth(b) − 2·depth(lca(a, b))`
//!
//! Both [`lca`] and [`distance`] run on the namespace's root-to-node path
//! table in O(log depth); the route decision calls [`distance`] once per
//! forwarding candidate, so this module is on the per-event hot path.

use crate::tree::{Namespace, NodeId};

/// Length of the common prefix of two root-to-node paths.
///
/// In a tree, two paths that agree at depth `d` agree at every depth above
/// it (a node has one ancestor per level), so "the entries at index `i`
/// match" is true up to the LCA's depth and false below it: a binary search
/// over `i` finds the boundary in O(log depth).
#[inline]
fn common_prefix(pa: &[NodeId], pb: &[NodeId]) -> usize {
    let (mut lo, mut hi) = (0, pa.len().min(pb.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pa.get(mid) == pb.get(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Lowest common ancestor of `a` and `b`.
///
/// Binary-searches the common prefix of the two nodes' root-to-node paths
/// in the namespace's path table: O(log depth) over two contiguous
/// slices, instead of walking parent pointers.
pub fn lca(ns: &Namespace, a: NodeId, b: NodeId) -> NodeId {
    let pa = ns.root_path(a);
    let k = common_prefix(pa, ns.root_path(b));
    // Both paths start at the root, so `k ≥ 1`.
    k.checked_sub(1)
        .and_then(|i| pa.get(i))
        .copied()
        .unwrap_or_else(|| ns.root())
}

/// Namespace distance between two nodes (number of tree edges on the unique
/// path between them).
///
/// ```
/// use terradir_namespace::{balanced_tree, distance};
/// let ns = balanced_tree(2, 3);
/// let a = ns.lookup_str("/0/0/0").unwrap();
/// let b = ns.lookup_str("/0/1").unwrap();
/// assert_eq!(distance(&ns, a, b), 3);
/// ```
#[inline]
pub fn distance(ns: &Namespace, a: NodeId, b: NodeId) -> u32 {
    let (pa, pb) = (ns.root_path(a), ns.root_path(b));
    // Path lengths are depth + 1 and the common prefix is depth(lca) + 1.
    (pa.len() + pb.len() - 2 * common_prefix(pa, pb)) as u32
}

/// Whether `anc` is an ancestor of `node` or the node itself.
pub fn is_ancestor_or_self(ns: &Namespace, anc: NodeId, node: NodeId) -> bool {
    let mut cur = node;
    loop {
        if cur == anc {
            return true;
        }
        match ns.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// The next node on the unique tree path from `from` towards `to`.
///
/// Panics if `from == to` (there is no next hop).
///
/// If `to` lies strictly below `from`, the next hop is the child of `from`
/// on the path; otherwise it is `from`'s parent. This is exactly the
/// neighbor a TerraDir host forwards through when it holds no better
/// (cached/replicated/digest) state.
pub fn next_hop_toward(ns: &Namespace, from: NodeId, to: NodeId) -> NodeId {
    assert_ne!(from, to, "no next hop from a node to itself");
    // Walk `to` upward until just below `from`'s depth+1 — if we land on a
    // child of `from`, that child is the next hop; otherwise go up.
    let df = ns.depth(from);
    let mut cur = to;
    let mut dc = ns.depth(cur);
    if dc > df {
        while dc > df + 1 {
            let Some(p) = ns.parent(cur) else { break };
            cur = p;
            dc -= 1;
        }
        if ns.parent(cur) == Some(from) {
            return cur;
        }
    }
    // `from != to` and `to` is not below `from`, so `from` cannot be the
    // root of a well-formed tree; fall back to `from` (a self-hop) only on
    // a corrupt topology, which the debug invariant auditor flags.
    ns.parent(from).unwrap_or(from)
}

/// All ancestors of `node` bottom-up, excluding the node, including the root.
pub fn ancestors(ns: &Namespace, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(ns.depth(node) as usize);
    let mut cur = ns.parent(node);
    while let Some(p) = cur {
        out.push(p);
        cur = ns.parent(p);
    }
    out
}

/// The full hop-by-hop path from `a` to `b`, inclusive of both endpoints.
///
/// The path goes up from `a` to `lca(a, b)` then down to `b`; its length
/// (in edges) equals [`distance`].
pub fn path_between(ns: &Namespace, a: NodeId, b: NodeId) -> Vec<NodeId> {
    let l = lca(ns, a, b);
    let mut up = Vec::new();
    let mut cur = a;
    while cur != l {
        up.push(cur);
        let Some(p) = ns.parent(cur) else { break };
        cur = p;
    }
    up.push(l);
    let mut down = Vec::new();
    cur = b;
    while cur != l {
        down.push(cur);
        let Some(p) = ns.parent(cur) else { break };
        cur = p;
    }
    up.extend(down.into_iter().rev());
    up
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{balanced_tree, coda_like, CodaParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference LCA: equalize depths, then walk both parent chains in
    /// lockstep (the pre-path-table implementation).
    fn lca_by_parent_walk(ns: &Namespace, mut a: NodeId, mut b: NodeId) -> NodeId {
        while ns.depth(a) > ns.depth(b) {
            a = ns.parent(a).unwrap();
        }
        while ns.depth(b) > ns.depth(a) {
            b = ns.parent(b).unwrap();
        }
        while a != b {
            a = ns.parent(a).unwrap();
            b = ns.parent(b).unwrap();
        }
        a
    }

    fn distance_by_parent_walk(ns: &Namespace, a: NodeId, b: NodeId) -> u32 {
        let l = lca_by_parent_walk(ns, a, b);
        u32::from(ns.depth(a)) + u32::from(ns.depth(b)) - 2 * u32::from(ns.depth(l))
    }

    fn assert_matches_reference(ns: &Namespace, a: NodeId, b: NodeId) {
        assert_eq!(lca(ns, a, b), lca_by_parent_walk(ns, a, b), "lca({a}, {b})");
        assert_eq!(
            distance(ns, a, b),
            distance_by_parent_walk(ns, a, b),
            "distance({a}, {b})"
        );
    }

    fn tc_tree() -> Namespace {
        let params = CodaParams {
            nodes: 3000,
            ..CodaParams::default()
        };
        coda_like(&params, &mut StdRng::seed_from_u64(42))
    }

    #[test]
    fn path_table_matches_parent_walk_on_all_pairs_of_a_balanced_tree() {
        let ns = balanced_tree(3, 4);
        for a in ns.ids() {
            assert_eq!(ns.root_path(a).len(), usize::from(ns.depth(a)) + 1);
            assert_eq!(ns.root_path(a).last(), Some(&a));
            for b in ns.ids() {
                assert_matches_reference(&ns, a, b);
            }
        }
    }

    #[test]
    fn path_table_matches_parent_walk_on_a_chain_deeper_than_64() {
        // A 100-deep chain with a side branch at every level: pairs span
        // every depth combination, including ancestor/descendant pairs.
        let mut ns = Namespace::new();
        let mut cur = ns.root();
        for _ in 0..100 {
            ns.add_child(cur, "side").unwrap();
            cur = ns.add_child(cur, "next").unwrap();
        }
        assert_eq!(ns.max_depth(), 100);
        for a in ns.ids() {
            for b in ns.ids() {
                assert_matches_reference(&ns, a, b);
            }
        }
    }

    #[test]
    fn out_of_range_ids_read_as_the_root() {
        let ns = balanced_tree(2, 3);
        let bogus = NodeId(ns.len() as u32 + 5);
        assert_eq!(ns.root_path(bogus), &[ns.root()]);
        let leaf = ns.lookup_str("/1/1/1").unwrap();
        assert_eq!(distance(&ns, bogus, leaf), 3);
        assert_eq!(lca(&ns, leaf, bogus), ns.root());
    }

    proptest! {
        #[test]
        fn path_table_matches_parent_walk_on_a_coda_like_tree(
            a in 0u32..3000,
            b in 0u32..3000,
        ) {
            let ns = tc_tree();
            let n = ns.len() as u32;
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            prop_assert_eq!(lca(&ns, a, b), lca_by_parent_walk(&ns, a, b));
            prop_assert_eq!(distance(&ns, a, b), distance_by_parent_walk(&ns, a, b));
        }
    }

    fn tiny() -> Namespace {
        // /a, /a/b, /a/c, /d
        let mut ns = Namespace::new();
        let a = ns.add_child(ns.root(), "a").unwrap();
        ns.add_child(a, "b").unwrap();
        ns.add_child(a, "c").unwrap();
        ns.add_child(ns.root(), "d").unwrap();
        ns
    }

    #[test]
    fn lca_basics() {
        let ns = tiny();
        let b = ns.lookup_str("/a/b").unwrap();
        let c = ns.lookup_str("/a/c").unwrap();
        let a = ns.lookup_str("/a").unwrap();
        let d = ns.lookup_str("/d").unwrap();
        assert_eq!(lca(&ns, b, c), a);
        assert_eq!(lca(&ns, b, d), ns.root());
        assert_eq!(lca(&ns, b, b), b);
        assert_eq!(lca(&ns, a, b), a);
    }

    #[test]
    fn distance_matches_paper_example() {
        // Paper §2.2.1: query from /a/b to /a/c routes /a/b → /a → /a/c.
        let ns = tiny();
        let b = ns.lookup_str("/a/b").unwrap();
        let c = ns.lookup_str("/a/c").unwrap();
        assert_eq!(distance(&ns, b, c), 2);
        assert_eq!(path_between(&ns, b, c).len(), 3);
    }

    #[test]
    fn distance_is_a_metric_on_small_tree() {
        let ns = balanced_tree(2, 4);
        let ids: Vec<_> = ns.ids().collect();
        for &x in &ids {
            assert_eq!(distance(&ns, x, x), 0);
            for &y in &ids {
                assert_eq!(distance(&ns, x, y), distance(&ns, y, x));
                for &z in &ids {
                    assert!(distance(&ns, x, z) <= distance(&ns, x, y) + distance(&ns, y, z));
                }
            }
        }
    }

    #[test]
    fn next_hop_descends_and_ascends() {
        let ns = tiny();
        let a = ns.lookup_str("/a").unwrap();
        let b = ns.lookup_str("/a/b").unwrap();
        let d = ns.lookup_str("/d").unwrap();
        assert_eq!(next_hop_toward(&ns, a, b), b);
        assert_eq!(next_hop_toward(&ns, b, d), a);
        assert_eq!(next_hop_toward(&ns, ns.root(), b), a);
        assert_eq!(next_hop_toward(&ns, d, ns.root()), ns.root());
    }

    #[test]
    fn next_hop_reduces_distance_by_one_everywhere() {
        let ns = balanced_tree(3, 3);
        let ids: Vec<_> = ns.ids().collect();
        for &x in &ids {
            for &y in &ids {
                if x == y {
                    continue;
                }
                let h = next_hop_toward(&ns, x, y);
                assert_eq!(distance(&ns, h, y) + 1, distance(&ns, x, y));
            }
        }
    }

    #[test]
    fn path_between_endpoints_and_length() {
        let ns = balanced_tree(2, 5);
        let a = ns.lookup_str("/0/1/0/1/0").unwrap();
        let b = ns.lookup_str("/1/0").unwrap();
        let p = path_between(&ns, a, b);
        assert_eq!(p.first(), Some(&a));
        assert_eq!(p.last(), Some(&b));
        assert_eq!(p.len() as u32, distance(&ns, a, b) + 1);
        // Consecutive path elements are tree neighbors.
        for w in p.windows(2) {
            assert!(ns.parent(w[0]) == Some(w[1]) || ns.parent(w[1]) == Some(w[0]));
        }
    }

    #[test]
    fn ancestor_predicate() {
        let ns = tiny();
        let a = ns.lookup_str("/a").unwrap();
        let b = ns.lookup_str("/a/b").unwrap();
        let d = ns.lookup_str("/d").unwrap();
        assert!(is_ancestor_or_self(&ns, a, b));
        assert!(is_ancestor_or_self(&ns, ns.root(), d));
        assert!(is_ancestor_or_self(&ns, b, b));
        assert!(!is_ancestor_or_self(&ns, b, a));
        assert!(!is_ancestor_or_self(&ns, d, b));
    }

    #[test]
    fn ancestors_walk_to_root() {
        let ns = tiny();
        let b = ns.lookup_str("/a/b").unwrap();
        let a = ns.lookup_str("/a").unwrap();
        assert_eq!(ancestors(&ns, b), vec![a, ns.root()]);
        assert!(ancestors(&ns, ns.root()).is_empty());
    }
}
