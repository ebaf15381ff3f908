//! Integration tests of §2.1's hierarchical query decomposition: complex
//! (subtree) searches executed as sequences of List lookups.

use std::time::Duration;

use terradir_repro::namespace::{balanced_tree, from_paths, NodeId, ServerId};
use terradir_repro::net::{Runtime, RuntimeConfig};
use terradir_repro::protocol::Config;

#[test]
fn list_query_returns_exact_children() {
    let ns = balanced_tree(2, 4);
    let rt = Runtime::start(
        ns,
        RuntimeConfig::fast(Config::paper_default(4).with_seed(1)),
    )
    .expect("start fleet");
    let root = NodeId(0);
    let expected: Vec<NodeId> = rt.namespace().children(root).to_vec();
    let id = rt.inject_list(ServerId(2), root).unwrap();
    rt.wait_resolved(1, Duration::from_secs(10)).unwrap();
    let mut got = rt.children_of(id).expect("listing recorded");
    got.sort_unstable();
    let mut expected = expected;
    expected.sort_unstable();
    assert_eq!(got, expected);
    rt.shutdown();
}

#[test]
fn subtree_walk_visits_every_descendant() {
    let ns = from_paths([
        "/projects/alpha/src/main.rs",
        "/projects/alpha/src/lib.rs",
        "/projects/alpha/README.md",
        "/projects/beta/notes.txt",
        "/archive/2003/report.pdf",
    ])
    .unwrap();
    let rt = Runtime::start(
        ns,
        RuntimeConfig::fast(Config::paper_default(4).with_seed(2)),
    )
    .expect("start fleet");
    let subtree_root = rt.namespace().lookup_str("/projects/alpha").unwrap();
    // Ground truth: every node whose name has /projects/alpha as prefix.
    let root_name = rt.namespace().name(subtree_root).clone();
    let mut expected: Vec<NodeId> = rt
        .namespace()
        .ids()
        .filter(|&n| root_name.is_ancestor_of(rt.namespace().name(n)))
        .collect();
    expected.sort_unstable();

    let mut visited = rt
        .walk_subtree(ServerId(1), subtree_root, 100, Duration::from_secs(30))
        .unwrap();
    visited.sort_unstable();
    assert_eq!(visited, expected);
    rt.shutdown();
}

#[test]
fn subtree_walk_respects_node_bound() {
    let ns = balanced_tree(2, 5); // 63 nodes
    let rt = Runtime::start(
        ns,
        RuntimeConfig::fast(Config::paper_default(4).with_seed(3)),
    )
    .expect("start fleet");
    let visited = rt
        .walk_subtree(ServerId(0), NodeId(0), 10, Duration::from_secs(30))
        .unwrap();
    assert_eq!(visited.len(), 10);
    rt.shutdown();
}

#[test]
fn leaf_listing_is_empty() {
    let ns = balanced_tree(2, 3);
    let rt = Runtime::start(
        ns,
        RuntimeConfig::fast(Config::paper_default(4).with_seed(4)),
    )
    .expect("start fleet");
    let leaf = rt
        .namespace()
        .ids()
        .find(|&n| rt.namespace().is_leaf(n))
        .unwrap();
    let id = rt.inject_list(ServerId(0), leaf).unwrap();
    rt.wait_resolved(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rt.children_of(id), Some(vec![]));
    rt.shutdown();
}
