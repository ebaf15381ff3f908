//! Integration tests for the extension features: failure injection, server
//! heterogeneity, and static replication bootstrap.

use terradir_repro::namespace::{balanced_tree, ServerId};
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

#[test]
fn failed_servers_lose_traffic_but_system_survives() {
    let ns = balanced_tree(2, 6);
    let cfg = Config::paper_default(16).with_seed(1);
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 60.0), 200.0);
    sys.run_until(20.0);
    assert_eq!(sys.failed_count(), 0);
    sys.fail_server(ServerId(3));
    sys.fail_server(ServerId(7));
    assert!(sys.is_failed(ServerId(3)));
    assert_eq!(sys.failed_count(), 2);
    let resolved_before = sys.stats().resolved;
    sys.run_until(50.0);
    let st = sys.stats();
    // Traffic keeps resolving after the failure.
    assert!(st.resolved > resolved_before + 1000);
    // Some loss is expected (nodes hosted only by the dead servers).
    assert!(st.drop_fraction() < 0.4);
    // Failing twice is idempotent.
    sys.fail_server(ServerId(3));
    assert_eq!(sys.failed_count(), 2);
}

#[test]
fn failure_detection_corrects_routing_over_time() {
    let ns = balanced_tree(2, 6);
    let cfg = Config::paper_default(16).with_seed(2);
    let rate = 150.0;
    let mut sys = System::new(ns, cfg, StreamPlan::unif(90.0), rate);
    sys.run_until(30.0);
    sys.fail_server(ServerId(0));
    sys.run_until(90.0);
    let bins = sys.stats().drops_per_sec.bins();
    // The residual loss (queries for nodes hosted only by the dead server)
    // is steady but bounded well below the dead server's ownership share
    // times two; and the late rate must not exceed the immediate
    // post-failure rate (corrections never make things worse).
    let first: u64 = bins[31..41].iter().sum();
    let late: u64 = bins[80..90].iter().sum();
    assert!(
        (late as f64) <= (first as f64) * 1.3 + 5.0,
        "drop rate grew after corrections: first {first}, late {late}"
    );
    assert!(
        (late as f64) < rate * 10.0 * 0.15,
        "residual loss too high: {late} drops in 10 s at λ={rate}"
    );
}

#[test]
fn heterogeneous_fleets_run_and_balance() {
    let ns = balanced_tree(2, 6);
    let mut cfg = Config::paper_default(16).with_seed(3);
    cfg.speed_spread = 4.0;
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 60.0), 120.0);
    sys.run_until(60.0);
    let st = sys.stats();
    assert!(st.resolve_fraction() > 0.8, "got {}", st.resolve_fraction());
    // Replication should have moved work around.
    assert!(st.replicas_created > 0);
}

#[test]
fn homogeneous_and_heterogeneous_runs_differ_only_by_speeds() {
    // Sanity: spread = 1.0 equals the default exactly (same seed).
    let run = |spread: f64| {
        let ns = balanced_tree(2, 5);
        let mut cfg = Config::paper_default(8).with_seed(4);
        cfg.speed_spread = spread;
        let mut sys = System::new(ns, cfg, StreamPlan::unif(10.0), 40.0);
        sys.run_until(10.0);
        (sys.stats().injected, sys.stats().latency.mean())
    };
    let (inj_a, lat_a) = run(1.0);
    let (inj_b, lat_b) = run(1.0);
    assert_eq!(inj_a, inj_b);
    assert_eq!(lat_a, lat_b);
}

#[test]
fn static_bootstrap_replicates_top_levels() {
    let ns = balanced_tree(2, 6);
    let mut cfg = Config::paper_default(16).with_seed(5);
    cfg.static_top_levels = 3;
    cfg.static_replicas_per_node = 4;
    let sys = System::new(ns, cfg, StreamPlan::unif(10.0), 10.0);
    // Nodes at depth 0..3 (1 + 2 + 4 = 7 nodes) each have 4 extra hosts.
    for node in sys.namespace().ids() {
        let depth = sys.namespace().depth(node);
        let hosts = sys.servers().filter(|s| s.hosts(node)).count();
        if depth < 3 {
            assert!(
                hosts >= 4,
                "top-level node {node} at depth {depth} has only {hosts} hosts"
            );
        } else {
            assert_eq!(hosts, 1, "deep node {node} should only have its owner");
        }
    }
}

#[test]
fn static_bootstrap_respects_replica_caps() {
    let ns = balanced_tree(2, 6);
    let mut cfg = Config::paper_default(16).with_seed(6);
    cfg.static_top_levels = 4;
    cfg.static_replicas_per_node = 8;
    let r_fact = cfg.r_fact;
    let sys = System::new(ns, cfg, StreamPlan::unif(5.0), 10.0);
    for s in sys.servers() {
        let cap = (r_fact * s.owned_count() as f64).floor() as usize;
        assert!(s.replica_count() <= cap);
    }
}

#[test]
fn static_digests_cover_bootstrap_replicas() {
    let ns = balanced_tree(2, 5);
    let mut cfg = Config::paper_default(8).with_seed(7);
    cfg.static_top_levels = 2;
    let sys = System::new(ns, cfg, StreamPlan::unif(5.0), 10.0);
    for s in sys.servers() {
        for n in s.replica_ids() {
            assert!(
                s.digest().test(sys.namespace().name(n).as_str()),
                "digest must cover static replica {n}"
            );
        }
    }
}
