//! Integration tests for the adaptive replication protocol under load.

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::oracle::{map_staleness, routing_accuracy, GlobalTruth};
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn hot_system(cfg: Config, rate: f64, until: f64) -> System {
    let ns = balanced_tree(2, 6); // 127 nodes
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.5, until), rate);
    sys.run_until(until);
    sys
}

#[test]
fn hot_spots_get_replicated_and_spread() {
    let sys = hot_system(Config::paper_default(16).with_seed(1), 300.0, 40.0);
    let st = sys.stats();
    assert!(st.replicas_created > 0);
    // The hottest node should be hosted by several servers by now.
    let mut max_hosts = 0;
    for n in sys.namespace().ids() {
        let hosts = sys.servers().filter(|s| s.hosts(n)).count();
        max_hosts = max_hosts.max(hosts);
    }
    assert!(
        max_hosts >= 3,
        "the Zipf-1.5 head should be replicated widely, max hosts {max_hosts}"
    );
}

#[test]
fn replica_caps_hold_under_sustained_pressure() {
    let sys = hot_system(Config::paper_default(16).with_seed(2), 400.0, 40.0);
    for s in sys.servers() {
        let cap = sys.config().replica_cap(s.owned_count());
        assert!(s.replica_count() <= cap);
    }
}

#[test]
fn tight_replication_factor_still_works() {
    let mut cfg = Config::paper_default(16).with_seed(3);
    cfg.r_fact = 0.25;
    let sys = hot_system(cfg, 300.0, 40.0);
    let st = sys.stats();
    // The system survives (resolves most queries) even with hardly any
    // replica budget.
    assert!(st.resolve_fraction() > 0.6, "got {}", st.resolve_fraction());
    for s in sys.servers() {
        assert!(s.replica_count() <= sys.config().replica_cap(s.owned_count()));
    }
}

#[test]
fn digest_pruning_keeps_maps_nearly_accurate_under_churn() {
    let mut cfg = Config::paper_default(16).with_seed(4);
    cfg.r_fact = 0.5; // force churn
    let sys = hot_system(cfg, 400.0, 40.0);
    let truth = GlobalTruth::from_system(&sys);
    let stale = map_staleness(&sys, &truth);
    assert!(
        stale.fraction() < 0.15,
        "stale fraction {} too high",
        stale.fraction()
    );
    let (checks, _, acc) = routing_accuracy(&sys);
    assert!(checks > 0);
    assert!(acc > 0.8, "accuracy {acc}");
}

#[test]
fn control_traffic_stays_marginal() {
    let sys = hot_system(Config::paper_default(16).with_seed(5), 300.0, 40.0);
    let st = sys.stats();
    assert!(
        st.control_messages * 5 < st.query_messages,
        "control {} vs query {}",
        st.control_messages,
        st.query_messages
    );
}

#[test]
fn replication_disabled_creates_nothing() {
    let sys = hot_system(Config::caching_only(16).with_seed(6), 300.0, 30.0);
    assert_eq!(sys.stats().replicas_created, 0);
    assert_eq!(sys.total_replicas(), 0);
    assert_eq!(sys.stats().sessions_started, 0);
}

#[test]
fn hysteresis_reduces_session_count() {
    let run = |hysteresis: bool| {
        let mut cfg = Config::paper_default(16).with_seed(7);
        cfg.hysteresis = hysteresis;
        hot_system(cfg, 300.0, 30.0).stats().sessions_completed
    };
    assert!(run(true) <= run(false));
}
