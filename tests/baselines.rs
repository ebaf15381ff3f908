//! The Fig. 5 ordering as an integration test: B ≥ BC ≥ BCR in drops on a
//! skewed workload, and the latency benefit of caching.

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn drops(cfg: Config, order: f64) -> (f64, f64) {
    let ns = balanced_tree(2, 6);
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(order, 40.0), 250.0);
    sys.run_until(40.0);
    let st = sys.stats();
    (st.drop_fraction(), st.hops.mean().unwrap_or(0.0))
}

#[test]
fn full_protocol_beats_both_baselines_under_skew() {
    let (b, _) = drops(Config::base_system(16).with_seed(1), 1.25);
    let (bc, _) = drops(Config::caching_only(16).with_seed(1), 1.25);
    let (bcr, _) = drops(Config::paper_default(16).with_seed(1), 1.25);
    assert!(bcr < b, "BCR {bcr} should beat B {b}");
    assert!(bcr < bc, "BCR {bcr} should beat BC {bc}");
    assert!(bcr < 0.2, "BCR must keep the system usable, got {bcr}");
    assert!(b > 0.3, "the base system should collapse, got {b}");
}

#[test]
fn caching_cuts_hops() {
    let (_, hops_b) = drops(Config::base_system(16).with_seed(2), 0.0);
    let (_, hops_bc) = drops(Config::caching_only(16).with_seed(2), 0.0);
    assert!(
        hops_bc < hops_b,
        "caching should shorten routes: {hops_bc} vs {hops_b}"
    );
}

#[test]
fn uniform_low_load_is_fine_for_everyone() {
    // At trivial utilization all three systems resolve everything — the
    // differences only appear under pressure.
    for cfg in [
        Config::base_system(8).with_seed(3),
        Config::caching_only(8).with_seed(3),
        Config::paper_default(8).with_seed(3),
    ] {
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, StreamPlan::unif(20.0), 10.0);
        sys.run_until(25.0);
        assert_eq!(sys.stats().dropped_total(), 0);
    }
}
