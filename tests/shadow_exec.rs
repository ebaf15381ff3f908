// Integration surface: panicking on unexpected state is the correct failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Shadow-exec order-independence (DESIGN.md §20): stepping same-timestep
//! servers in a permuted (but deterministic) order must produce a
//! byte-identical run. This is the exact property a parallel executor
//! (parked under ROADMAP's "Deliberately not next") needs from the
//! compute half of every per-server sweep — phase 1 of Maintain, Sample,
//! and GossipRound touches only the stepped server's own context and
//! draws no shared randomness, so any schedule of it is equivalent to
//! the canonical one.

use terradir_repro::namespace::{balanced_tree, ServerId};
use terradir_repro::protocol::{Config, GossipCulture, System};
use terradir_repro::workload::StreamPlan;

/// Full-fidelity fingerprint: the complete Debug rendering of the run's
/// statistics (every counter, histogram, series, and the per-tag RNG
/// draw ledger) plus the summary JSON — byte-identical or bust.
fn run(shadow: Option<u64>) -> String {
    let ns = balanced_tree(2, 7); // 255 nodes
    let mut cfg = Config::paper_default(256).with_seed(42);
    // Exercise every permuted sweep: maintenance + sampling always run;
    // gossip's two-phase round needs gossip (and storage for the richer
    // peer pools); churn makes liveness vary between sweeps.
    cfg.storage.enabled = true;
    cfg.gossip.enabled = true;
    cfg.gossip.culture = GossipCulture::Hybrid;
    cfg.gossip.interval = 0.5;
    cfg.churn.enabled = true;
    cfg.churn.mean_uptime = 4.0;
    cfg.churn.mean_downtime = 1.5;
    cfg.churn.stop = 5.0;
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.2, 60.0), 120.0);
    sys.set_shadow_permutation(shadow);
    sys.run_until(6.0);
    format!("{:?}\n{}", sys.stats(), sys.stats().summary().to_json())
}

#[test]
fn permuted_sweep_order_is_byte_identical_at_seed_42() {
    let canonical = run(None);
    let shadowed = run(Some(0xDEAD_BEEF));
    assert_eq!(
        canonical, shadowed,
        "permuting the compute sweeps changed the run"
    );
    // A different permutation stream must also be identical: the result
    // is order-invariant, not merely stable for one lucky permutation.
    assert_eq!(canonical, run(Some(7)), "second permutation diverged");
}

#[test]
fn shadow_permutation_survives_mid_run_toggling() {
    let canonical = run(None);
    let toggled = {
        let ns = balanced_tree(2, 7);
        let mut cfg = Config::paper_default(256).with_seed(42);
        cfg.storage.enabled = true;
        cfg.gossip.enabled = true;
        cfg.gossip.culture = GossipCulture::Hybrid;
        cfg.gossip.interval = 0.5;
        cfg.churn.enabled = true;
        cfg.churn.mean_uptime = 4.0;
        cfg.churn.mean_downtime = 1.5;
        cfg.churn.stop = 5.0;
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.2, 60.0), 120.0);
        sys.run_until(2.0);
        sys.set_shadow_permutation(Some(99));
        sys.run_until(4.0);
        sys.set_shadow_permutation(None);
        sys.run_until(6.0);
        format!("{:?}\n{}", sys.stats(), sys.stats().summary().to_json())
    };
    assert_eq!(canonical, toggled, "mid-run toggle changed the run");
}

#[test]
fn shadow_permutation_keeps_the_audit_clean() {
    let ns = balanced_tree(2, 6);
    let mut cfg = Config::paper_default(64).with_seed(42);
    cfg.storage.enabled = true;
    cfg.gossip.enabled = true;
    let mut sys = System::new(ns, cfg, StreamPlan::unif(60.0), 80.0);
    sys.set_shadow_permutation(Some(1));
    sys.run_until(8.0);
    assert!(sys.audit().is_empty(), "{:?}", sys.audit());
    assert!(!sys.is_failed(ServerId(0)));
}
