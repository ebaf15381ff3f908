// Integration surface: panicking on unexpected state is the correct failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! End-to-end tests for the failure model and source-side reliability
//! layer (DESIGN.md §12): message loss, churn, retry/backoff, negative
//! caching, and the exact accounting identity `resolved + dropped ==
//! injected` that the drop taxonomy guarantees once in-flight traffic
//! (including the retry tail) has drained.

use proptest::prelude::*;

use terradir_repro::namespace::{balanced_tree, ServerId};
use terradir_repro::protocol::config::RETRY_MAX_ATTEMPTS;
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

/// Worst-case retry chain at the fixed backoff (1 + 2 + 4 + 8 s), padded
/// for delivery latency: any drain longer than this finalizes every token.
const DRAIN: f64 = 25.0;

fn reliability_cfg(seed: u64, loss: f64, retry_on: bool) -> Config {
    let mut cfg = Config::paper_default(16).with_seed(seed);
    cfg.faults.loss_prob = loss;
    cfg.faults.jitter = 0.01;
    cfg.retry.enabled = retry_on;
    cfg
}

/// Run to the plan's end, stop injection, and drain the retry tail.
fn run_and_drain(cfg: Config, plan: StreamPlan, rate: f64) -> System {
    let dur = plan.total_duration();
    let mut sys = System::new(balanced_tree(2, 5), cfg, plan, rate);
    sys.run_until(dur);
    sys.set_injection(false);
    sys.run_until(dur + DRAIN);
    sys
}

proptest! {
    // Whole-system property runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under bounded loss with retries enabled, every injected query is
    /// finalized exactly once: `resolved + dropped == injected` holds
    /// exactly after the drain, and the fleet audits clean.
    #[test]
    fn accounting_is_exact_under_loss(
        seed in 0u64..1000,
        loss in 0.0f64..0.05,
        rate in 30.0f64..100.0,
    ) {
        let cfg = reliability_cfg(seed, loss, true);
        let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 12.0), rate);
        let st = sys.stats();
        prop_assert!(st.injected > 0);
        prop_assert_eq!(
            st.resolved + st.dropped_total(),
            st.injected,
            "resolved {} + dropped {} != injected {}",
            st.resolved, st.dropped_total(), st.injected
        );
        let v = sys.audit();
        prop_assert!(v.is_empty(), "violations: {:?}", v);
    }

    /// Churn end-to-end: the fleet churns, heals, drains, and audits
    /// clean with exact accounting — and the churn actually happened.
    #[test]
    fn churn_drains_and_audits_clean(seed in 0u64..1000) {
        let mut cfg = reliability_cfg(seed, 0.02, true);
        cfg.churn.enabled = true;
        cfg.churn.start = 5.0;
        cfg.churn.stop = 20.0;
        cfg.churn.mean_uptime = 10.0;
        cfg.churn.mean_downtime = 3.0;
        cfg.churn.max_down_fraction = 0.5;
        let mut sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 25.0), 60.0);
        for i in 0..16 {
            sys.recover_server(ServerId(i));
        }
        let st = sys.stats();
        prop_assert!(st.churn_failures > 0, "no churn failures at seed {seed}");
        prop_assert!(st.churn_recoveries > 0, "no churn recoveries at seed {seed}");
        prop_assert_eq!(st.resolved + st.dropped_total(), st.injected);
        let v = sys.audit();
        prop_assert!(v.is_empty(), "violations: {:?}", v);
    }
}

/// At identical seed and scale under 5 % loss, the retry layer strictly
/// improves availability over the bare protocol, and the arrival stream
/// is unchanged by the reliability layer (faults draw from their own
/// RNG stream).
#[test]
fn retries_beat_no_retries_under_loss() {
    let run = |retry_on| {
        run_and_drain(
            reliability_cfg(7, 0.05, retry_on),
            StreamPlan::uzipf(1.0, 30.0),
            80.0,
        )
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.stats().injected, without.stats().injected);
    assert!(with.stats().retries > 0);
    assert_eq!(without.stats().retries, 0);
    assert!(
        with.stats().resolved > without.stats().resolved,
        "retries resolved {} <= bare {}",
        with.stats().resolved,
        without.stats().resolved
    );
    for sys in [&with, &without] {
        let st = sys.stats();
        assert_eq!(st.resolved + st.dropped_total(), st.injected);
    }
}

/// With retries off every query gets a single attempt: nothing is
/// re-issued and no timer is armed, so no drop is a `Timeout`. With
/// retries on (the fixed attempt budget), a lost attempt leaves the query
/// pending and only its timeout ends it, so every final drop is a
/// `Timeout`. Both regimes account exactly and audit clean.
#[test]
fn single_attempt_is_timeout_only() {
    let cfg = reliability_cfg(11, 0.1, false);
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 15.0), 60.0);
    let st = sys.stats();
    assert_eq!(st.retries, 0);
    assert_eq!(st.dropped_timeout, 0);
    assert!(st.injected > 0);
    assert!(st.dropped_total() > 0);
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
    assert!(sys.audit().is_empty());

    let cfg = reliability_cfg(11, 0.1, true);
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 15.0), 60.0);
    let st = sys.stats();
    assert!(st.retries > 0);
    assert!(st.dropped_timeout > 0);
    assert_eq!(st.dropped_total(), st.dropped_timeout);
    assert!(st.injected > 0);
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
    assert!(sys.audit().is_empty());
}

/// Total loss: every remote message is dropped. Queries that need the
/// network all time out; the accounting identity still holds exactly.
/// No attempt can succeed where the first failed, so each timed-out
/// query spent exactly the attempt budget: `RETRY_MAX_ATTEMPTS − 1`
/// retries apiece, and none for the locally resolved ones.
#[test]
fn total_loss_still_accounts_exactly() {
    let cfg = reliability_cfg(17, 1.0, true);
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 10.0), 40.0);
    let st = sys.stats();
    assert!(st.injected > 0);
    assert!(st.messages_lost > 0);
    assert!(st.dropped_timeout > 0);
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
    assert_eq!(
        st.retries,
        u64::from(RETRY_MAX_ATTEMPTS - 1) * st.dropped_timeout
    );
    assert!(sys.audit().is_empty());
}

/// Recovery is a cold rejoin: owned records survive, but all soft state
/// (replicas, cache, context) is gone, and the server resumes service.
#[test]
fn recover_resets_soft_state() {
    let cfg = reliability_cfg(5, 0.0, true);
    let victim = ServerId(3);
    let mut sys = System::new(balanced_tree(2, 5), cfg, StreamPlan::uzipf(1.0, 60.0), 80.0);
    sys.run_until(20.0);
    let owned_before = sys.server(victim).owned_count();
    sys.fail_server(victim);
    sys.run_until(25.0);
    sys.recover_server(victim);
    let s = sys.server(victim);
    assert_eq!(s.owned_count(), owned_before, "owned records must survive");
    assert_eq!(s.replica_count(), 0, "replicas are soft state");
    assert!(s.cache().is_empty(), "cache is soft state");
    assert!(!sys.is_failed(victim));
    // The rejoined server resumes service: the run continues, resolves
    // more queries, and the fleet audits clean.
    let resolved_before = sys.stats().resolved;
    sys.run_until(45.0);
    assert!(sys.stats().resolved > resolved_before);
    sys.set_injection(false);
    sys.run_until(45.0 + DRAIN);
    assert!(sys.audit().is_empty());
}

/// Observed transport failure feeds the negative cache: after a server
/// dies, survivors that witness the death evict it from their soft
/// state and remember it as dead (until the entry expires).
#[test]
fn negative_caching_observes_dead_hosts() {
    let cfg = reliability_cfg(3, 0.0, true);
    let victim = ServerId(1);
    let mut sys = System::new(
        balanced_tree(2, 5),
        cfg,
        StreamPlan::uzipf(1.0, 60.0),
        150.0,
    );
    sys.run_until(20.0);
    sys.fail_server(victim);
    sys.run_until(23.0);
    let st = sys.stats();
    assert!(st.negative_evictions > 0, "no host was marked dead");
    let witnesses = sys
        .servers()
        .filter(|s| s.is_negatively_cached(victim))
        .count();
    assert!(witnesses > 0, "no live server negatively cached the victim");
    assert!(sys.audit().is_empty());
}

/// The reliability layer preserves determinism: identical seeds produce
/// identical runs, including fault draws, retries, and churn.
#[test]
fn reliability_layer_is_deterministic() {
    let run = || {
        let mut cfg = reliability_cfg(23, 0.03, true);
        cfg.churn.enabled = true;
        cfg.churn.start = 5.0;
        cfg.churn.stop = 15.0;
        cfg.churn.mean_uptime = 8.0;
        cfg.churn.mean_downtime = 2.0;
        let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 20.0), 60.0);
        let st = sys.stats();
        (
            st.injected,
            st.resolved,
            st.dropped_total(),
            st.retries,
            st.messages_lost,
            st.negative_evictions,
            st.churn_failures,
            st.churn_recoveries,
        )
    };
    assert_eq!(run(), run());
}
