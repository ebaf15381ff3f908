//! Property tests for the runtime invariant auditors (`terradir::invariants`):
//! whole simulated systems under randomized configurations, workloads, and
//! failure injection must audit clean at every checkpoint — during the run,
//! at the end, and after draining in-flight traffic.

use proptest::prelude::*;

use terradir_repro::namespace::{balanced_tree, ServerId};
use terradir_repro::protocol::{invariants, Config, System};
use terradir_repro::workload::StreamPlan;

fn arb_cfg() -> impl Strategy<Value = Config> {
    (
        2u32..5,    // log2 servers → 4..16
        0u64..1000, // seed
        prop_oneof![
            Just((false, false, false)), // B
            Just((true, false, true)),   // BC (+ digests)
            Just((true, true, true)),    // BCR
        ],
        0.25f64..3.0, // r_fact
        2usize..7,    // r_map
        0usize..48,   // cache_slots (0 = degenerate: caching on, no slots)
    )
        .prop_map(
            |(logn, seed, (caching, replication, digests), r_fact, r_map, slots)| {
                let mut cfg = Config::paper_default(1 << logn).with_seed(seed);
                cfg.caching = caching;
                cfg.replication = replication;
                cfg.digests = digests;
                cfg.r_fact = r_fact;
                cfg.r_map = r_map;
                cfg.cache_slots = slots;
                cfg
            },
        )
}

fn arb_plan() -> impl Strategy<Value = (StreamPlan, f64)> {
    prop_oneof![
        (10.0f64..25.0, 20.0f64..150.0).prop_map(|(d, r)| (StreamPlan::unif(d), r)),
        (0.5f64..1.6, 10.0f64..25.0, 20.0f64..150.0)
            .prop_map(|(o, d, r)| (StreamPlan::uzipf(o, d), r)),
    ]
}

proptest! {
    // Whole-system property runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fleet audits clean at checkpoints throughout a run and after
    /// the drain: no map over `R_map`, no replica budget breach, no cache
    /// overflow, no digest false negative — under B, BC, and BCR alike.
    #[test]
    fn system_audits_clean_throughout((plan, rate) in arb_plan(), cfg in arb_cfg()) {
        let dur = plan.total_duration();
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, plan, rate);
        let mut t = 0.0;
        while t < dur {
            t += dur / 4.0;
            sys.run_until(t);
            let v = sys.audit();
            prop_assert!(v.is_empty(), "mid-run violations at t={}: {:?}", sys.now(), v);
        }
        sys.set_injection(false);
        sys.run_until(dur + 30.0);
        let v = sys.audit();
        prop_assert!(v.is_empty(), "post-drain violations: {:?}", v);
    }

    /// Failing servers mid-run must not corrupt the survivors' state: the
    /// audit (which skips failed servers) stays clean before and after the
    /// fleet reroutes around the losses.
    #[test]
    fn audit_survives_failure_injection(
        (plan, rate) in arb_plan(),
        cfg in arb_cfg(),
        kills in 1usize..4,
    ) {
        let dur = plan.total_duration();
        let n = cfg.n_servers;
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, plan, rate);
        sys.run_until(dur / 2.0);
        for k in 0..kills.min(n as usize - 1) {
            sys.fail_server(ServerId((k as u32 * 7 + 1) % n));
        }
        sys.run_until(dur);
        sys.set_injection(false);
        sys.run_until(dur + 30.0);
        let v = sys.audit();
        prop_assert!(v.is_empty(), "violations after failures: {:?}", v);
    }

    /// The per-server checkers agree with the aggregate: a clean system
    /// reports clean through `audit_server` on every live server too.
    #[test]
    fn per_server_checkers_match_aggregate((plan, rate) in arb_plan(), cfg in arb_cfg()) {
        let dur = plan.total_duration();
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, plan, rate);
        sys.run_until(dur);
        for s in sys.servers() {
            let v = invariants::audit_server(s);
            prop_assert!(v.is_empty(), "server violations: {:?}", v);
        }
    }
}
