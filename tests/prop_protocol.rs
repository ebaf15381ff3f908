//! Property tests on protocol invariants driven through whole simulated
//! systems: conservation of queries, capacity bounds, owner authority, and
//! determinism, across random configurations and workloads.

use proptest::prelude::*;

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn arb_cfg() -> impl Strategy<Value = Config> {
    (
        2u32..5,    // log2 servers → 4..16
        0u64..1000, // seed
        prop_oneof![
            Just((true, true)),
            Just((true, false)),
            Just((false, false))
        ],
        0.25f64..3.0, // r_fact
        2usize..7,    // r_map
    )
        .prop_map(|(logn, seed, (caching, replication), r_fact, r_map)| {
            let mut cfg = Config::paper_default(1 << logn).with_seed(seed);
            cfg.caching = caching;
            cfg.replication = replication;
            cfg.digests = caching;
            cfg.r_fact = r_fact;
            cfg.r_map = r_map;
            cfg
        })
}

fn arb_plan() -> impl Strategy<Value = (StreamPlan, f64)> {
    prop_oneof![
        (10.0f64..30.0, 10.0f64..120.0).prop_map(|(d, r)| (StreamPlan::unif(d), r)),
        (0.5f64..1.6, 10.0f64..30.0, 10.0f64..120.0)
            .prop_map(|(o, d, r)| (StreamPlan::uzipf(o, d), r)),
    ]
}

proptest! {
    // Whole-system property runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn queries_are_conserved((plan, rate) in arb_plan(), cfg in arb_cfg()) {
        let dur = plan.total_duration();
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, plan, rate);
        sys.run_until(dur);
        // Stop injection and drain in-flight traffic.
        sys.set_injection(false);
        sys.run_until(dur + 30.0);
        let st = sys.stats();
        prop_assert_eq!(st.resolved + st.dropped_total(), st.injected);
    }

    #[test]
    fn replica_caps_always_hold((plan, rate) in arb_plan(), cfg in arb_cfg()) {
        let dur = plan.total_duration();
        let ns = balanced_tree(2, 5);
        let r_fact = cfg.r_fact;
        let mut sys = System::new(ns, cfg, plan, rate);
        sys.run_until(dur);
        for s in sys.servers() {
            let cap = (r_fact * s.owned_count() as f64).floor() as usize;
            prop_assert!(s.replica_count() <= cap);
        }
    }

    #[test]
    fn owners_never_lose_their_nodes((plan, rate) in arb_plan(), cfg in arb_cfg()) {
        let dur = plan.total_duration();
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, plan, rate);
        sys.run_until(dur);
        for n in sys.namespace().ids() {
            prop_assert!(sys.server(sys.owner_of(n)).hosts(n));
        }
    }

    #[test]
    fn runs_are_bit_deterministic(cfg in arb_cfg()) {
        let run = || {
            let ns = balanced_tree(2, 5);
            let mut sys = System::new(ns, cfg.clone(), StreamPlan::uzipf(1.0, 15.0), 60.0);
            sys.run_until(15.0);
            let st = sys.stats();
            (
                st.injected,
                st.resolved,
                st.dropped_total(),
                st.replicas_created,
                st.control_messages,
                st.latency.mean(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
