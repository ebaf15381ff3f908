// Integration surface: panicking on unexpected state is the correct failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Property tests for the replicated object store (DESIGN.md §17):
//! the last-writer-wins merge must be a true join (idempotent,
//! commutative, associative, deterministic) so replicas converge
//! regardless of delivery order, and the durability accounting must be
//! exact — `objects_written == objects_alive + objects_lost` at every
//! scan — under randomized churn with gossip repair on or off.

use proptest::prelude::*;

use terradir_repro::namespace::{balanced_tree, ServerId};
use terradir_repro::protocol::{lww_merge, Config, GossipCulture, StoredObject, System};
use terradir_repro::workload::StreamPlan;

fn arb_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

fn arb_obj() -> impl Strategy<Value = StoredObject> {
    (1u64..1_000, 0u32..64, 0u32..1_000_000).prop_map(|(version, writer, payload)| StoredObject {
        version,
        writer: ServerId(writer),
        payload,
    })
}

proptest! {
    #[test]
    fn merge_is_idempotent(a in arb_obj()) {
        prop_assert_eq!(lww_merge(a, a), a);
    }

    #[test]
    fn merge_is_commutative(a in arb_obj(), b in arb_obj()) {
        prop_assert_eq!(lww_merge(a, b), lww_merge(b, a));
    }

    #[test]
    fn merge_is_associative(a in arb_obj(), b in arb_obj(), c in arb_obj()) {
        prop_assert_eq!(
            lww_merge(lww_merge(a, b), c),
            lww_merge(a, lww_merge(b, c))
        );
    }

    #[test]
    fn merge_is_deterministic_and_picks_an_input(a in arb_obj(), b in arb_obj()) {
        let m = lww_merge(a, b);
        prop_assert_eq!(m, lww_merge(a, b));
        prop_assert!(m == a || m == b, "merge invented an object: {m:?}");
        // The winner never has the lower version.
        prop_assert!(m.version >= a.version.min(b.version));
    }
}

fn storage_cfg(seed: u64, gossip: bool, quorum: bool, mean_uptime: f64) -> Config {
    let mut cfg = Config::paper_default(8).with_seed(seed);
    cfg.storage.enabled = true;
    cfg.storage.quorum_reads = quorum;
    cfg.gossip.enabled = gossip;
    cfg.gossip.culture = GossipCulture::Taciturn;
    cfg.churn.enabled = true;
    cfg.churn.mean_uptime = mean_uptime;
    cfg.churn.mean_downtime = 2.0;
    cfg.churn.stop = 20.0;
    cfg
}

proptest! {
    // Whole-system property runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The durability identity is exact at every scan — mid-run, at the
    /// end, and after draining — whether or not gossip repair runs, and the
    /// storage auditors stay clean throughout.
    #[test]
    fn durability_accounting_is_exact_under_churn(
        seed in 0u64..500,
        gossip in arb_bool(),
        quorum in arb_bool(),
        mean_uptime in 3.0f64..12.0,
    ) {
        let ns = balanced_tree(2, 5);
        let cfg = storage_cfg(seed, gossip, quorum, mean_uptime);
        let mut sys = System::new(ns, cfg, StreamPlan::unif(25.0), 30.0);
        let written = sys.stats().objects_written;
        prop_assert!(written > 0, "storage enabled must pre-seed objects");
        let mut t = 0.0;
        while t < 25.0 {
            t += 5.0;
            sys.run_until(t);
            let (alive, lost) = sys.measure_durability();
            prop_assert_eq!(written, alive + lost,
                "identity broken at t={}: {} != {} + {}", sys.now(), written, alive, lost);
            let v = sys.audit();
            prop_assert!(v.is_empty(), "storage audit violations at t={}: {v:?}", sys.now());
        }
        sys.set_injection(false);
        sys.run_until(40.0);
        let (alive, lost) = sys.measure_durability();
        prop_assert_eq!(written, alive + lost, "identity broken after drain");
        prop_assert_eq!(sys.stats().objects_written, written,
            "objects_written must be a constant of the run");
    }

    /// Every copy-level counter stays internally consistent: reads
    /// split exactly into successful and failed, and stale reads are a
    /// subset of the successes.
    #[test]
    fn read_accounting_is_consistent(
        seed in 0u64..500,
        quorum in arb_bool(),
    ) {
        let ns = balanced_tree(2, 5);
        let cfg = storage_cfg(seed, true, quorum, 6.0);
        let mut sys = System::new(ns, cfg, StreamPlan::unif(20.0), 30.0);
        sys.run_until(20.0);
        sys.set_injection(false);
        sys.run_until(35.0);
        let st = sys.stats();
        prop_assert!(st.stale_reads <= st.object_reads,
            "stale {} exceeds completed reads {}", st.stale_reads, st.object_reads);
        prop_assert!(st.object_reads + st.reads_failed > 0, "no reads completed at all");
    }
}
