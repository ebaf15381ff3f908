// Integration surface: panicking on unexpected state is the correct failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! End-to-end tests for partition faults, the scripted chaos-scenario
//! engine, and graceful degradation (DESIGN.md §13): group cuts sever
//! remote deliveries, scripted scenarios replay byte-identically from a
//! seed, the accounting identity survives partitions, and the shedding
//! policy splits drops cleanly from FIFO overflow.

use proptest::prelude::*;

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::stats::DropKind;
use terradir_repro::protocol::{ChaosAction, Config, CutWindow, ScenarioEvent, System};
use terradir_repro::workload::StreamPlan;

/// Worst-case retry chain at the defaults (1 + 2 + 4 + 8 s), padded for
/// delivery latency: any drain longer than this finalizes every token.
const DRAIN: f64 = 25.0;

fn partition_cfg(seed: u64, n_groups: u32) -> Config {
    let mut cfg = Config::paper_default(16).with_seed(seed);
    cfg.partitions.n_groups = n_groups;
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

#[test]
fn cut_severs_cross_group_traffic_and_heals() {
    let mut cfg = partition_cfg(7, 4);
    cfg.partitions.cuts = vec![CutWindow {
        start: 5.0,
        stop: 12.0,
        groups: vec![0],
    }];
    cfg.validate().unwrap();
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 20.0), 200.0);
    let st = sys.stats();
    assert_eq!(st.cuts_applied, 1);
    assert_eq!(st.heals_applied, 1);
    assert!(st.messages_cut > 0, "no delivery ever crossed the cut");
    assert!(st.dropped_partition > 0 || st.attempts_lost_partition > 0);
    assert!(!sys.cut_active(), "cut must be healed after its window");
    assert_eq!(
        st.resolved + st.dropped_total(),
        st.injected,
        "accounting must stay exact with partitions active"
    );
    assert!(sys.audit().is_empty());
    // The isolated quarter of the fleet (the sticky minority) saw worse
    // availability over the whole run than the connected majority.
    let min_av: f64 = st.availability_minority().iter().sum::<f64>()
        / st.availability_minority().len().max(1) as f64;
    let maj_av: f64 = st.availability_majority().iter().sum::<f64>()
        / st.availability_majority().len().max(1) as f64;
    assert!(
        min_av < maj_av,
        "minority availability {min_av} should trail majority {maj_av}"
    );
}

#[test]
fn full_scenario_replays_byte_identically() {
    let run = || {
        let mut cfg = partition_cfg(11, 4);
        cfg.shedding = true;
        cfg.scenario.events = vec![
            ScenarioEvent {
                at: 3.0,
                action: ChaosAction::Cut { groups: vec![1] },
            },
            ScenarioEvent {
                at: 7.0,
                action: ChaosAction::CorrelatedCrash { fraction: 0.25 },
            },
            ScenarioEvent {
                at: 9.0,
                action: ChaosAction::Heal,
            },
            ScenarioEvent {
                at: 10.0,
                action: ChaosAction::Recover,
            },
            ScenarioEvent {
                at: 12.0,
                action: ChaosAction::FlashCrowd {
                    node: 30,
                    rate_multiplier: 5.0,
                },
            },
            ScenarioEvent {
                at: 15.0,
                action: ChaosAction::FlashCrowd {
                    node: 30,
                    rate_multiplier: 1.0,
                },
            },
        ];
        cfg.validate().unwrap();
        let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 18.0), 150.0);
        format!("{:?}", sys.stats())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seed + scenario must replay identically");
    assert!(a.contains("scenario_crashes: 4"), "stats: {a}");
}

proptest! {
    // Whole-system property runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The accounting identity holds exactly with a cut opening and
    /// healing mid-run, with and without the retry layer.
    #[test]
    fn accounting_is_exact_across_cuts(
        seed in 0u64..1000,
        retry_flag in 0u8..2,
        rate in 50.0f64..200.0,
    ) {
        let mut cfg = partition_cfg(seed, 2);
        cfg.retry.enabled = retry_flag == 1;
        cfg.partitions.cuts = vec![CutWindow { start: 3.0, stop: 8.0, groups: vec![1] }];
        let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 12.0), rate);
        let st = sys.stats();
        prop_assert!(st.injected > 0);
        prop_assert!(st.messages_cut > 0);
        prop_assert_eq!(
            st.resolved + st.dropped_total(),
            st.injected,
            "resolved {} + dropped {} != injected {}",
            st.resolved, st.dropped_total(), st.injected
        );
        let v = sys.audit();
        prop_assert!(v.is_empty(), "violations: {:?}", v);
    }
}

#[test]
fn queue_capacity_zero_with_shedding_sheds_everything() {
    let mut cfg = partition_cfg(3, 1);
    cfg.queue_capacity = 0;
    cfg.shedding = true;
    cfg.validate().unwrap();
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 5.0), 100.0);
    let st = sys.stats();
    assert!(st.injected > 0);
    assert_eq!(st.resolved, 0, "a zero-capacity fleet resolves nothing");
    assert_eq!(st.dropped_queue, 0, "shedding replaces FIFO overflow");
    assert!(st.dropped_shed > 0);
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
}

#[test]
fn single_group_partition_cut_is_a_noop() {
    let baseline = {
        let cfg = partition_cfg(5, 1);
        run_and_drain(cfg, StreamPlan::uzipf(1.0, 10.0), 100.0)
    };
    let cut = {
        let mut cfg = partition_cfg(5, 1);
        cfg.partitions.cuts = vec![CutWindow {
            start: 2.0,
            stop: 6.0,
            groups: vec![0],
        }];
        cfg.validate().unwrap();
        run_and_drain(cfg, StreamPlan::uzipf(1.0, 10.0), 100.0)
    };
    // One group means the "cut" covers the whole fleet: the reachability
    // relation is untouched, nothing is severed, and traffic outcomes
    // are identical to the baseline.
    assert_eq!(cut.stats().cuts_applied, 1);
    assert_eq!(cut.stats().messages_cut, 0);
    assert_eq!(cut.stats().dropped_partition, 0);
    assert_eq!(cut.stats().resolved, baseline.stats().resolved);
    assert_eq!(cut.stats().injected, baseline.stats().injected);
}

#[test]
fn cut_naming_every_group_is_a_noop() {
    let mut cfg = partition_cfg(9, 4);
    cfg.partitions.cuts = vec![CutWindow {
        start: 2.0,
        stop: 6.0,
        groups: vec![0, 1, 2, 3],
    }];
    cfg.validate().unwrap();
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 10.0), 100.0);
    let st = sys.stats();
    assert_eq!(st.cuts_applied, 1);
    assert_eq!(st.messages_cut, 0, "an everything-side cut severs nothing");
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
}

#[test]
fn scenario_events_past_run_end_are_harmless() {
    let mut cfg = partition_cfg(13, 4);
    cfg.scenario.events = vec![
        ScenarioEvent {
            at: 1.0e6,
            action: ChaosAction::Cut { groups: vec![0] },
        },
        ScenarioEvent {
            at: 2.0e6,
            action: ChaosAction::CorrelatedCrash { fraction: 1.0 },
        },
    ];
    cfg.validate().unwrap();
    let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 8.0), 100.0);
    let st = sys.stats();
    assert_eq!(st.cuts_applied, 0, "events past run end never fire");
    assert_eq!(st.scenario_crashes, 0);
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
    assert!(sys.audit().is_empty());
}

#[test]
fn shed_and_overflow_drops_never_mix() {
    for shed in [true, false] {
        let mut cfg = partition_cfg(17, 1);
        cfg.queue_capacity = 2;
        cfg.shedding = shed;
        // Saturate the fleet so the full-queue path is exercised.
        let sys = run_and_drain(cfg, StreamPlan::uzipf(1.0, 6.0), 2000.0);
        let st = sys.stats();
        if shed {
            assert!(st.dropped_shed > 0, "overload must trigger shedding");
            assert_eq!(st.dropped_queue, 0, "shedding replaces FIFO overflow");
        } else {
            assert!(st.dropped_queue > 0, "overload must overflow the queue");
            assert_eq!(st.dropped_shed, 0, "no shed drops with shedding off");
        }
        assert_eq!(st.resolved + st.dropped_total(), st.injected);
    }
}

/// Every [`DropKind`] variant is accounted: the exhaustive match breaks
/// this test at compile time when a variant is added, and the xtask
/// exhaustiveness pass's `DropKind` rule requires each variant to be
/// named here, so the accounting identity can never silently lose a
/// drop class. Variants covered: DropKind::Queue, DropKind::Ttl,
/// DropKind::Stuck, DropKind::Timeout, DropKind::Lost, DropKind::Shed,
/// DropKind::Partition.
#[test]
fn drop_taxonomy_is_fully_accounted() {
    use terradir_repro::protocol::stats::RunStats;
    let kinds = [
        DropKind::Queue,
        DropKind::Ttl,
        DropKind::Stuck,
        DropKind::Timeout,
        DropKind::Lost,
        DropKind::Shed,
        DropKind::Partition,
    ];
    let mut st = RunStats::new(8);
    for &k in &kinds {
        st.on_lost(0.5, k, false, None);
    }
    assert_eq!(st.dropped_total(), kinds.len() as u64);
    for &k in &kinds {
        let field = match k {
            DropKind::Queue => st.dropped_queue,
            DropKind::Ttl => st.dropped_ttl,
            DropKind::Stuck => st.dropped_stuck,
            DropKind::Timeout => st.dropped_timeout,
            DropKind::Lost => st.dropped_lost,
            DropKind::Shed => st.dropped_shed,
            DropKind::Partition => st.dropped_partition,
        };
        assert_eq!(field, 1, "{k:?} must land in its own counter");
    }
}
