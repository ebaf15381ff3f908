// Integration surface: panicking on unexpected state is the correct failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Golden summaries: one short small-fleet run of each benchmark shape
//! (T_S adaptation, T_C Zipf, T_S storage + churn + gossip), plus one run
//! with every optional subsystem on (roles, tenants, leases, reconcile,
//! faults, heterogeneous speeds) and one with retries off so every loss
//! is a final drop (tenants, shedding, a partition cut, transport loss, a
//! flash crowd), pinned field for field.
//!
//! The route decision's speed work (rank-first candidate build, path-table
//! distance, Bloom-first denial lookups) is equivalent by construction:
//! it must not change a single forwarding choice or RNG draw. Any hop that
//! moves shows up here as a changed counter or draw count. The pinned
//! strings are `Summary::to_json()` with the allocation-ledger fields
//! stripped (allocations are what the speed work is allowed to change),
//! followed by the per-tag RNG draw ledger.
//!
//! A deliberate behaviour change (a new digest hash, say) re-pins these
//! values in the same change and says why.

use terradir_repro::namespace::{balanced_tree, coda_like, CodaParams, Namespace};
use terradir_repro::protocol::{
    ChaosAction, Config, CutWindow, GossipCulture, RunStats, ScenarioEvent, System, TenantSpec,
};
use terradir_repro::workload::{seed::tags, seeded_rng, StreamPlan};

/// Runs `window` simulated seconds of injection, then drains for `drain`.
fn drained(
    ns: Namespace,
    cfg: Config,
    plan: StreamPlan,
    rate: f64,
    window: f64,
    drain: f64,
) -> System {
    let mut sys = System::new(ns, cfg, plan, rate);
    sys.run_until(window);
    sys.set_injection(false);
    sys.run_until(window + drain);
    sys
}

/// The summary (allocation fields stripped) plus the draw ledger.
fn render(st: &RunStats) -> String {
    let json = st.summary().to_json();
    let (head, _alloc) = json
        .split_once(",\"alloc_events\"")
        .expect("summary ends with the allocation fields");
    format!("{head}}} draws={:?}", st.rng_draws)
}

/// [`drained`], rendered.
fn golden(
    ns: Namespace,
    cfg: Config,
    plan: StreamPlan,
    rate: f64,
    window: f64,
    drain: f64,
) -> String {
    render(drained(ns, cfg, plan, rate, window, drain).stats())
}

#[test]
fn ts_adaptation_summary_is_pinned() {
    // 64 servers × 8 nodes: the T_S tree of `ts-adapt-1024`, scaled down.
    let ns = balanced_tree(2, 8);
    let cfg = Config::paper_default(64).with_seed(1);
    let plan = StreamPlan::adaptation(1.25, 2.0, 2, 2.0);
    let got = golden(ns, cfg, plan, 800.0, 6.0, 6.0);
    assert_eq!(got, TS_ADAPT, "a routed hop or RNG draw changed");
}

#[test]
fn tc_zipf_summary_is_pinned() {
    // 64 servers × ~20 nodes of the Coda-like T_C tree (`tc-zipf-256`).
    let params = CodaParams {
        nodes: 1280,
        ..CodaParams::default()
    };
    let ns = coda_like(&params, &mut seeded_rng(42, tags::NAMESPACE));
    let cfg = Config::paper_default(64).with_seed(2);
    let got = golden(ns, cfg, StreamPlan::uzipf(1.0, 10.0), 1000.0, 5.0, 5.0);
    assert_eq!(got, TC_ZIPF, "a routed hop or RNG draw changed");
}

#[test]
fn ts_store_churn_summary_is_pinned() {
    // `ts-store-churn-256`'s protocol stack on 32 servers: BCR plus quorum
    // storage, churn, retries and taciturn gossip.
    let servers = 32u32;
    let window = 12.0;
    let mut cfg = Config::paper_default(servers).with_seed(3);
    cfg.retry.enabled = true;
    cfg.storage.enabled = true;
    cfg.storage.n_objects = 4 * servers;
    cfg.storage.replication_factor = 3;
    cfg.storage.quorum_reads = true;
    cfg.storage.write_rate = 0.5 * f64::from(servers);
    cfg.storage.read_rate = 0.5 * f64::from(servers);
    cfg.storage.read_timeout = 1.0;
    cfg.churn.enabled = true;
    cfg.churn.start = 0.1 * window;
    cfg.churn.stop = 0.8 * window;
    cfg.churn.mean_uptime = 6.0;
    cfg.churn.mean_downtime = 1.0;
    cfg.gossip.enabled = true;
    cfg.gossip.culture = GossipCulture::Taciturn;
    cfg.gossip.interval = 0.5;
    cfg.gossip.fanout = 3;
    cfg.gossip.window = cfg.storage.n_objects;
    let plan = StreamPlan::uzipf(1.0, window + 16.0);
    let got = golden(balanced_tree(2, 7), cfg, plan, 200.0, window, 16.0);
    assert_eq!(got, TS_STORE_CHURN, "a routed hop or RNG draw changed");
}

#[test]
fn subsystem_coverage_summary_is_pinned() {
    // The subsystems none of the benchmark shapes turns on, all at once
    // on a small fleet: roles and tenants, leases with use-refresh and
    // misroute NACKs, warm-rejoin reconcile, retries under transport loss
    // and jitter with churn, quorum storage, taciturn gossip and a
    // heterogeneous fleet. Every fixed protocol parameter is on some path
    // this run takes.
    let servers = 32u32;
    let window = 12.0;
    let mut cfg = Config::paper_default(servers).with_seed(4);
    cfg.speed_spread = 2.0;
    cfg.roles.enabled = true;
    cfg.tenants.enabled = true;
    cfg.tenants.specs = vec![
        TenantSpec {
            weight: 3.0,
            zipf_theta: 1.0,
            slo_availability: 0.99,
        },
        TenantSpec {
            weight: 1.0,
            zipf_theta: 0.0,
            slo_availability: 0.95,
        },
    ];
    cfg.leases.enabled = true;
    cfg.leases.ttl = 3.0;
    cfg.leases.misroute = true;
    cfg.reconcile.enabled = true;
    cfg.retry.enabled = true;
    cfg.faults.loss_prob = 0.02;
    cfg.faults.jitter = 0.01;
    cfg.churn.enabled = true;
    cfg.churn.start = 0.1 * window;
    cfg.churn.stop = 0.8 * window;
    cfg.churn.mean_uptime = 8.0;
    cfg.churn.mean_downtime = 1.0;
    cfg.storage.enabled = true;
    cfg.storage.n_objects = 2 * servers;
    cfg.storage.replication_factor = 3;
    cfg.storage.write_rate = 0.5 * f64::from(servers);
    cfg.storage.read_rate = 0.5 * f64::from(servers);
    cfg.storage.read_timeout = 1.0;
    cfg.gossip.enabled = true;
    cfg.gossip.culture = GossipCulture::Taciturn;
    cfg.gossip.interval = 0.5;
    cfg.validate().expect("coverage config must be valid");
    let plan = StreamPlan::uzipf(1.0, window + 16.0);
    let got = golden(balanced_tree(2, 7), cfg, plan, 300.0, window, 16.0);
    assert_eq!(got, SUBSYSTEMS, "a routed hop or RNG draw changed");
}

#[test]
fn final_drop_attribution_summary_is_pinned() {
    // Retries off, so every lost query is a final drop that must reach
    // its tenant's ledger: queries shed under a flash crowd, cut off by a
    // partition, and lost in transit. The cut also splits the fleet into
    // a minority and a majority side, so the per-side injection and
    // resolution series are pinned too; the summary alone carries
    // neither.
    let servers = 16u32;
    let window = 10.0;
    let ns = balanced_tree(2, 7);
    let hot = (ns.len() - 1) as u32;
    let mut cfg = Config::paper_default(servers).with_seed(5);
    cfg.tenants.enabled = true;
    cfg.tenants.specs = vec![
        TenantSpec {
            weight: 2.0,
            zipf_theta: 1.0,
            slo_availability: 0.99,
        },
        TenantSpec {
            weight: 1.0,
            zipf_theta: 0.0,
            slo_availability: 0.95,
        },
    ];
    cfg.shedding = true;
    cfg.faults.loss_prob = 0.02;
    cfg.partitions.n_groups = 4;
    cfg.partitions.cuts = vec![CutWindow {
        start: 3.0,
        stop: 6.0,
        groups: vec![1],
    }];
    let flash = |at, rate_multiplier| ScenarioEvent {
        at,
        action: ChaosAction::FlashCrowd {
            node: hot,
            rate_multiplier,
        },
    };
    cfg.scenario.events = vec![flash(4.0, 4.0), flash(7.0, 1.0)];
    cfg.validate().expect("attribution config must be valid");
    let plan = StreamPlan::uzipf(1.0, window + 8.0);
    let sys = drained(ns, cfg, plan, 150.0, window, 8.0);
    let st = sys.stats();
    let got = format!(
        "{} tenants={:?}/{:?}/{:?} minority={}/{} majority={}/{}",
        render(st),
        st.tenant_injected,
        st.tenant_resolved,
        st.tenant_dropped,
        st.injected_per_sec_minority.total(),
        st.resolved_per_sec_minority.total(),
        st.injected_per_sec_majority.total(),
        st.resolved_per_sec_majority.total(),
    );
    assert_eq!(got, FINAL_DROPS, "a drop's attribution or a draw changed");
}

const TS_ADAPT: &str = concat!(
    r#"{"injected":4690,"resolved":3694,"dropped":996,"#,
    r#""drop_fraction":0.212367,"latency_mean_s":0.527985,"#,
    r#""latency_p99_s":1.620000,"hops_mean":1.8032,"replicas_created":114,"#,
    r#""replicas_deleted":0,"sessions_completed":78,"control_messages":990,"#,
    r#""data_fetches_ok":0,"retries":0,"messages_lost":0,"churn_failures":0,"#,
    r#""churn_recoveries":0,"dropped_shed":0,"dropped_partition":0,"#,
    r#""messages_cut":0,"cuts_applied":0,"heals_applied":0,"#,
    r#""flash_injected":0,"misroutes":4,"detour_hops":9,"lease_evictions":0,"#,
    r#""reconcile_pushes":0,"objects_written":0,"objects_alive":0,"#,
    r#""objects_lost":0,"object_puts":0,"object_reads":0,"reads_failed":0,"#,
    r#""stale_reads":0,"bytes_on_wire":2040892,"#,
    r#""gossip_bytes":0,"query_messages":11676,"sessions_aborted":43,"#,
    r#""data_fetches_failed":0,"messages_to_dead":0,"attempts_lost_queue":0,"#,
    r#""attempts_lost_ttl":0,"attempts_lost_stuck":0,"attempts_lost_dead":0,"#,
    r#""attempts_lost_transport":0,"attempts_lost_shed":0,"#,
    r#""attempts_lost_partition":0,"scenario_crashes":0,"tenant_count":0,"#,
    r#""tenant_worst_availability":1.000000,"tenant_slo_misses":0,"#,
    r#""rng_draws":40894} draws=[0, 957, 4691, 4690, 16360, 1530, 7976, 4690,"#,
    r#" 0, 0, 0, 0]"#,
);
const TC_ZIPF: &str = concat!(
    r#"{"injected":5043,"resolved":2310,"dropped":2733,"#,
    r#""drop_fraction":0.541939,"latency_mean_s":0.500735,"#,
    r#""latency_p99_s":1.450000,"hops_mean":1.4844,"replicas_created":40,"#,
    r#""replicas_deleted":0,"sessions_completed":37,"control_messages":431,"#,
    r#""data_fetches_ok":0,"retries":0,"messages_lost":0,"churn_failures":0,"#,
    r#""churn_recoveries":0,"dropped_shed":0,"dropped_partition":0,"#,
    r#""messages_cut":0,"cuts_applied":0,"heals_applied":0,"#,
    r#""flash_injected":0,"misroutes":0,"detour_hops":0,"lease_evictions":0,"#,
    r#""reconcile_pushes":0,"objects_written":0,"objects_alive":0,"#,
    r#""objects_lost":0,"object_puts":0,"object_reads":0,"reads_failed":0,"#,
    r#""stale_reads":0,"bytes_on_wire":2106564,"#,
    r#""gossip_bytes":0,"query_messages":8408,"sessions_aborted":14,"#,
    r#""data_fetches_failed":0,"messages_to_dead":0,"attempts_lost_queue":0,"#,
    r#""attempts_lost_ttl":0,"attempts_lost_stuck":0,"attempts_lost_dead":0,"#,
    r#""attempts_lost_transport":0,"attempts_lost_shed":0,"#,
    r#""attempts_lost_partition":0,"scenario_crashes":0,"tenant_count":0,"#,
    r#""tenant_worst_availability":1.000000,"tenant_slo_misses":0,"#,
    r#""rng_draws":36270} draws=[0, 2495, 5044, 5043, 11149, 1279, 6217,"#,
    r#" 5043, 0, 0, 0, 0]"#,
);
const TS_STORE_CHURN: &str = concat!(
    r#"{"injected":2389,"resolved":2389,"dropped":0,"drop_fraction":0.000000,"#,
    r#""latency_mean_s":0.368658,"latency_p99_s":3.360000,"hops_mean":1.2265,"#,
    r#""replicas_created":19,"replicas_deleted":1,"sessions_completed":20,"#,
    r#""control_messages":8465,"data_fetches_ok":0,"retries":366,"#,
    r#""messages_lost":0,"churn_failures":35,"churn_recoveries":35,"#,
    r#""dropped_shed":0,"dropped_partition":0,"messages_cut":0,"#,
    r#""cuts_applied":0,"heals_applied":0,"flash_injected":0,"misroutes":28,"#,
    r#""detour_hops":28,"lease_evictions":0,"reconcile_pushes":0,"#,
    r#""objects_written":128,"objects_alive":124,"objects_lost":4,"#,
    r#""object_puts":170,"object_reads":173,"reads_failed":15,"#,
    r#""stale_reads":0,"bytes_on_wire":1531101,"#,
    r#""gossip_bytes":492545,"query_messages":5909,"sessions_aborted":3,"#,
    r#""data_fetches_failed":0,"messages_to_dead":447,"#,
    r#""attempts_lost_queue":30,"attempts_lost_ttl":0,"#,
    r#""attempts_lost_stuck":0,"attempts_lost_dead":336,"#,
    r#""attempts_lost_transport":0,"attempts_lost_shed":0,"#,
    r#""attempts_lost_partition":0,"scenario_crashes":0,"tenant_count":0,"#,
    r#""tenant_worst_availability":1.000000,"tenant_slo_misses":0,"#,
    r#""rng_draws":64528} draws=[0, 477, 2390, 2389, 17400, 254, 4675, 2389,"#,
    r#" 0, 0, 0, 34554]"#,
);
const SUBSYSTEMS: &str = concat!(
    r#"{"injected":3636,"resolved":3440,"dropped":196,"#,
    r#""drop_fraction":0.053905,"latency_mean_s":1.427087,"#,
    r#""latency_p99_s":8.290000,"hops_mean":1.1747,"#,
    r#""replicas_created":141,"replicas_deleted":106,"#,
    r#""sessions_completed":76,"control_messages":10784,"#,
    r#""data_fetches_ok":0,"retries":2827,"messages_lost":225,"#,
    r#""churn_failures":32,"churn_recoveries":32,"dropped_shed":0,"#,
    r#""dropped_partition":0,"messages_cut":0,"cuts_applied":0,"#,
    r#""heals_applied":0,"flash_injected":0,"misroutes":31,"#,
    r#""detour_hops":23,"lease_evictions":1149,"reconcile_pushes":1914,"#,
    r#""objects_written":64,"objects_alive":63,"objects_lost":1,"#,
    r#""object_puts":196,"object_reads":186,"reads_failed":5,"#,
    r#""stale_reads":0,"bytes_on_wire":2298259,"gossip_bytes":460847,"#,
    r#""query_messages":10445,"sessions_aborted":34,"#,
    r#""data_fetches_failed":0,"messages_to_dead":613,"#,
    r#""attempts_lost_queue":2272,"attempts_lost_ttl":0,"#,
    r#""attempts_lost_stuck":0,"attempts_lost_dead":502,"#,
    r#""attempts_lost_transport":203,"attempts_lost_shed":0,"#,
    r#""attempts_lost_partition":0,"scenario_crashes":0,"tenant_count":2,"#,
    r#""tenant_worst_availability":0.939361,"tenant_slo_misses":2,"#,
    r#""rng_draws":106640} draws=[0, 477, 3637, 7272, 25526, 506, 7540,"#,
    r#" 3636, 0, 32, 0, 58014]"#,
);
const FINAL_DROPS: &str = concat!(
    r#"{"injected":2823,"resolved":1393,"dropped":1430,"#,
    r#""drop_fraction":0.506553,"latency_mean_s":0.315182,"#,
    r#""latency_p99_s":1.430000,"hops_mean":1.0983,"replicas_created":16,"#,
    r#""replicas_deleted":0,"sessions_completed":15,"#,
    r#""control_messages":146,"data_fetches_ok":0,"retries":0,"#,
    r#""messages_lost":83,"churn_failures":0,"churn_recoveries":0,"#,
    r#""dropped_shed":692,"dropped_partition":658,"messages_cut":666,"#,
    r#""cuts_applied":1,"heals_applied":1,"flash_injected":1360,"#,
    r#""misroutes":0,"detour_hops":0,"lease_evictions":0,"#,
    r#""reconcile_pushes":0,"objects_written":0,"objects_alive":0,"#,
    r#""objects_lost":0,"object_puts":0,"object_reads":0,"#,
    r#""reads_failed":0,"stale_reads":0,"bytes_on_wire":913280,"#,
    r#""gossip_bytes":0,"query_messages":4276,"sessions_aborted":16,"#,
    r#""data_fetches_failed":0,"messages_to_dead":0,"#,
    r#""attempts_lost_queue":0,"attempts_lost_ttl":0,"#,
    r#""attempts_lost_stuck":0,"attempts_lost_dead":0,"#,
    r#""attempts_lost_transport":0,"attempts_lost_shed":0,"#,
    r#""attempts_lost_partition":0,"scenario_crashes":0,"tenant_count":2,"#,
    r#""tenant_worst_availability":0.319022,"tenant_slo_misses":2,"#,
    r#""rng_draws":22589} draws=[0, 493, 1464, 2926, 5804, 506, 2903,"#,
    r#" 1463, 0, 0, 0, 7030] tenants=[983, 1840]/[806, 587]/[177,"#,
    r#" 1253] minority=617/273 majority=2206/1120"#,
);
