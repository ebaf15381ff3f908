//! Regression tests for degenerate configurations that once sat on latent
//! panic paths (zero-slot caches, single-server fleets, `R_map = 1` maps).
//! Each runs a whole system end to end and audits the final state with the
//! runtime invariant checkers.

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn run(cfg: Config, dur: f64, rate: f64) -> System {
    let ns = balanced_tree(2, 5);
    let mut sys = System::new(ns, cfg, StreamPlan::unif(dur), rate);
    sys.run_until(dur);
    sys.set_injection(false);
    sys.run_until(dur + 30.0);
    sys
}

/// Caching enabled but with zero slots: every insert is a no-op, routing
/// must fall back to context maps, and nothing divides by or indexes into
/// the empty cache.
#[test]
fn zero_slot_cache_runs_clean() {
    let mut cfg = Config::paper_default(8).with_seed(11);
    cfg.cache_slots = 0;
    let sys = run(cfg, 10.0, 50.0);
    assert!(sys.stats().resolved > 0);
    for s in sys.servers() {
        assert_eq!(s.cache().len(), 0);
    }
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// A single server owns the whole namespace: every admitted query resolves
/// locally and no routing decision ever runs out of candidates. Queue
/// overflow is the only legitimate loss — the lone server saturates, but it
/// must never TTL-out or get stuck on a query it owns.
#[test]
fn single_server_resolves_everything_locally() {
    let cfg = Config::paper_default(1).with_seed(7);
    let sys = run(cfg, 10.0, 50.0);
    let st = sys.stats();
    assert!(st.injected > 0);
    assert_eq!(st.dropped_ttl, 0);
    assert_eq!(st.dropped_stuck, 0);
    assert_eq!(st.resolved + st.dropped_queue, st.injected);
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// `R_map = 1`: maps degenerate to single-entry pointers. Merging,
/// advertising, and pruning must respect the floor of one entry without
/// panicking, and the bound checker must agree.
#[test]
fn r_map_of_one_stays_bounded() {
    let mut cfg = Config::paper_default(8).with_seed(3);
    cfg.r_map = 1;
    let sys = run(cfg, 10.0, 50.0);
    assert!(sys.stats().resolved > 0);
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// `leases.ttl = 0`: every maintenance pass expires every unused piece of
/// soft state on the spot. Routing must survive on owned records and
/// their context maps, which carry no lease, and the freshness checker
/// must agree.
#[test]
fn zero_ttl_leases_run_clean() {
    let mut cfg = Config::paper_default(8).with_seed(13);
    cfg.leases.enabled = true;
    cfg.leases.ttl = 0.0;
    let sys = run(cfg, 10.0, 50.0);
    let st = sys.stats();
    assert!(st.resolved > 0);
    assert!(st.lease_evictions > 0, "zero ttl must expire soft state");
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// Leases enabled on a fault-free run with the default ttl (which outlives
/// the horizon): the sweep never fires, no fault randomness is drawn, and
/// the run must be bitwise-identical to the leases-off baseline.
#[test]
fn leases_on_without_faults_match_leases_off_bitwise() {
    let fp = |enabled: bool| {
        let mut cfg = Config::paper_default(8).with_seed(17);
        cfg.leases.enabled = enabled;
        let sys = run(cfg, 10.0, 50.0);
        let st = sys.stats();
        (
            st.injected,
            st.resolved,
            st.dropped_total(),
            st.replicas_created,
            st.control_messages,
            st.latency.mean(),
            st.hops.mean(),
            st.misroutes,
            st.detour_hops,
            st.lease_evictions,
        )
    };
    assert_eq!(fp(true), fp(false));
}

/// A zero-slot cache and `R_map = 1` at once, under the
/// replication-heavy BCR configuration with a skewed stream: the stress
/// case for eviction, back-propagation, and map pruning with no slack
/// anywhere.
#[test]
fn combined_degenerate_bcr_runs_clean() {
    let mut cfg = Config::paper_default(4).with_seed(5);
    cfg.cache_slots = 0;
    cfg.r_map = 1;
    let ns = balanced_tree(2, 5);
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.25, 10.0), 80.0);
    sys.run_until(10.0);
    sys.set_injection(false);
    sys.run_until(40.0);
    let st = sys.stats();
    assert_eq!(st.resolved + st.dropped_total(), st.injected);
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// Every server a relay (`relay_every = 1`): the admission machinery is
/// pure permissiveness — placement must match a roles-off run's shape
/// (everything admitted everywhere) and the audit must stay clean.
#[test]
fn all_relay_fleet_runs_clean() {
    let mut cfg = Config::paper_default(8).with_seed(13);
    cfg.roles.enabled = true;
    cfg.roles.relay_every = 1;
    let sys = run(cfg, 10.0, 50.0);
    assert!(sys.stats().resolved > 0);
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// One tenant owning everything at the cut must be indistinguishable
/// from tenants-off in every protocol counter: the tenant machinery may
/// add its own ledgers but must not steer a single routing or placement
/// decision differently. (The destination stream legitimately differs —
/// a mix resamples per tenant — so the comparison pins the workload by
/// checking the full per-tenant ledger against the global counters
/// instead of diffing two runs.)
#[test]
fn single_tenant_ledger_matches_global_counters() {
    let mut cfg = Config::paper_default(8).with_seed(29);
    cfg.tenants.enabled = true;
    cfg.tenants.cut_depth = 0; // the root: one subtree, one tenant
    cfg.tenants
        .specs
        .push(terradir_repro::protocol::TenantSpec {
            weight: 1.0,
            zipf_theta: 0.0,
            slo_availability: 0.5,
        });
    let sys = run(cfg, 10.0, 50.0);
    let st = sys.stats();
    assert_eq!(st.tenant_injected.iter().sum::<u64>(), st.injected);
    assert_eq!(st.tenant_resolved.iter().sum::<u64>(), st.resolved);
    assert_eq!(st.tenant_dropped.iter().sum::<u64>(), st.dropped_total());
    let v = sys.audit();
    assert!(v.is_empty(), "{v:?}");
}

/// A positive storage rate whose mean gap `1 / rate` overflows to
/// infinity cannot drive the exponential write or read process, so
/// validation rejects it before any `System` is built.
#[test]
fn storage_rate_with_infinite_mean_gap_is_rejected() {
    let mut cfg = Config::paper_default(8);
    cfg.storage.enabled = true;
    cfg.storage.write_rate = 1e-310;
    assert!(cfg.validate().is_err(), "write_rate 1e-310");
    cfg.storage.write_rate = 1e-300;
    assert_eq!(cfg.validate(), Ok(()), "a tiny but usable rate stays legal");
}
