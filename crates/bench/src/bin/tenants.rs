// Experiment harness binary: aborting on unexpected state is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! **Multi-tenant namespaces and heterogeneous fleet roles** (DESIGN.md
//! §19). The paper's fleet is uniform and its namespace a single
//! administrative domain; this binary stresses the two robustness
//! extensions the roles/tenants subsystem adds:
//!
//! - **Tenant isolation under a flash crowd.** The namespace is cut into
//!   disjoint tenant subtrees with per-tenant arrival weights, popularity
//!   laws and availability SLOs. A flash crowd aimed at one tenant-0 node
//!   must not degrade the *other* tenants: at the identical master seed,
//!   every non-target tenant's availability stays within ε of its
//!   no-crowd baseline.
//! - **Cross-class failure waves.** With roles on, every server of one
//!   class crashes at once and later recovers. Time-to-requorum — seconds
//!   from the recovery until the durability gauge returns to its pre-wave
//!   level — is measured per class; a relay wave (the replica-capacity
//!   backbone) and an edge wave (the admission-restricted majority) must
//!   both requorum inside the tail window.
//!
//! Replay arms prove a roles+tenants run replays byte-identically from
//! the seed, and that populated-but-disabled role/tenant structs are
//! inert: such a run is byte-identical to one with the plain paper
//! config at the same seed (zero extra RNG draws).

use terradir::{
    ChaosAction, Config, GossipCulture, ScenarioEvent, ServerClass, ServerId, System, TenantMap,
    TenantSpec,
};
use terradir_bench::{
    run_drained, tsv_header, tsv_row, write_bench_json, Args, Drained, JsonObj, ShapeChecks,
};
use terradir_workload::StreamPlan;

/// Availability drift non-target tenants may show under the crowd.
const EPSILON: f64 = 0.05;

/// Per-tenant (weight, zipf order, availability SLO) for the three
/// tenants every arm provisions.
const TENANTS: [(f64, f64, f64); 3] = [(4.0, 0.9, 0.90), (2.0, 0.5, 0.90), (1.0, 0.0, 0.90)];

fn tenants_on(cfg: &mut Config) {
    cfg.tenants.enabled = true;
    cfg.tenants.cut_depth = 2;
    for (weight, zipf_theta, slo_availability) in TENANTS {
        cfg.tenants.specs.push(TenantSpec {
            weight,
            zipf_theta,
            slo_availability,
        });
    }
}

fn roles_on(cfg: &mut Config) {
    cfg.roles.enabled = true;
    cfg.roles.relay_every = 4;
    cfg.roles.keeper_every = 2;
}

/// Per-tenant outcome of one finished run.
struct Tenants {
    availability: Vec<f64>,
    latency_mean: Vec<f64>,
    injected: Vec<f64>,
    dropped: Vec<f64>,
    misrouted: Vec<f64>,
}

type Run = Drained<Tenants>;

fn tenant_reads(sys: &mut System) -> Tenants {
    let st = sys.stats();
    // These reads are the tenant ledger's emission path (DESIGN.md §15):
    // availability folds `tenant_resolved`, the latency mean folds
    // `tenant_latency_sum`, and the raw vectors land in the JSON below.
    let counts = |v: &[u64]| v.iter().map(|&v| v as f64).collect();
    Tenants {
        availability: st.tenant_availability(),
        latency_mean: st.tenant_latency_mean(),
        injected: counts(&st.tenant_injected),
        dropped: counts(&st.tenant_dropped),
        misrouted: counts(&st.tenant_misrouted),
    }
}

fn json(run: &Run) -> JsonObj {
    let t = &run.reads;
    JsonObj::new()
        .arr("tenant_availability", &t.availability)
        .arr("tenant_latency_mean", &t.latency_mean)
        .arr("tenant_injected", &t.injected)
        .arr("tenant_dropped", &t.dropped)
        .arr("tenant_misrouted", &t.misrouted)
        .raw("summary", &run.summary.to_json())
}

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let dur = scale.duration(60.0).max(12.0);
    let drain = dur + 15.0;
    let rate = scale.rate(8_000.0).max(80.0);
    println!(
        "# tenants: {} servers, {:.1}s runs, λ={rate:.0}/s, seed {}",
        scale.servers, dur, args.seed
    );
    let mut checks = ShapeChecks::new();

    // ---- Isolation: tenant-local flash crowd vs no-crowd baseline ----
    // The surge is sized in absolute terms — six servers' worth of
    // service capacity aimed at one node — not as a fleet-proportional
    // multiplier. A single node's effective capacity is bounded by how
    // many replicas adaptive replication can spread, which does not
    // grow with the fleet; a fleet-proportional crowd would overwhelm
    // any replica set at scale and collapse *every* tenant, proving
    // nothing about isolation.
    // Capped at a quarter of aggregate capacity so smoke-scale fleets
    // (where six servers is most of the fleet) see the same *relative*
    // stress as the full-scale run.
    let per_server = 1.0 / terradir::config::MEAN_SERVICE;
    let surge = (6.0 * per_server).min(0.25 * f64::from(scale.servers) * per_server);
    let crowd_mult = 1.0 + (surge / rate).max(1.0);
    let iso_cfg = |crowd: bool| {
        let mut cfg = scale.config(args.seed);
        roles_on(&mut cfg);
        tenants_on(&mut cfg);
        // Retry on: isolation is a claim about *final* outcomes — a
        // query shed once behind the crowd but resolved on retry is
        // available, exactly as a client would experience it.
        cfg.retry.enabled = true;
        if crowd {
            // Aim the crowd at tenant 0's first member so the surge is
            // tenant-local by construction; the map is deterministic in
            // (namespace, tenant config) so both arms agree on it.
            let target = TenantMap::build(&scale.ts_namespace(), &cfg.tenants)
                .members(0)
                .first()
                .copied()
                .expect("tenant 0 must own nodes");
            cfg.scenario.events = vec![
                ScenarioEvent {
                    at: dur * 0.3,
                    action: ChaosAction::FlashCrowd {
                        node: target.0,
                        rate_multiplier: crowd_mult,
                    },
                },
                ScenarioEvent {
                    at: dur * 0.7,
                    action: ChaosAction::FlashCrowd {
                        node: target.0,
                        rate_multiplier: 1.0,
                    },
                },
            ];
        }
        cfg.validate().expect("isolation config must be valid");
        cfg
    };
    let iso_run = |crowd: bool| -> Run {
        let sys = System::new(
            scale.ts_namespace(),
            iso_cfg(crowd),
            StreamPlan::unif(drain),
            rate,
        );
        run_drained(sys, dur, drain, tenant_reads)
    };
    let base = iso_run(false);
    let crowd = iso_run(true);
    tsv_header(&[
        "tenant",
        "avail_base",
        "avail_crowd",
        "lat_base",
        "lat_crowd",
    ]);
    for t in 0..TENANTS.len() {
        tsv_row(
            &format!("t{t}"),
            &[
                base.reads.availability[t],
                crowd.reads.availability[t],
                base.reads.latency_mean[t],
                crowd.reads.latency_mean[t],
            ],
        );
    }
    checks.check(
        "every tenant receives traffic in both arms",
        base.reads
            .injected
            .iter()
            .chain(&crowd.reads.injected)
            .all(|&i| i > 0.0),
        format!(
            "base {:?} crowd {:?}",
            base.reads.injected, crowd.reads.injected
        ),
    );
    checks.check(
        "tenant weights order the arrival split",
        base.reads.injected[0] > base.reads.injected[1]
            && base.reads.injected[1] > base.reads.injected[2],
        format!("{:?}", base.reads.injected),
    );
    for t in 1..TENANTS.len() {
        checks.check(
            &format!("tenant {t} is isolated from tenant 0's crowd"),
            (crowd.reads.availability[t] - base.reads.availability[t]).abs() <= EPSILON,
            format!(
                "availability {:.4} vs baseline {:.4} (ε = {EPSILON})",
                crowd.reads.availability[t], base.reads.availability[t]
            ),
        );
    }
    checks.check(
        "baseline meets every tenant SLO",
        base.summary.tenant_slo_misses == 0,
        format!(
            "{} misses, worst availability {:.4}",
            base.summary.tenant_slo_misses, base.summary.tenant_worst_availability
        ),
    );
    checks.check(
        "tenant ledgers conserve: resolved + dropped ≤ injected",
        base.reads
            .injected
            .iter()
            .zip(&base.reads.dropped)
            .zip(&base.reads.availability)
            .all(|((&inj, &drop), &avail)| avail * inj + drop <= inj + 1e-6),
        "per-tenant conservation".to_string(),
    );
    checks.check(
        "misroute ledger stays within injections",
        base.reads
            .misrouted
            .iter()
            .zip(&base.reads.injected)
            .all(|(&m, &i)| m <= i),
        format!("{:?}", base.reads.misrouted),
    );
    checks.check(
        "isolation arms audit clean",
        base.audit_findings == 0 && crowd.audit_findings == 0,
        format!(
            "{} / {} findings",
            base.audit_findings, crowd.audit_findings
        ),
    );

    // ---- Replay: crowd arm is byte-identical from the seed -----------
    let crowd_again = iso_run(true);
    checks.byte_identical(
        "roles+tenants crowd run replays byte-identically",
        &crowd.stats_debug,
        &crowd_again.stats_debug,
        None,
    );

    // ---- Inertness: disabled structs must not perturb one draw -------
    let inert_run = |loaded: bool| {
        let mut cfg = scale.config(args.seed);
        if loaded {
            roles_on(&mut cfg);
            tenants_on(&mut cfg);
            cfg.roles.enabled = false;
            cfg.tenants.enabled = false;
            cfg.roles.relay_queue_factor = 16.0;
        }
        let sys = System::new(scale.ts_namespace(), cfg, StreamPlan::unif(drain), rate);
        run_drained(sys, dur, drain, |_| ()).stats_debug
    };
    let plain = inert_run(false);
    let loaded = inert_run(true);
    checks.byte_identical(
        "disabled roles/tenants are byte-inert",
        &plain,
        &loaded,
        Some("populated-but-disabled structs changed the run"),
    );

    // ---- Cross-class failure waves: time-to-requorum by class --------
    let crash_at = dur * 0.4;
    let recover_at = dur * 0.6;
    let wave_run = |class: ServerClass| {
        let mut cfg = scale.config(args.seed);
        roles_on(&mut cfg);
        tenants_on(&mut cfg);
        cfg.retry.enabled = true;
        cfg.storage.enabled = true;
        cfg.storage.n_objects = scale.servers * 2;
        cfg.storage.replication_factor = 3;
        // Writes are the only way an object wiped on *every* holder can
        // come back (gossip cannot copy from nowhere), so the write
        // driver runs hot enough to resurrect the wave's total losses
        // inside the tail window.
        cfg.storage.write_rate = (scale.servers as f64).max(20.0);
        cfg.storage.read_rate = 0.0;
        // Taciturn digest gossip re-fills the wave's wiped stores. A wide
        // fanout: a wiped server re-fills only by soliciting a peer that
        // holds its copies.
        cfg.gossip.enabled = true;
        cfg.gossip.culture = GossipCulture::Taciturn;
        cfg.gossip.interval = 5.0;
        cfg.gossip.fanout = 6;
        cfg.gossip.window = cfg.storage.n_objects.max(32);
        cfg.scenario.events = vec![
            ScenarioEvent {
                at: crash_at,
                action: ChaosAction::ClassCrash { class },
            },
            ScenarioEvent {
                at: recover_at,
                action: ChaosAction::ClassRecover { class },
            },
        ];
        cfg.validate().expect("wave config must be valid");
        let mut sys = System::new(scale.ts_namespace(), cfg, StreamPlan::unif(drain), rate);
        // Pre-wave quorum level, measured the instant before the crash.
        sys.run_until(crash_at);
        let (pre_alive, _) = sys.measure_durability();
        // Step through recovery in one-second ticks until the gauge is
        // back to ≥ 95 % of its pre-wave level. The last few percent
        // are objects the wave wiped on *every* holder; they return
        // only when the write driver happens to touch them, which is a
        // durability loss (reported below), not a requorum delay.
        let target = pre_alive.saturating_sub(pre_alive / 20);
        sys.run_until(recover_at);
        let mut requorum = f64::INFINITY;
        let mut t = recover_at;
        while t < drain {
            t = (t + 1.0).min(drain);
            sys.run_until(t);
            let (alive, _) = sys.measure_durability();
            if alive >= target {
                requorum = t - recover_at;
                break;
            }
        }
        let n_class = (0..scale.servers)
            .filter(|&i| {
                sys.roles()
                    .is_some_and(|r| r.class_of(ServerId(i)) == class)
            })
            .count() as u64;
        let run = run_drained(sys, t, drain, |sys| {
            // Sets the summary's objects_alive / objects_lost.
            sys.measure_durability();
            tenant_reads(sys)
        });
        (run, requorum, pre_alive, n_class)
    };
    tsv_header(&[
        "class",
        "n_class",
        "requorum_s",
        "pre_alive",
        "alive",
        "lost",
    ]);
    let mut wave_json = JsonObj::new();
    let mut requorums = Vec::new();
    for (class, label) in [(ServerClass::Relay, "relay"), (ServerClass::Edge, "edge")] {
        let (run, requorum, pre_alive, n_class) = wave_run(class);
        let s = &run.summary;
        let (alive, lost, crashes) = (s.objects_alive, s.objects_lost, s.scenario_crashes);
        tsv_row(
            label,
            &[
                n_class as f64,
                requorum,
                pre_alive as f64,
                alive as f64,
                lost as f64,
            ],
        );
        checks.check(
            &format!("{label} wave crashes the whole class"),
            crashes == n_class && n_class > 0,
            format!("{crashes} scenario crashes for {n_class} members"),
        );
        checks.check(
            &format!("{label} wave requorums inside the tail window"),
            requorum.is_finite(),
            format!("requorum after {requorum:.1}s, {alive} alive / {lost} lost"),
        );
        checks.check(
            &format!("{label} wave audits clean after recovery"),
            run.audit_findings == 0,
            format!("{} findings", run.audit_findings),
        );
        requorums.push(requorum);
        wave_json = wave_json.obj(
            label,
            json(&run)
                .num("requorum_s", requorum)
                .int("n_class", n_class)
                .int("pre_alive", pre_alive)
                .int("alive", alive)
                .int("lost", lost),
        );
    }

    let json = JsonObj::new()
        .str("bench", "tenants")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("duration_s", dur)
        .num("epsilon", EPSILON)
        .obj("baseline", json(&base))
        .obj("crowd", json(&crowd))
        .obj("waves", wave_json)
        .arr("requorum_by_class", &requorums);
    write_bench_json("tenants", &json);

    std::process::exit(i32::from(!checks.finish()));
}
