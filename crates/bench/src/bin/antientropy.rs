// Experiment harness binary: aborting on unexpected state is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! **Anti-entropy frontier** — bytes-on-wire vs time-to-reconvergence for
//! the gossip cultures (DESIGN.md §18). Three sweeps, every arm at the
//! identical seed so runs differ only in the knob under test:
//!
//! - **Steady-churn wire sweep**: the churn scenario with storage on,
//!   gossip culture {chatty, taciturn, hybrid}. Chatty re-ships its full
//!   hosted state every round; taciturn ships a windowed digest whose
//!   steady-state cost is O(changed); hybrid adds a bounded eager push on
//!   top of the digest. Taciturn must strictly undercut chatty on gossip
//!   bytes, and hybrid must cost no more than chatty.
//! - **Reconvergence sweep**: the scripted cut-heal/crash-recover
//!   scenario from the reconverge bench, with the PR-4 repair machinery
//!   (leases, NACK repair, warm-rejoin) off in every arm so the curve
//!   isolates what gossip alone heals. The per-second reconvergence
//!   curve yields a time-to-reconvergence per event; the frontier is
//!   (gossip bytes, TTR) per culture against the gossip-off baseline.
//!   Taciturn digests *purge* stale pointers the moment a reset server's
//!   digest disclaims them; chatty only layers fresh advertisements on
//!   top of stale ones — so the digest cultures must reconverge no
//!   slower than chatty, at a fraction of the bytes.
//! - **Durability arm**: mild churn with the write/read drivers off, so
//!   object survival depends entirely on re-replication. Digest-driven
//!   repair (gossip taciturn) must lose no more objects than no repair
//!   at all; its repair wire cost is its gossip-byte counter.
//!
//! A replay arm proves a gossip-enabled run replays byte-identically
//! from the seed, and an inertness arm proves every gossip knob is dead
//! while `gossip.enabled = false`: two gossip-off runs with wildly
//! different gossip settings must produce byte-identical stats.

use terradir::{ChaosAction, Config, GossipCulture, ScenarioEvent, Summary, System};
use terradir_bench::{tsv_header, tsv_row, write_bench_json, Args, JsonObj, Scale, ShapeChecks};
use terradir_workload::StreamPlan;

const CULTURES: [(GossipCulture, &str); 3] = [
    (GossipCulture::Chatty, "chatty"),
    (GossipCulture::Taciturn, "taciturn"),
    (GossipCulture::Hybrid, "hybrid"),
];

/// One finished run's anti-entropy outcome.
struct Run {
    gossip_bytes: u64,
    bytes_on_wire: u64,
    control_messages: u64,
    misroutes: u64,
    resolved: u64,
    objects_alive: u64,
    objects_lost: u64,
    curve: Vec<f64>,
    ttr_heal: f64,
    ttr_recover: f64,
    stats_debug: String,
    summary: Summary,
    accounting_exact: bool,
    audit_findings: usize,
}

impl Run {
    fn json(&self) -> JsonObj {
        JsonObj::new()
            .int("gossip_bytes", self.gossip_bytes)
            .int("bytes_on_wire", self.bytes_on_wire)
            .int("control_messages", self.control_messages)
            .int("misroutes", self.misroutes)
            .int("resolved", self.resolved)
            .int("objects_alive", self.objects_alive)
            .int("objects_lost", self.objects_lost)
            .num("ttr_heal", self.ttr_heal)
            .num("ttr_recover", self.ttr_recover)
            .raw("summary", &self.summary.to_json())
    }
}

/// Trailing 9-second mean of the per-second curve (single seconds hold a
/// few hundred resolutions, so the raw bins carry ~±1 % shot noise).
fn smooth(curve: &[f64]) -> Vec<f64> {
    curve
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let lo = i.saturating_sub(8);
            let w = &curve[lo..=i];
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

/// Seconds from `event_at` until the smoothed curve reaches ≥ 99 % clean
/// resolutions and *stays* there through the rest of `[event_at, limit)`.
/// Infinite when the fleet never settles inside the window.
fn time_to_reconverge(curve: &[f64], event_at: f64, limit: f64) -> f64 {
    let lo = event_at.floor() as usize;
    let hi = (limit.floor() as usize).min(curve.len());
    if lo >= hi {
        return f64::INFINITY;
    }
    let mut t = hi;
    while t > lo && curve[t - 1] >= 0.99 {
        t -= 1;
    }
    if t == hi {
        f64::INFINITY
    } else {
        (t as f64 - event_at).max(0.0)
    }
}

/// Timeline of the scripted reconvergence scenario (simulated seconds).
#[derive(Debug, Clone, Copy)]
struct Timeline {
    cut_at: f64,
    heal_at: f64,
    crash_at: f64,
    recover_at: f64,
    tail_end: f64,
    drain_until: f64,
}

impl Timeline {
    fn new(scale: &Scale) -> Timeline {
        // Floored segments: staleness needs soft state, and soft state
        // needs warmup traffic — below the floors every check would pass
        // vacuously at smoke scales.
        let seg = |paper: f64, floor: f64| scale.duration(paper).max(floor);
        let cut_at = seg(20.0, 10.0);
        let heal_at = cut_at + seg(30.0, 12.0);
        let crash_at = heal_at + seg(50.0, 15.0);
        let recover_at = crash_at + seg(10.0, 4.0);
        let tail_end = recover_at + seg(60.0, 25.0);
        let drain_until = tail_end + 15.0;
        Timeline {
            cut_at,
            heal_at,
            crash_at,
            recover_at,
            tail_end,
            drain_until,
        }
    }
}

fn gossip_on(cfg: &mut Config, culture: GossipCulture, interval: f64) {
    cfg.gossip.enabled = true;
    cfg.gossip.culture = culture;
    cfg.gossip.interval = interval;
    cfg.gossip.fanout = 3;
    cfg.gossip.window = cfg.storage.n_objects.max(32);
}

fn run_one(
    scale: &Scale,
    cfg: Config,
    run_until: f64,
    drain_until: f64,
    tl: Option<Timeline>,
) -> Run {
    let ns = scale.ts_namespace();
    let rate = scale.rate(8_000.0).max(80.0);
    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, drain_until), rate);
    sys.run_until(run_until);
    sys.set_injection(false);
    sys.run_until(drain_until);
    let (alive, lost) = sys.measure_durability();
    let st = sys.stats();
    let curve = st.reconvergence();
    let smoothed = smooth(&curve);
    let (ttr_heal, ttr_recover) = match tl {
        Some(tl) => (
            time_to_reconverge(&smoothed, tl.heal_at, tl.crash_at),
            time_to_reconverge(&smoothed, tl.recover_at, tl.tail_end),
        ),
        None => (0.0, 0.0),
    };
    let audit = sys.audit();
    Run {
        gossip_bytes: st.gossip_bytes,
        bytes_on_wire: st.bytes_on_wire,
        control_messages: st.control_messages,
        misroutes: st.misroutes,
        resolved: st.resolved,
        objects_alive: alive,
        objects_lost: lost,
        curve,
        ttr_heal,
        ttr_recover,
        stats_debug: format!("{st:?}"),
        summary: st.summary(),
        accounting_exact: st.resolved + st.dropped_total() == st.injected,
        audit_findings: audit.len(),
    }
}

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let dur = scale.duration(60.0).max(10.0);
    let interval = (dur / 30.0).clamp(0.25, 2.0);
    println!(
        "# antientropy: {} servers, {:.1}s runs, gossip every {:.2}s, seed {}",
        scale.servers, dur, interval, args.seed
    );
    let mut checks = ShapeChecks::new();

    // ---- Steady-churn wire sweep: culture vs gossip bytes ------------
    let churn_cfg = |culture: Option<GossipCulture>| {
        let mut cfg = scale.config(args.seed);
        cfg.retry.enabled = true;
        cfg.storage.enabled = true;
        cfg.storage.write_rate = 10.0;
        cfg.storage.read_rate = 0.0;
        cfg.storage.read_timeout = (dur * 0.05).clamp(0.2, 2.0);
        cfg.churn.enabled = true;
        cfg.churn.start = dur * 0.1;
        cfg.churn.stop = dur * 0.8;
        cfg.churn.mean_uptime = dur * 0.5;
        cfg.churn.mean_downtime = dur * 0.08;
        if let Some(c) = culture {
            gossip_on(&mut cfg, c, interval);
        }
        cfg.validate().expect("churn-sweep config must be valid");
        cfg
    };
    tsv_header(&["arm", "gossip_bytes", "bytes_on_wire", "control_msgs"]);
    let mut churn_json = JsonObj::new();
    let mut churn_bytes = Vec::new();
    for (culture, label) in CULTURES {
        let run = run_one(
            &scale,
            churn_cfg(Some(culture)),
            dur,
            // The drain must outlast the worst-case retry chain (same
            // margin as the churn bench) or in-flight retries at the
            // cutoff break the conservation identity.
            dur + dur * 0.08 * 4.0 + 20.0,
            None,
        );
        tsv_row(
            label,
            &[
                run.gossip_bytes as f64,
                run.bytes_on_wire as f64,
                run.control_messages as f64,
            ],
        );
        checks.check(
            &format!("{label}: gossip exchanges bytes under churn"),
            run.gossip_bytes > 0,
            format!("{} gossip bytes", run.gossip_bytes),
        );
        checks.check(
            &format!("{label}: gossip bytes within the wire total"),
            run.gossip_bytes <= run.bytes_on_wire,
            format!("{} > {}", run.gossip_bytes, run.bytes_on_wire),
        );
        checks.check(
            &format!("{label}: accounting is exactly decomposable"),
            run.accounting_exact,
            "resolved + dropped == injected after drain".to_string(),
        );
        checks.check(
            &format!("{label}: invariant audit is clean"),
            run.audit_findings == 0,
            format!("{} findings", run.audit_findings),
        );
        churn_bytes.push(run.gossip_bytes as f64);
        churn_json = churn_json.obj(label, run.json());
    }
    checks.check(
        "taciturn strictly undercuts chatty on steady-churn bytes",
        churn_bytes[1] < churn_bytes[0],
        format!("taciturn {} vs chatty {}", churn_bytes[1], churn_bytes[0]),
    );
    checks.check(
        "hybrid costs no more than chatty on steady-churn bytes",
        churn_bytes[2] <= churn_bytes[0],
        format!("hybrid {} vs chatty {}", churn_bytes[2], churn_bytes[0]),
    );

    // ---- Reconvergence sweep: culture vs TTR (the frontier) ----------
    let tl = Timeline::new(&scale);
    let reconv_cfg = |culture: Option<GossipCulture>| {
        let mut cfg = scale.config(args.seed);
        cfg.retry.enabled = true;
        // Idle eviction off: steady-state deletion churn would bury the
        // event-driven staleness this sweep isolates (same setting as
        // the reconverge bench). The PR-4 repair machinery stays off in
        // every arm so the curve measures what gossip alone heals.
        cfg.evict_weight_threshold = 0.0;
        cfg.partitions.n_groups = 4;
        cfg.scenario.events = vec![
            ScenarioEvent {
                at: tl.cut_at,
                action: ChaosAction::Cut { groups: vec![0] },
            },
            ScenarioEvent {
                at: tl.heal_at,
                action: ChaosAction::Heal,
            },
            ScenarioEvent {
                at: tl.crash_at,
                action: ChaosAction::CorrelatedCrash { fraction: 0.5 },
            },
            ScenarioEvent {
                at: tl.recover_at,
                action: ChaosAction::Recover,
            },
        ];
        if let Some(c) = culture {
            gossip_on(&mut cfg, c, interval);
        }
        cfg.validate()
            .expect("reconverge scenario config must be valid");
        cfg
    };
    tsv_header(&[
        "arm",
        "ttr_heal",
        "ttr_recover",
        "gossip_bytes",
        "misroutes",
    ]);
    let mut reconv_json = JsonObj::new();
    let mut frontier_bytes = Vec::new();
    let mut frontier_ttr = Vec::new();
    let off = run_one(
        &scale,
        reconv_cfg(None),
        tl.tail_end,
        tl.drain_until,
        Some(tl),
    );
    tsv_row(
        "off",
        &[
            off.ttr_heal,
            off.ttr_recover,
            off.gossip_bytes as f64,
            off.misroutes as f64,
        ],
    );
    reconv_json = reconv_json.obj("off", off.json().arr("reconvergence", &off.curve));
    let mut culture_runs = Vec::new();
    for (culture, label) in CULTURES {
        let run = run_one(
            &scale,
            reconv_cfg(Some(culture)),
            tl.tail_end,
            tl.drain_until,
            Some(tl),
        );
        tsv_row(
            label,
            &[
                run.ttr_heal,
                run.ttr_recover,
                run.gossip_bytes as f64,
                run.misroutes as f64,
            ],
        );
        frontier_bytes.push(run.gossip_bytes as f64);
        frontier_ttr.push(run.ttr_heal.max(run.ttr_recover));
        reconv_json = reconv_json.obj(label, run.json().arr("reconvergence", &run.curve));
        culture_runs.push(run);
    }
    checks.check(
        "off arm carries zero gossip bytes",
        off.gossip_bytes == 0,
        format!("{} bytes", off.gossip_bytes),
    );
    checks.check(
        "taciturn undercuts chatty on scenario bytes too",
        frontier_bytes[1] < frontier_bytes[0],
        format!(
            "taciturn {} vs chatty {}",
            frontier_bytes[1], frontier_bytes[0]
        ),
    );
    // The strict ordering claims need enough stale-pointer traffic for
    // the per-second curve to move; tiny smoke fleets reconverge almost
    // instantly in every arm, so below the signal floor the checks
    // degrade to non-strict (the full-scale CI run keeps the strict
    // form).
    let discriminates = off.misroutes >= 50;
    let chatty_ttr = (culture_runs[0].ttr_heal, culture_runs[0].ttr_recover);
    let hybrid_ttr = (culture_runs[2].ttr_heal, culture_runs[2].ttr_recover);
    checks.check(
        "hybrid reconverges no slower than chatty",
        hybrid_ttr.0 <= chatty_ttr.0 && hybrid_ttr.1 <= chatty_ttr.1,
        format!(
            "hybrid ({:.0}s, {:.0}s) vs chatty ({:.0}s, {:.0}s)",
            hybrid_ttr.0, hybrid_ttr.1, chatty_ttr.0, chatty_ttr.1
        ),
    );
    if discriminates {
        for (i, (_, label)) in CULTURES.iter().enumerate() {
            checks.check(
                &format!("{label} reconverges no slower than gossip-off"),
                culture_runs[i].ttr_heal <= off.ttr_heal
                    && culture_runs[i].ttr_recover <= off.ttr_recover,
                format!(
                    "({:.0}s, {:.0}s) vs off ({:.0}s, {:.0}s)",
                    culture_runs[i].ttr_heal,
                    culture_runs[i].ttr_recover,
                    off.ttr_heal,
                    off.ttr_recover
                ),
            );
        }
    }

    // ---- Durability arm: no repair vs digest-driven repair -----------
    let durability_cfg = |digest: bool| {
        let mut cfg = scale.config(args.seed);
        cfg.storage.enabled = true;
        // Objects scale with the fleet (4 per server), so the object
        // load per gossip peer stays fixed across scales.
        cfg.storage.n_objects = scale.servers * 4;
        cfg.storage.replication_factor = 3;
        // Drivers off: survival must come from re-replication, not from
        // writes resurrecting objects.
        cfg.storage.write_rate = 0.0;
        cfg.storage.read_rate = 0.0;
        cfg.churn.enabled = true;
        cfg.churn.start = dur * 0.1;
        cfg.churn.stop = dur * 0.8;
        cfg.churn.mean_uptime = dur * 0.3;
        cfg.churn.mean_downtime = dur * 0.08;
        if digest {
            // A wider fanout than the routing sweeps use: a wiped server
            // re-fills only by soliciting a peer that holds its copies,
            // so per-round neighborhood coverage is the repair latency
            // knob.
            gossip_on(&mut cfg, GossipCulture::Taciturn, interval);
            cfg.gossip.fanout = 6;
        }
        cfg.validate().expect("durability config must be valid");
        cfg
    };
    // Same worst-case-retry-chain margin as the churn sweep: the replay
    // arms reuse this drain and their stats must settle, not be cut off.
    let dur_drain = dur + dur * 0.08 * 4.0 + 20.0;
    let base = run_one(&scale, durability_cfg(false), dur, dur_drain, None);
    let digest = run_one(&scale, durability_cfg(true), dur, dur_drain, None);
    let digest_repair_bytes = digest.gossip_bytes;
    tsv_header(&["arm", "lost", "alive", "repair_bytes"]);
    for (label, run, bytes) in [
        ("none", &base, 0u64),
        ("digest", &digest, digest_repair_bytes),
    ] {
        tsv_row(
            label,
            &[
                run.objects_lost as f64,
                run.objects_alive as f64,
                bytes as f64,
            ],
        );
    }
    checks.check(
        "digest repairs: never worse than no repair",
        digest.objects_lost <= base.objects_lost,
        format!(
            "digest lost {} vs {}",
            digest.objects_lost, base.objects_lost
        ),
    );

    // ---- Replay + inertness arms -------------------------------------
    let replay_a = run_one(
        &scale,
        churn_cfg(Some(GossipCulture::Hybrid)),
        dur,
        dur_drain,
        None,
    );
    let replay_b = run_one(
        &scale,
        churn_cfg(Some(GossipCulture::Hybrid)),
        dur,
        dur_drain,
        None,
    );
    checks.check(
        "gossip-enabled run replays byte-identically",
        replay_a.stats_debug == replay_b.stats_debug,
        format!(
            "{} bytes of RunStats debug compared",
            replay_a.stats_debug.len()
        ),
    );
    // Every gossip knob must be dead while `enabled = false`: two
    // gossip-off runs with wildly different settings are the same run.
    let inert_cfg = |culture: GossipCulture, fanout: u32, window: u32| {
        let mut cfg = churn_cfg(None);
        cfg.gossip.culture = culture;
        cfg.gossip.fanout = fanout;
        cfg.gossip.window = window;
        cfg.gossip.interval = 0.05;
        cfg
    };
    let inert_a = run_one(
        &scale,
        inert_cfg(GossipCulture::Chatty, 1, 1),
        dur,
        dur_drain,
        None,
    );
    let inert_b = run_one(
        &scale,
        inert_cfg(GossipCulture::Hybrid, 7, 512),
        dur,
        dur_drain,
        None,
    );
    checks.check(
        "gossip-off runs are byte-identical across dead knobs",
        inert_a.stats_debug == inert_b.stats_debug,
        "knob changes leaked into a disabled subsystem".to_string(),
    );
    checks.check(
        "gossip-off runs carry zero gossip bytes",
        inert_a.gossip_bytes == 0 && inert_b.gossip_bytes == 0,
        format!("{} / {}", inert_a.gossip_bytes, inert_b.gossip_bytes),
    );

    let json = JsonObj::new()
        .str("bench", "antientropy")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("duration_s", dur)
        .num("gossip_interval_s", interval)
        .arr("churn_gossip_bytes", &churn_bytes)
        .arr("frontier_gossip_bytes", &frontier_bytes)
        .arr("frontier_ttr", &frontier_ttr)
        .obj("churn_sweep", churn_json)
        .obj("reconverge_sweep", reconv_json)
        .obj(
            "durability",
            JsonObj::new()
                .obj("none", base.json())
                .obj("digest", digest.json())
                .int("digest_repair_bytes", digest_repair_bytes),
        )
        .obj("replay", replay_a.json());
    write_bench_json("antientropy", &json);

    std::process::exit(i32::from(!checks.finish()));
}
