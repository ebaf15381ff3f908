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
//!   scenario (the reconverge bench's, minus its crash inside the cut),
//!   with the repair machinery (leases, NACK repair, warm-rejoin) off in
//!   every arm so the curve
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

use terradir::{Config, GossipCulture, System};
use terradir_bench::{
    run_drained, tsv_header, tsv_row, write_bench_json, Args, CutCrashTimeline, Drained, JsonObj,
    Reconvergence, Scale, ShapeChecks,
};
use terradir_workload::StreamPlan;

const CULTURES: [(GossipCulture, &str); 3] = [
    (GossipCulture::Chatty, "chatty"),
    (GossipCulture::Taciturn, "taciturn"),
    (GossipCulture::Hybrid, "hybrid"),
];

/// Off the scripted scenario the reconvergence reads stay at their
/// zero default.
type Run = Drained<Reconvergence>;

fn json(run: &Run) -> JsonObj {
    let s = &run.summary;
    JsonObj::new()
        .int("gossip_bytes", s.gossip_bytes)
        .int("bytes_on_wire", s.bytes_on_wire)
        .int("control_messages", s.control_messages)
        .int("misroutes", s.misroutes)
        .int("resolved", s.resolved)
        .int("objects_alive", s.objects_alive)
        .int("objects_lost", s.objects_lost)
        .num("ttr_heal", run.reads.ttr_heal)
        .num("ttr_recover", run.reads.ttr_recover)
        .raw("summary", &s.to_json())
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
    tl: Option<CutCrashTimeline>,
) -> Run {
    let ns = scale.ts_namespace();
    let rate = scale.rate(8_000.0).max(80.0);
    let sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, drain_until), rate);
    run_drained(sys, run_until, drain_until, |sys| {
        // Sets the summary's objects_alive / objects_lost.
        sys.measure_durability();
        tl.map_or_else(Reconvergence::default, |tl| tl.reconvergence(sys))
    })
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
        let s = &run.summary;
        tsv_row(
            label,
            &[
                s.gossip_bytes as f64,
                s.bytes_on_wire as f64,
                s.control_messages as f64,
            ],
        );
        checks.check(
            &format!("{label}: gossip exchanges bytes under churn"),
            s.gossip_bytes > 0,
            format!("{} gossip bytes", s.gossip_bytes),
        );
        checks.check(
            &format!("{label}: gossip bytes within the wire total"),
            s.gossip_bytes <= s.bytes_on_wire,
            format!("{} > {}", s.gossip_bytes, s.bytes_on_wire),
        );
        checks.accounting_and_audit(label, &run);
        churn_bytes.push(s.gossip_bytes as f64);
        churn_json = churn_json.obj(label, json(&run));
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
    let tl = CutCrashTimeline::new(&scale);
    let reconv_cfg = |culture: Option<GossipCulture>| {
        let mut cfg = scale.config(args.seed);
        cfg.retry.enabled = true;
        // Idle eviction off: steady-state deletion churn would bury the
        // event-driven staleness this sweep isolates (same setting as
        // the reconverge bench). The PR-4 repair machinery stays off in
        // every arm so the curve measures what gossip alone heals.
        cfg.evict_weight_threshold = 0.0;
        cfg.partitions.n_groups = 4;
        cfg.scenario.events = tl.events();
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
    let arms = [(None, "off")]
        .into_iter()
        .chain(CULTURES.map(|(c, label)| (Some(c), label)));
    let mut runs = Vec::new();
    for (culture, label) in arms {
        let run = run_one(
            &scale,
            reconv_cfg(culture),
            tl.tail_end,
            tl.drain_until,
            Some(tl),
        );
        let (r, s) = (&run.reads, &run.summary);
        tsv_row(
            label,
            &[
                r.ttr_heal,
                r.ttr_recover,
                s.gossip_bytes as f64,
                s.misroutes as f64,
            ],
        );
        if culture.is_some() {
            frontier_bytes.push(s.gossip_bytes as f64);
            frontier_ttr.push(r.ttr_heal.max(r.ttr_recover));
        }
        reconv_json = reconv_json.obj(label, json(&run).arr("reconvergence", &r.curve));
        runs.push(run);
    }
    let (off, culture_runs) = (&runs[0], &runs[1..]);
    checks.check(
        "off arm carries zero gossip bytes",
        off.summary.gossip_bytes == 0,
        format!("{} bytes", off.summary.gossip_bytes),
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
    let discriminates = off.summary.misroutes >= 50;
    let (chatty, hybrid, off) = (&culture_runs[0].reads, &culture_runs[2].reads, &off.reads);
    checks.check(
        "hybrid reconverges no slower than chatty",
        hybrid.ttr_heal <= chatty.ttr_heal && hybrid.ttr_recover <= chatty.ttr_recover,
        format!(
            "hybrid ({:.0}s, {:.0}s) vs chatty ({:.0}s, {:.0}s)",
            hybrid.ttr_heal, hybrid.ttr_recover, chatty.ttr_heal, chatty.ttr_recover
        ),
    );
    if discriminates {
        for ((_, label), run) in CULTURES.iter().zip(culture_runs) {
            let r = &run.reads;
            checks.check(
                &format!("{label} reconverges no slower than gossip-off"),
                r.ttr_heal <= off.ttr_heal && r.ttr_recover <= off.ttr_recover,
                format!(
                    "({:.0}s, {:.0}s) vs off ({:.0}s, {:.0}s)",
                    r.ttr_heal, r.ttr_recover, off.ttr_heal, off.ttr_recover
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
    let digest_repair_bytes = digest.summary.gossip_bytes;
    tsv_header(&["arm", "lost", "alive", "repair_bytes"]);
    for (label, run, bytes) in [
        ("none", &base, 0u64),
        ("digest", &digest, digest_repair_bytes),
    ] {
        tsv_row(
            label,
            &[
                run.summary.objects_lost as f64,
                run.summary.objects_alive as f64,
                bytes as f64,
            ],
        );
    }
    checks.check(
        "digest repairs: never worse than no repair",
        digest.summary.objects_lost <= base.summary.objects_lost,
        format!(
            "digest lost {} vs {}",
            digest.summary.objects_lost, base.summary.objects_lost
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
    checks.byte_identical(
        "gossip-enabled run replays byte-identically",
        &replay_a.stats_debug,
        &replay_b.stats_debug,
        None,
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
    checks.byte_identical(
        "gossip-off runs are byte-identical across dead knobs",
        &inert_a.stats_debug,
        &inert_b.stats_debug,
        Some("knob changes leaked into a disabled subsystem"),
    );
    checks.check(
        "gossip-off runs carry zero gossip bytes",
        inert_a.summary.gossip_bytes == 0 && inert_b.summary.gossip_bytes == 0,
        format!(
            "{} / {}",
            inert_a.summary.gossip_bytes, inert_b.summary.gossip_bytes
        ),
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
                .obj("none", json(&base))
                .obj("digest", json(&digest))
                .int("digest_repair_bytes", digest_repair_bytes),
        )
        .obj("replay", json(&replay_a));
    write_bench_json("antientropy", &json);

    std::process::exit(i32::from(!checks.finish()));
}
