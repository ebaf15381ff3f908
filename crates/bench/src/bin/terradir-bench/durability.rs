//! **Durability under churn** — the replicated object store A/B
//! (DESIGN.md §17). Two sweeps over the storage subsystem, every run at
//! the identical seed so arms differ only in the knob under test:
//!
//! - **Churn sweep** (objects-lost curve): churn intensity
//!   {none, mild, heavy} × taciturn digest gossip {off, on}, with the
//!   write driver off — so durability must come from re-replication,
//!   not from writes resurrecting lost objects. With gossip off a
//!   recovered server's store stays empty forever; an object survives
//!   only if some replica never crashed. Gossip on must dominate: never
//!   more objects lost, strictly fewer wherever the baseline loses any.
//! - **Write-rate sweep** (stale-reads curve): write rate
//!   {low, mid, high} × read policy {any-replica, quorum} across a
//!   partition window. Churn cannot create stale copies here — a crash
//!   wipes the store, so a replica holds the latest version or nothing
//!   — but a cut can: puts crossing the cut drop while the isolated
//!   replicas keep their old copies. More writes during the cut, more
//!   stale copies. Quorum reads probe every replica and take the
//!   freshest reachable copy; the headline metric is the **fresh-read
//!   fraction** (reads returning the latest committed version over all
//!   attempts), where quorum must dominate. Raw stale counts are NOT
//!   comparable across policies: an any-replica probe to a severed
//!   replica *fails* instead of returning stale, so failures deflate
//!   its stale count while quorum completes those same reads.
//!
//! - **Replication-factor sweep**: rf {1, 2, 3} under mild churn with
//!   gossip on. More copies, more crash draws survived between gossip
//!   repairs: objects lost must not increase with rf. The arm at the
//!   default rf is the churn sweep's mild gossip-on run, reused rather
//!   than simulated twice.
//!
//! A replay arm re-runs one storage-enabled configuration and compares
//! the full `RunStats` debug rendering byte-for-byte, and a storage-off
//! run asserts every storage counter stays zero (the subsystem is
//! inert unless asked for).

use terradir::{ChaosAction, Config, GossipCulture, ScenarioEvent, Summary, System};
use terradir_bench::{
    churn_window, gossip_on, run_drained, tsv_header, tsv_row, write_bench_json, Args, JsonObj,
    Scale, ShapeChecks,
};
use terradir_workload::StreamPlan;

/// Churn intensity of one sweep point, as fractions of the run length.
#[derive(Debug, Clone, Copy)]
struct ChurnLevel {
    label: &'static str,
    /// Mean uptime as a fraction of the run (0 = churn disabled).
    uptime_frac: f64,
}

const CHURN_LEVELS: [ChurnLevel; 3] = [
    ChurnLevel {
        label: "none",
        uptime_frac: 0.0,
    },
    ChurnLevel {
        label: "mild",
        uptime_frac: 0.5,
    },
    ChurnLevel {
        label: "heavy",
        uptime_frac: 0.12,
    },
];

/// Write rates (puts/second across the object set) for the stale-read
/// sweep.
const WRITE_RATES: [f64; 3] = [5.0, 20.0, 60.0];

/// One finished run's storage outcome.
struct Run {
    objects_written: u64,
    objects_alive: u64,
    objects_lost: u64,
    object_reads: u64,
    reads_failed: u64,
    stale_reads: u64,
    gossip_bytes: u64,
    stats_debug: String,
    summary: Summary,
}

impl Run {
    fn json(&self) -> JsonObj {
        JsonObj::new()
            .int("objects_written", self.objects_written)
            .int("objects_alive", self.objects_alive)
            .int("objects_lost", self.objects_lost)
            .int("object_reads", self.object_reads)
            .int("reads_failed", self.reads_failed)
            .int("stale_reads", self.stale_reads)
            .int("gossip_bytes", self.gossip_bytes)
            .raw("summary", &self.summary.to_json())
    }
}

/// Builds the storage configuration for one run. `uptime_frac == 0`
/// disables churn. `gossip` turns on taciturn digest gossip, the
/// object-repair path. `write_rate == 0` silences the write driver (the
/// churn sweep measures repair, not overwrite-resurrection). `cut`
/// severs a quarter of the fleet over the middle of the run — the
/// staleness generator for the write sweep, since only a partition
/// leaves replicas holding *old* copies (a crash wipes the store).
fn build_cfg(
    scale: &Scale,
    seed: u64,
    dur: f64,
    uptime_frac: f64,
    cut: bool,
    gossip: bool,
    quorum: bool,
    write_rate: f64,
) -> Config {
    let mut cfg = scale.config(seed);
    cfg.storage.enabled = true;
    cfg.storage.quorum_reads = quorum;
    cfg.storage.write_rate = write_rate;
    cfg.storage.read_rate = 40.0;
    // Short enough that reads issued near the end finalize in the drain.
    cfg.storage.read_timeout = (dur * 0.05).clamp(0.2, 2.0);
    if gossip {
        // ~12 rounds per run regardless of duration. A wide fanout: a
        // wiped server re-fills only by soliciting a peer that holds its
        // copies.
        gossip_on(&mut cfg, GossipCulture::Taciturn, (dur / 12.0).max(0.05), 6);
    }
    if uptime_frac > 0.0 {
        churn_window(&mut cfg, dur, uptime_frac);
    }
    if cut {
        cfg.partitions.n_groups = 4;
        let at = |at, action| ScenarioEvent { at, action };
        cfg.scenario.events = vec![
            at(dur * 0.25, ChaosAction::Cut { groups: vec![1] }),
            at(dur * 0.65, ChaosAction::Heal),
        ];
    }
    cfg
}

fn run_one(scale: &Scale, cfg: Config, dur: f64) -> Run {
    let drain = dur + cfg.storage.read_timeout + cfg.churn.mean_downtime * 4.0 + 2.0;
    let ns = scale.ts_namespace();
    let sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, dur), scale.rate(4000.0));
    let run = run_drained(sys, dur, drain, System::measure_durability);
    let (alive, lost) = run.reads;
    let s = run.summary;
    assert_eq!(
        s.objects_written,
        alive + lost,
        "durability identity broken"
    );
    Run {
        objects_written: s.objects_written,
        objects_alive: alive,
        objects_lost: lost,
        object_reads: s.object_reads,
        reads_failed: s.reads_failed,
        stale_reads: s.stale_reads,
        gossip_bytes: s.gossip_bytes,
        stats_debug: run.stats_debug,
        summary: s,
    }
}

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let dur = scale.duration(60.0).max(5.0);
    println!(
        "# durability: {} servers, {:.1}s runs, seed {}",
        scale.servers, dur, args.seed
    );

    // ---- Churn sweep: objects lost vs churn, gossip off vs on --------
    tsv_header(&[
        "arm",
        "lost",
        "alive",
        "written",
        "gossip_bytes",
        "reads_failed",
    ]);
    let mut lost_off = Vec::new();
    let mut lost_on = Vec::new();
    let mut churn_json = JsonObj::new();
    // Every gossip-on churn run, keyed by its config's debug rendering,
    // for the rf sweep to reuse.
    let mut gossip_runs = Vec::new();
    for level in CHURN_LEVELS {
        let mut per_level = JsonObj::new();
        for gossip in [false, true] {
            let cfg = build_cfg(
                &scale,
                args.seed,
                dur,
                level.uptime_frac,
                false,
                gossip,
                true,
                0.0,
            );
            let key = format!("{cfg:?}");
            let run = run_one(&scale, cfg, dur);
            let arm = if gossip { "gossip_on" } else { "gossip_off" };
            let label = format!("churn_{}_{arm}", level.label);
            tsv_row(
                &label,
                &[
                    run.objects_lost as f64,
                    run.objects_alive as f64,
                    run.objects_written as f64,
                    run.gossip_bytes as f64,
                    run.reads_failed as f64,
                ],
            );
            if gossip {
                lost_on.push(run.objects_lost as f64);
            } else {
                lost_off.push(run.objects_lost as f64);
                checks.check(
                    &format!("gossip-off carries zero gossip bytes ({})", level.label),
                    run.gossip_bytes == 0,
                    format!("{} gossip bytes with gossip disabled", run.gossip_bytes),
                );
            }
            per_level = per_level.obj(arm, run.json());
            if gossip {
                gossip_runs.push((key, run));
            }
        }
        churn_json = churn_json.obj(level.label, per_level);
    }
    for (i, level) in CHURN_LEVELS.iter().enumerate() {
        let (off, on) = (lost_off[i], lost_on[i]);
        checks.check(
            &format!("gossip never loses more ({})", level.label),
            on <= off,
            format!("gossip-on lost {on}, gossip-off lost {off}"),
        );
        // Strict dominance wherever the baseline loses anything. At
        // degenerate smoke scales the baseline may lose nothing — then
        // the ≤ check above is the whole claim.
        if off > 0.0 {
            checks.check(
                &format!("gossip strictly dominates ({})", level.label),
                on < off,
                format!("baseline lost {off} but gossip-on also lost {on}"),
            );
        }
    }
    checks.check(
        "no churn, nothing lost",
        lost_off[0] == 0.0 && lost_on[0] == 0.0,
        format!("lost {}/{} without churn", lost_off[0], lost_on[0]),
    );

    // ---- Write-rate sweep: stale reads vs write rate, any vs quorum --
    tsv_header(&["arm", "stale", "reads", "failed", "fresh_frac"]);
    let mut stale_any = Vec::new();
    let mut stale_quorum = Vec::new();
    let mut fresh_any = Vec::new();
    let mut fresh_quorum = Vec::new();
    let mut write_json = JsonObj::new();
    for &rate in &WRITE_RATES {
        let mut per_rate = JsonObj::new();
        for quorum in [false, true] {
            let cfg = build_cfg(&scale, args.seed, dur, 0.0, true, true, quorum, rate);
            let run = run_one(&scale, cfg, dur);
            let label = format!("w{:.0}_{}", rate, if quorum { "quorum" } else { "any" });
            // Fresh-read fraction: reads that returned the latest
            // committed version, over every attempt (completed or
            // failed). This is the cross-policy metric — raw stale
            // counts are not comparable, because an any-replica probe
            // to an unreachable replica fails instead of returning a
            // stale copy, hiding staleness inside the failure count.
            let attempts = run.object_reads + run.reads_failed;
            let frac = if attempts == 0 {
                1.0
            } else {
                (run.object_reads - run.stale_reads) as f64 / attempts as f64
            };
            tsv_row(
                &label,
                &[
                    run.stale_reads as f64,
                    run.object_reads as f64,
                    run.reads_failed as f64,
                    frac,
                ],
            );
            checks.check(
                &format!("reads complete ({label})"),
                run.object_reads > 0,
                format!("{} completed reads", run.object_reads),
            );
            checks.check(
                &format!("stale within reads ({label})"),
                run.stale_reads <= run.object_reads,
                format!("stale {} > reads {}", run.stale_reads, run.object_reads),
            );
            if quorum {
                stale_quorum.push(run.stale_reads as f64);
                fresh_quorum.push(frac);
            } else {
                stale_any.push(run.stale_reads as f64);
                fresh_any.push(frac);
            }
            per_rate = per_rate.obj(if quorum { "quorum" } else { "any" }, run.json());
        }
        write_json = write_json.obj(&format!("rate_{rate:.0}"), per_rate);
    }
    // Quorum reads must deliver the latest version at least as often as
    // any-replica reads at every write rate, and strictly more often
    // overall (they probe every replica, keep the freshest reachable
    // reply, and never waste an attempt on a single severed replica).
    for (i, &rate) in WRITE_RATES.iter().enumerate() {
        checks.check(
            &format!("quorum fresh-read fraction dominates (w{rate:.0})"),
            fresh_quorum[i] >= fresh_any[i],
            format!("quorum {:.3} < any {:.3}", fresh_quorum[i], fresh_any[i]),
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    checks.check(
        "quorum strictly fresher on average",
        mean(&fresh_quorum) > mean(&fresh_any),
        format!(
            "quorum mean {:.3} vs any mean {:.3}",
            mean(&fresh_quorum),
            mean(&fresh_any)
        ),
    );

    // ---- Replication-factor sweep: copies vs objects lost ------------
    tsv_header(&["arm", "lost", "alive", "gossip_bytes"]);
    let mut lost_by_rf = Vec::new();
    let mut rf_json = JsonObj::new();
    for rf in [1u32, 2, 3] {
        let mut cfg = build_cfg(&scale, args.seed, dur, 0.5, false, true, true, 0.0);
        cfg.storage.replication_factor = rf;
        let key = format!("{cfg:?}");
        let run = match gossip_runs.iter().position(|(k, _)| *k == key) {
            Some(i) => gossip_runs.swap_remove(i).1,
            None => run_one(&scale, cfg, dur),
        };
        tsv_row(
            &format!("rf{rf}"),
            &[
                run.objects_lost as f64,
                run.objects_alive as f64,
                run.gossip_bytes as f64,
            ],
        );
        lost_by_rf.push(run.objects_lost as f64);
        rf_json = rf_json.obj(&format!("rf_{rf}"), run.json());
    }
    for w in lost_by_rf.windows(2) {
        checks.check(
            "more copies never lose more objects",
            w[1] <= w[0],
            format!("losses rose from {} to {} with an extra copy", w[0], w[1]),
        );
    }

    // ---- Replay + inertness arms -------------------------------------
    let replay_cfg = || {
        build_cfg(
            &scale,
            args.seed,
            dur,
            0.12,
            true,
            true,
            true,
            WRITE_RATES[1],
        )
    };
    let a = run_one(&scale, replay_cfg(), dur);
    let b = run_one(&scale, replay_cfg(), dur);
    checks.byte_identical(
        "storage-enabled run replays byte-identically",
        &a.stats_debug,
        &b.stats_debug,
        Some("two runs at one seed diverged"),
    );

    let off_cfg = scale.config(args.seed); // storage disabled by default
    let off = run_one(&scale, off_cfg, dur);
    checks.check(
        "storage-off is inert",
        off.objects_written == 0
            && off.object_reads == 0
            && off.reads_failed == 0
            && off.stale_reads == 0
            && off.gossip_bytes == 0,
        format!(
            "{} written, {} reads, {} failed, {} stale, {} gossip bytes",
            off.objects_written,
            off.object_reads,
            off.reads_failed,
            off.stale_reads,
            off.gossip_bytes
        ),
    );

    let json = JsonObj::new()
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("duration_s", dur)
        .arr("objects_lost_gossip_off", &lost_off)
        .arr("objects_lost_gossip_on", &lost_on)
        .arr("write_rates", &WRITE_RATES)
        .arr("stale_reads_any", &stale_any)
        .arr("stale_reads_quorum", &stale_quorum)
        .arr("fresh_frac_any", &fresh_any)
        .arr("fresh_frac_quorum", &fresh_quorum)
        .arr("objects_lost_by_rf", &lost_by_rf)
        .obj("churn_sweep", churn_json)
        .obj("write_sweep", write_json)
        .obj("rf_sweep", rf_json)
        .obj("replay", a.json());
    write_bench_json("durability", &json);
}
