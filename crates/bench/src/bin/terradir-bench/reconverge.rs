//! **Reconvergence after repair** — the soft-state self-healing A/B
//! (DESIGN.md §14). One scripted scenario runs twice at the *identical*
//! seed: a partition cut that heals, followed by a correlated crash of
//! half the fleet that mass-recovers. Both events leave the survivors'
//! soft state stale — replica advertisements pointing at servers that
//! reset, negative-cache shadows of the formerly unreachable side — and
//! the per-second *reconvergence curve* (fraction of resolutions that
//! never hit a stale pointer) measures how fast the fleet's knowledge
//! heals:
//!
//! - `repair` — leases, misroute NACK repair, and warm-rejoin
//!   reconciliation all on;
//! - `repair-replay` — the same configuration again, proving the run
//!   replays byte-identically from the seed;
//! - `off` — the repair machinery off. Misroute *detection* is
//!   unconditional, so the baseline's curve is measured on exactly the
//!   same footing; only the healing is missing.
//!
//! Output: both reconvergence curves, and per-event time-to-reconvergence
//! (seconds from the event until the curve reaches ≥ 99 % and stays there
//! for the rest of the observation window). The repair run must
//! reconverge strictly sooner after the heal *and* after the mass
//! recovery.

use terradir::{ChaosAction, ScenarioEvent, System};
use terradir_bench::{
    run_drained, series_tsv, tsv_header, tsv_row, write_bench_json, Args, CutCrashTimeline,
    Drained, JsonObj, Reconvergence, Scale, ShapeChecks,
};
use terradir_workload::StreamPlan;

fn run_scenario(
    scale: &Scale,
    seed: u64,
    repair: bool,
    tl: CutCrashTimeline,
    rate: f64,
) -> Drained<Reconvergence> {
    let ns = scale.ts_namespace();
    let mut cfg = scale.config(seed);
    // Retries in both arms: staleness must cost detours and latency, never
    // lose an admitted query outright.
    cfg.retry.enabled = true;
    // Idle eviction off in both arms: every deletion scatters stale
    // advertisements fleet-wide, and that steady-state churn would bury
    // the event-driven staleness this experiment isolates. Capacity
    // displacement (the anti-thrash path) stays on.
    cfg.evict_weight_threshold = 0.0;
    cfg.partitions.n_groups = 4;
    if repair {
        cfg.leases.enabled = true;
        // Longer than the partition window: a replica idled by the cut is
        // back in use (and use-refreshed) before the sweep reaps it, so
        // the sweep clears event-era staleness without churning healthy
        // soft state. The floor tracks the floored cut width (see
        // `CutCrashTimeline::new`) for the same reason at smoke scales.
        cfg.leases.ttl = scale.duration(40.0).max(14.0);
        cfg.leases.misroute = true;
        cfg.reconcile.enabled = true;
    }
    // A correlated crash *inside* the cut window: the recovered servers
    // reset their soft state, and corrections for pointers at them cannot
    // cross the cut — so the heal releases a backlog of stale state on
    // both sides (a plain cut goes stale far more slowly: nothing on the
    // far side changed).
    let mid_crash_at = tl.cut_at + scale.duration(8.0).max(3.0);
    let mid_recover_at = mid_crash_at + scale.duration(6.0).max(2.5);
    cfg.scenario.events = tl.events();
    cfg.scenario.events.splice(
        1..1,
        [
            ScenarioEvent {
                at: mid_crash_at,
                action: ChaosAction::CorrelatedCrash { fraction: 0.5 },
            },
            ScenarioEvent {
                at: mid_recover_at,
                action: ChaosAction::Recover,
            },
        ],
    );
    cfg.validate()
        .expect("reconverge scenario config must be valid");

    let sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, tl.drain_until), rate);
    run_drained(sys, tl.tail_end, tl.drain_until, |sys| {
        tl.reconvergence(sys)
    })
}

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let tl = CutCrashTimeline::new(&scale);
    // Moderate λ: fast enough for replicas to form and carry load, slow
    // enough that reactive first-touch correction alone cannot fix the
    // whole stale pool instantly (which would mask the sweep's edge). The
    // floor keeps small smoke fleets busy enough to build soft state.
    let rate = scale.rate(8_000.0).max(80.0);

    eprintln!(
        "reconverge: {} servers, λ={rate:.0}/s, cut [{:.0}s, {:.0}s], crash {:.0}s → recover {:.0}s",
        scale.servers, tl.cut_at, tl.heal_at, tl.crash_at, tl.recover_at
    );

    let mut runs = Vec::new();
    for (label, repair) in [("repair", true), ("repair-replay", true), ("off", false)] {
        runs.push((label, run_scenario(&scale, args.seed, repair, tl, rate)));
        eprint!(".");
    }
    eprintln!();

    let (repair, replay, off) = (&runs[0].1, &runs[1].1, &runs[2].1);

    series_tsv(
        "time",
        &["repair", "off"],
        &[&repair.reads.curve, &off.reads.curve],
        1.0,
    );
    println!();
    tsv_header(&[
        "label",
        "ttr_heal",
        "ttr_recover",
        "misroutes",
        "detour_hops",
    ]);
    for (label, r) in &runs {
        tsv_row(
            label,
            &[
                r.reads.ttr_heal,
                r.reads.ttr_recover,
                r.summary.misroutes as f64,
                r.summary.detour_hops as f64,
            ],
        );
    }

    let mut json = JsonObj::new()
        .str("bench", "reconverge")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("cut_at", tl.cut_at)
        .num("heal_at", tl.heal_at)
        .num("crash_at", tl.crash_at)
        .num("recover_at", tl.recover_at)
        .num(
            "time_to_reconvergence",
            repair.reads.ttr_heal.max(repair.reads.ttr_recover),
        );
    for (label, r) in &runs {
        json = json.obj(
            label,
            JsonObj::new()
                .num("ttr_heal", r.reads.ttr_heal)
                .num("ttr_recover", r.reads.ttr_recover)
                .int("misroutes", r.summary.misroutes)
                .int("detour_hops", r.summary.detour_hops)
                .int("lease_evictions", r.summary.lease_evictions)
                .int("reconcile_pushes", r.summary.reconcile_pushes)
                .int("resolved", r.summary.resolved)
                .arr("reconvergence", &r.reads.curve)
                .raw("summary", &r.summary.to_json()),
        );
    }
    write_bench_json("reconverge", &json);

    checks.byte_identical(
        "scenario replays byte-identically from the seed",
        &repair.stats_debug,
        &replay.stats_debug,
        None,
    );
    for (label, r) in &runs {
        checks.accounting_and_audit(label, r);
        checks.check(
            &format!("{label}: events left measurable stale state"),
            r.summary.misroutes > 0,
            format!("{} misroutes detected", r.summary.misroutes),
        );
    }
    checks.check(
        "repair run exercises the lease sweep",
        repair.summary.lease_evictions > 0,
        format!("{} lease evictions", repair.summary.lease_evictions),
    );
    checks.check(
        "repair run exercises warm-rejoin reconciliation",
        repair.summary.reconcile_pushes > 0,
        format!("{} reconcile pushes", repair.summary.reconcile_pushes),
    );
    checks.check(
        "off run draws nothing from the repair machinery",
        off.summary.lease_evictions == 0 && off.summary.reconcile_pushes == 0,
        format!(
            "{} lease evictions, {} reconcile pushes",
            off.summary.lease_evictions, off.summary.reconcile_pushes
        ),
    );
    checks.check(
        "repair run reconverges after both events",
        repair.reads.ttr_heal.is_finite() && repair.reads.ttr_recover.is_finite(),
        format!(
            "heal {:.0}s, recover {:.0}s",
            repair.reads.ttr_heal, repair.reads.ttr_recover
        ),
    );
    // The strict A/B ordering is a statistical claim: it needs enough
    // stale-pointer traffic for the per-second curve to move. Tiny smoke
    // fleets produce a handful of misroutes and both arms reconverge
    // instantly, so below this signal floor the strict checks degrade to
    // "repair is never slower" (the full-scale CI run keeps the strict
    // form — the baseline there sees thousands of misroutes).
    let discriminates = off.summary.misroutes >= 50;
    if discriminates {
        checks.check(
            "repair reconverges strictly sooner after the heal",
            repair.reads.ttr_heal < off.reads.ttr_heal,
            format!(
                "{:.0}s with repair vs {:.0}s without",
                repair.reads.ttr_heal, off.reads.ttr_heal
            ),
        );
        checks.check(
            "repair reconverges strictly sooner after the mass recovery",
            repair.reads.ttr_recover < off.reads.ttr_recover,
            format!(
                "{:.0}s with repair vs {:.0}s without",
                repair.reads.ttr_recover, off.reads.ttr_recover
            ),
        );
    } else {
        checks.check(
            "degraded scale: repair is never slower to reconverge",
            repair.reads.ttr_heal <= off.reads.ttr_heal
                && repair.reads.ttr_recover <= off.reads.ttr_recover,
            format!(
                "heal {:.0}s vs {:.0}s, recover {:.0}s vs {:.0}s ({} baseline misroutes < 50)",
                repair.reads.ttr_heal,
                off.reads.ttr_heal,
                repair.reads.ttr_recover,
                off.reads.ttr_recover,
                off.summary.misroutes
            ),
        );
    }
}
