//! **Chaos scenario** — the canonical scripted cut → heal → flash-crowd
//! run (DESIGN.md §13). A four-group partition relation isolates group 0
//! (one quarter of the fleet) for a window, heals, and is then followed
//! by a 10× flash crowd aimed at a single deep leaf. Three systems run
//! at the *identical* seed:
//!
//! - `shed` — deepest-TTL load shedding on (graceful degradation);
//! - `shed-replay` — the same configuration again, proving the whole
//!   scripted scenario replays byte-identically from the seed;
//! - `fifo` — shedding off, so the flash crowd is absorbed by plain
//!   FIFO tail drop.
//!
//! Output: per-second availability split by partition side (the minority
//! side dips during the cut and recovers after the heal), the shed-vs-
//! overflow drop split, and the resolved-query totals over the flash
//! window showing that shedding resolves strictly more work than FIFO.

use terradir::{ChaosAction, ScenarioEvent, System};
use terradir_bench::{
    pct, run_drained, series_tsv, time_back_to_baseline, tsv_header, tsv_row, window_mean,
    write_bench_json, Args, Drained, JsonObj, Scale, ShapeChecks,
};
use terradir_workload::StreamPlan;

/// Timeline of the scripted scenario (all in simulated seconds).
#[derive(Debug, Clone, Copy)]
struct Timeline {
    cut_at: f64,
    heal_at: f64,
    flash_at: f64,
    flash_end: f64,
    tail_end: f64,
    drain_until: f64,
}

impl Timeline {
    fn new(scale: &Scale) -> Timeline {
        let cut_at = scale.duration(30.0);
        let heal_at = cut_at + scale.duration(25.0);
        let flash_at = heal_at + scale.duration(25.0);
        let flash_end = flash_at + scale.duration(20.0);
        let tail_end = flash_end + scale.duration(15.0);
        // Unscaled drain so in-flight traffic settles even at small
        // time multipliers.
        let drain_until = tail_end + 15.0;
        Timeline {
            cut_at,
            heal_at,
            flash_at,
            flash_end,
            tail_end,
            drain_until,
        }
    }

    /// The scenario script: cut group 0, heal, then a 10× flash crowd on
    /// `node`.
    fn events(&self, node: u32) -> Vec<ScenarioEvent> {
        let at = |at, action| ScenarioEvent { at, action };
        let flash = |rate_multiplier| ChaosAction::FlashCrowd {
            node,
            rate_multiplier,
        };
        vec![
            at(self.cut_at, ChaosAction::Cut { groups: vec![0] }),
            at(self.heal_at, ChaosAction::Heal),
            at(self.flash_at, flash(10.0)),
            at(self.flash_end, flash(1.0)),
        ]
    }
}

/// What one arm reads off its finished system.
struct Chaos {
    minority_avail: Vec<f64>,
    majority_avail: Vec<f64>,
    flash_resolved: u64,
    minority_dip: f64,
    recovery_mean: f64,
    time_to_baseline: f64,
    dropped_queue: u64,
}

fn run_chaos(scale: &Scale, seed: u64, shed: bool, tl: Timeline, rate: f64) -> Drained<Chaos> {
    let ns = scale.ts_namespace();
    let hot_node = (ns.len() - 1) as u32;

    let mut cfg = scale.config(seed);
    cfg.shedding = shed;
    cfg.partitions.n_groups = 4;
    cfg.scenario.events = tl.events(hot_node);
    cfg.validate().expect("chaos scenario config must be valid");

    let sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, tl.drain_until), rate);
    run_drained(sys, tl.tail_end, tl.drain_until, |sys| {
        let st = sys.stats();
        let minority_avail = st.availability_minority();
        let majority_avail = st.availability_majority();
        let resolved_bins = st.resolved_per_sec.bins();

        // Resolved work over the flash window (plus a short completion
        // tail: results of queries admitted late in the window).
        let flash_lo = tl.flash_at as usize;
        let flash_hi = (tl.flash_end as usize + 3).min(resolved_bins.len());
        let flash_resolved: u64 = resolved_bins[flash_lo.min(resolved_bins.len())..flash_hi]
            .iter()
            .sum();

        // Worst minority-side second while the cut is active.
        let (cut_bin, heal_bin) = (tl.cut_at as usize, tl.heal_at as usize);
        let minority_dip = minority_avail
            [cut_bin.min(minority_avail.len())..heal_bin.min(minority_avail.len())]
            .iter()
            .copied()
            .fold(1.0f64, f64::min);

        // Post-heal recovery: mean minority availability over (up to) the
        // last 10 s before the flash crowd, and the time back to 95 % of
        // the pre-cut baseline measured from the heal. The recovery
        // window skips the heal bin itself: the cut is active for part
        // of it.
        let flash_bin = tl.flash_at as usize;
        let rec_lo = flash_bin.saturating_sub(10).max(heal_bin + 1);
        let recovery_mean = window_mean(&minority_avail, rec_lo, flash_bin);
        let time_to_baseline = time_back_to_baseline(&minority_avail, tl.cut_at, tl.heal_at);
        Chaos {
            minority_avail,
            majority_avail,
            flash_resolved,
            minority_dip,
            recovery_mean,
            time_to_baseline,
            dropped_queue: st.dropped_queue,
        }
    })
}

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let tl = Timeline::new(&scale);
    let rate = scale.rate(20_000.0);

    eprintln!(
        "chaos: {} servers, λ={rate:.0}/s, cut [{:.0}s, {:.0}s], flash ×10 [{:.0}s, {:.0}s]",
        scale.servers, tl.cut_at, tl.heal_at, tl.flash_at, tl.flash_end
    );

    let mut runs = Vec::new();
    for (label, shed) in [("shed", true), ("shed-replay", true), ("fifo", false)] {
        runs.push((label, run_chaos(&scale, args.seed, shed, tl, rate)));
        eprint!(".");
    }
    eprintln!();

    // Per-side availability curves for the shed run.
    let shed_run = &runs[0].1.reads;
    series_tsv(
        "time",
        &["minority", "majority"],
        &[&shed_run.minority_avail, &shed_run.majority_avail],
        1.0,
    );
    println!();
    tsv_header(&[
        "label",
        "minority_dip",
        "recovery_mean",
        "time_to_baseline",
        "flash_resolved",
    ]);
    for (label, r) in &runs {
        let c = &r.reads;
        tsv_row(
            label,
            &[
                c.minority_dip,
                c.recovery_mean,
                c.time_to_baseline,
                c.flash_resolved as f64,
            ],
        );
    }

    let mut json = JsonObj::new()
        .str("bench", "chaos")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("cut_at", tl.cut_at)
        .num("heal_at", tl.heal_at)
        .num("flash_at", tl.flash_at)
        .num("flash_end", tl.flash_end);
    for (label, r) in &runs {
        let (c, s) = (&r.reads, &r.summary);
        json = json.obj(
            label,
            JsonObj::new()
                .num("minority_dip", c.minority_dip)
                .num("recovery_mean", c.recovery_mean)
                .num("time_to_baseline", c.time_to_baseline)
                .int("flash_resolved", c.flash_resolved)
                .int("messages_cut", s.messages_cut)
                .int("flash_injected", s.flash_injected)
                .int("dropped_shed", s.dropped_shed)
                .int("dropped_partition", s.dropped_partition)
                .int("dropped_queue", c.dropped_queue)
                .arr("minority_availability", &c.minority_avail)
                .arr("majority_availability", &c.majority_avail)
                .raw("summary", &s.to_json()),
        );
    }
    write_bench_json("chaos", &json);

    checks.byte_identical(
        "scenario replays byte-identically from the seed",
        &runs[0].1.stats_debug,
        &runs[1].1.stats_debug,
        None,
    );
    for (label, r) in &runs {
        let s = &r.summary;
        checks.check(
            &format!("{label}: cut and heal both executed"),
            s.cuts_applied == 1 && s.heals_applied == 1,
            format!("{} cuts, {} heals", s.cuts_applied, s.heals_applied),
        );
        checks.check(
            &format!("{label}: cut actually severed traffic"),
            s.messages_cut > 0 && s.dropped_partition > 0,
            format!(
                "{} messages cut, {} partition drops",
                s.messages_cut, s.dropped_partition
            ),
        );
        checks.check(
            &format!("{label}: flash crowd injected extra load"),
            s.flash_injected > 0,
            format!("{} flash queries", s.flash_injected),
        );
        checks.accounting_and_audit(label, r);
    }
    let (shed, fifo) = (&runs[0].1, &runs[2].1);
    checks.check(
        "minority side dips while the cut is active",
        shed.reads.minority_dip < 0.6,
        format!(
            "worst minority-side second {}",
            pct(shed.reads.minority_dip)
        ),
    );
    checks.check(
        "minority side recovers after the heal",
        shed.reads.recovery_mean > 0.9 && shed.reads.time_to_baseline.is_finite(),
        format!(
            "pre-flash mean {}, back to baseline {:.0}s after heal",
            pct(shed.reads.recovery_mean),
            shed.reads.time_to_baseline
        ),
    );
    checks.check(
        "shedding resolves strictly more flash-window work than FIFO",
        shed.reads.flash_resolved > fifo.reads.flash_resolved,
        format!(
            "{} resolved with shedding vs {} with FIFO",
            shed.reads.flash_resolved, fifo.reads.flash_resolved
        ),
    );
    checks.check(
        "shed run drops only via the shedding policy",
        shed.summary.dropped_shed > 0 && shed.reads.dropped_queue == 0,
        format!(
            "{} shed drops, {} queue drops",
            shed.summary.dropped_shed, shed.reads.dropped_queue
        ),
    );
    checks.check(
        "fifo run drops only via queue overflow",
        fifo.summary.dropped_shed == 0 && fifo.reads.dropped_queue > 0,
        format!(
            "{} shed drops, {} queue drops",
            fifo.summary.dropped_shed, fifo.reads.dropped_queue
        ),
    );
}
