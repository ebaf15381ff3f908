//! **Fig. 3** — Fraction of queries dropped every second over time, T_S
//! namespace, λ = 20 000/s (scaled), for `unif` and `uzipf{0.75, 1.00,
//! 1.25, 1.50}` adaptation streams with four instantaneous popularity
//! reshuffles.
//!
//! Paper shape: drops spike briefly at the start (hierarchical
//! stabilization — a cold system replicating the top of the tree) and at
//! each reshuffle, then fall back to ~0; the overall drop fraction stays
//! within a few percent even for α = 1.5.

use terradir::System;
use terradir_bench::{adaptation_streams, reshuffle_means, series_tsv, Args, ShapeChecks};

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(250.0);
    let rate = scale.rate(20_000.0);

    eprintln!(
        "fig3: {} servers, {} nodes, λ={rate:.0}/s, {total:.0}s per stream",
        scale.servers,
        scale.ts_namespace().len()
    );

    let mut series: Vec<(String, Vec<f64>, f64, Vec<f64>)> = Vec::new(); // label, drops/s fraction, total drop frac, reshuffle times
    for (label, plan) in adaptation_streams(&scale, total) {
        let reshuffles = plan.reshuffle_times();
        let mut sys = System::new(scale.ts_namespace(), scale.config(args.seed), plan, rate);
        sys.run_until(total);
        series.push((
            label,
            sys.stats().drops_per_sec.normalized(rate),
            sys.stats().drop_fraction(),
            reshuffles,
        ));
    }

    // TSV: time, one column per stream.
    let labels: Vec<&str> = series.iter().map(|(l, _, _, _)| l.as_str()).collect();
    let curves: Vec<&[f64]> = series.iter().map(|(_, s, _, _)| &s[..]).collect();
    series_tsv("time", &labels, &curves, 0.0);

    for (label, per_sec, total_frac, reshuffles) in &series {
        checks.check(
            &format!("{label}: overall drops bounded"),
            *total_frac <= 0.10,
            format!("drop fraction {total_frac:.4}"),
        );
        if !reshuffles.is_empty() {
            // Drops concentrate around reshuffles: the mean drop rate in the
            // 10 s after each reshuffle should exceed the overall mean. The
            // 10 s window *before* each shift shows the system recovered
            // from the previous one.
            let overall = per_sec.iter().sum::<f64>() / per_sec.len().max(1) as f64;
            let (before_mean, after_mean) = reshuffle_means(per_sec, reshuffles, 10);
            // With near-zero drops overall there is nothing to
            // concentrate — the check only means something under pressure.
            checks.check(
                &format!("{label}: drops concentrate at reshuffles"),
                after_mean >= overall || overall < 5e-3,
                format!("post-shift mean {after_mean:.5} vs overall {overall:.5}"),
            );
            checks.check(
                &format!("{label}: recovers before the next shift"),
                before_mean <= 0.05,
                format!("pre-shift mean {before_mean:.5}"),
            );
        }
    }
}
