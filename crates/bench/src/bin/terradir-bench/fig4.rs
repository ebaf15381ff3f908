//! **Fig. 4** — Fraction of replicas created every second (relative to λ)
//! over time, T_C (Coda-like file-system) namespace, λ = 40 000/s scaled
//! ("we doubled the query arrival rate to keep the system at approximately
//! the same utilization"), for `unif` and `uzipf{0.75..1.50}` adaptation
//! streams.
//!
//! Paper shape: a burst of replica creation at the start (hierarchical
//! stabilization) and at every popularity reshuffle, decaying in between —
//! the replication model reacting to overload rather than churning.

use terradir::System;
use terradir_bench::{adaptation_streams, reshuffle_means, series_tsv, Args, ShapeChecks};

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(250.0);
    let rate = scale.rate(40_000.0);

    let ns_len = scale.tc_namespace(args.seed).len();
    eprintln!(
        "fig4: {} servers, {} T_C nodes, λ={rate:.0}/s, {total:.0}s per stream",
        scale.servers, ns_len
    );

    let mut series: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for (label, plan) in adaptation_streams(&scale, total) {
        let reshuffles = plan.reshuffle_times();
        let mut sys = System::new(
            scale.tc_namespace(args.seed),
            scale.config(args.seed),
            plan,
            rate,
        );
        sys.run_until(total);
        series.push((
            label,
            sys.stats().replicas_per_sec.normalized(rate),
            reshuffles,
        ));
    }

    let labels: Vec<&str> = series.iter().map(|(l, _, _)| l.as_str()).collect();
    let curves: Vec<&[f64]> = series.iter().map(|(_, s, _)| &s[..]).collect();
    series_tsv("time", &labels, &curves, 0.0);

    for (label, per_sec, reshuffles) in &series {
        if per_sec.len() < 20 {
            continue;
        }
        // Creation decays: the last fifth of the run creates fewer replicas
        // per second than the first fifth (stabilization).
        let fifth = per_sec.len() / 5;
        let head: f64 = per_sec[..fifth].iter().sum::<f64>() / fifth as f64;
        let tail: f64 = per_sec[per_sec.len() - fifth..].iter().sum::<f64>() / fifth as f64;
        checks.check(
            &format!("{label}: creation decays over the run"),
            tail <= head || head < 1e-7,
            format!("head {head:.6} tail {tail:.6}"),
        );
        if !reshuffles.is_empty() {
            // Compare the 15 s after each shift against the 15 s before it
            // — the reaction must stand out from the local baseline.
            let (before_mean, after_mean) = reshuffle_means(per_sec, reshuffles, 15);
            checks.check(
                &format!("{label}: creation bursts at reshuffles"),
                after_mean >= before_mean || before_mean < 1e-7,
                format!("post-shift mean {after_mean:.6} vs pre-shift {before_mean:.6}"),
            );
        }
    }
}
