//! **Fig. 8** — Replicas created per minute over long runs (paper:
//! 10 000 s) for `unif` and `uzipf(1.00)` streams on both namespaces, at
//! the long-run rates (T_S: λ = 2 500/s, T_C: λ = 5 000/s, scaled).
//!
//! Paper shape: the creation rate decays like an exponential toward a
//! trickle (~2.5 replicas/minute after 10 000 s) — with constant request
//! distributions the replication protocol stabilizes.
//!
//! The quick default runs 1/5 of the paper duration (pass `--time-mult 1`
//! with `--full` for the full 10 000 s).

use terradir::System;
use terradir_bench::{series_tsv, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(mut args: Args, checks: &mut ShapeChecks) {
    if !args.full && (args.time_mult - 1.0).abs() < 1e-12 {
        args.time_mult = 0.12; // quick default: 1 200 s
    }
    let scale = args.scale();
    let total = scale.duration(10_000.0);
    let warmup = scale.duration(100.0);

    eprintln!("fig8: {} servers, {total:.0}s per run", scale.servers);

    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
    // Stabilization is driven by the *absolute* load on the namespace's
    // hot regions (the root's demand is a fixed fraction of λ whatever the
    // fleet size), so the paper's absolute rates are kept, capped so small
    // fleets are not driven past aggregate capacity.
    let cap = scale.servers as f64 * 16.0;
    // T_S keeps (half) the paper's absolute rate: its stabilization is the
    // root region replicating away, an absolute-λ phenomenon. T_C's
    // stabilization is utilization-bound (its bottlenecks are spread over
    // many hot directories), so its rate scales with the fleet to match
    // the paper's utilization — at quick scale the absolute T_C rate would
    // run ~4× hotter than the paper and sustain churn instead of
    // quiescing.
    let div = if args.full { 1.0 } else { 2.0 };
    let rate_s = (2_500.0f64 / div).min(cap);
    let rate_c = if args.full {
        5_000.0
    } else {
        scale.rate(5_000.0)
    };
    let cases: Vec<(String, bool, f64, Option<f64>)> = vec![
        ("unifS".into(), false, rate_s, None),
        ("unifC".into(), true, rate_c, None),
        ("uzipfS1.00".into(), false, rate_s, Some(1.0)),
        ("uzipfC1.00".into(), true, rate_c, Some(1.0)),
    ];
    for (label, coda, paper_rate, order) in cases {
        let ns = if coda {
            scale.tc_namespace(args.seed)
        } else {
            scale.ts_namespace()
        };
        let plan = match order {
            // The paper's long uzipf runs prepend a unif warm-up so
            // hierarchical stabilization does not pollute the curve.
            Some(o) => StreamPlan::adaptation(o, warmup, 1, total - warmup),
            None => StreamPlan::unif(total),
        };
        let mut sys = System::new(ns, scale.config(args.seed), plan, paper_rate);
        sys.run_until(total);
        // Bin per minute.
        let per_sec = sys.stats().replicas_per_sec.bins();
        let minutes = per_sec.len().div_ceil(60);
        let mut per_min = vec![0.0; minutes];
        for (s, &c) in per_sec.iter().enumerate() {
            per_min[s / 60] += c as f64;
        }
        curves.push((label, per_min));
        eprint!(".");
    }
    eprintln!();

    let labels: Vec<&str> = curves.iter().map(|(l, _)| l.as_str()).collect();
    let per_min: Vec<&[f64]> = curves.iter().map(|(_, c)| &c[..]).collect();
    series_tsv("minute", &labels, &per_min, 0.0);

    for (label, c) in &curves {
        if c.len() < 6 {
            continue;
        }
        let head = c[..3].iter().sum::<f64>() / 3.0;
        let tail = c[c.len() - 3..].iter().sum::<f64>() / 3.0;
        checks.check(
            &format!("{label}: creation rate decays like the paper's exponential"),
            tail < head * 0.5 || head < 1.0,
            format!("first-3-min mean {head:.1}/min, last-3-min mean {tail:.1}/min"),
        );
        checks.check(
            &format!("{label}: stabilizes to a trickle"),
            tail <= 30.0,
            format!("tail rate {tail:.1} replicas/min"),
        );
    }
}
