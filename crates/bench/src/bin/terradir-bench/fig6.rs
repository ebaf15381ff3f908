//! **Fig. 6** — Average and maximum server load (utilization) per second
//! for the `uzipf_TS(1.00)` adaptation stream at λ ∈ {4 000, 10 000,
//! 20 000}/s (scaled); right panel: the per-second maximum smoothed with an
//! 11-second rolling mean.
//!
//! Paper shape: periodic peaks at the popularity reshuffles; the maximum
//! load falls back below T_high between shifts; the 11 s-smoothed maximum
//! approaches the mean, showing that highly-loaded servers are transient.

use terradir::System;
use terradir_bench::{series_tsv, Args, ShapeChecks};
use terradir_sim::rolling_mean;
use terradir_workload::StreamPlan;

type Curve = (String, Vec<f64>, Vec<f64>, Vec<f64>);

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(250.0);
    let rates = [4_000.0, 10_000.0, 20_000.0];

    eprintln!(
        "fig6: {} servers, {total:.0}s, λ ∈ {:?}",
        scale.servers,
        rates.map(|r| scale.rate(r))
    );

    let warmup = scale.duration(50.0);
    let shifts = 4usize;
    let seg = ((total - warmup) / shifts as f64).max(1.0);

    let mut curves: Vec<Curve> = Vec::new();
    for &paper_rate in &rates {
        let rate = scale.rate(paper_rate);
        let plan = StreamPlan::adaptation(1.0, warmup, shifts, seg);
        let mut sys = System::new(scale.ts_namespace(), scale.config(args.seed), plan, rate);
        sys.run_until(total);
        let st = sys.stats();
        let mean = st.load_mean_per_sec.clone();
        let max = st.load_max_per_sec.clone();
        let max11 = rolling_mean(&max, 11);
        curves.push((format!("λ{paper_rate:.0}"), mean, max, max11));
        eprint!(".");
    }
    eprintln!();

    let mut cols: Vec<String> = Vec::new();
    let mut flat: Vec<&[f64]> = Vec::new();
    for (l, mean, max, max11) in &curves {
        cols.push(format!("{l}_avg"));
        cols.push(format!("{l}_max"));
        cols.push(format!("{l}_max11"));
        flat.extend([&mean[..], &max[..], &max11[..]]);
    }
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    series_tsv("time", &cols, &flat, 0.0);

    let t_high = scale.config(args.seed).t_high;
    for (label, mean, max, max11) in &curves {
        // Mean load ordering sanity: higher λ → higher mean utilization.
        let steady_mean =
            mean[mean.len() / 2..].iter().sum::<f64>() / (mean.len() - mean.len() / 2) as f64;
        // Between shifts, the max load must dip back under T_high: check
        // the 10 s before each shift (shifts at warmup + k·seg).
        let mut recovered = 0usize;
        let mut windows = 0usize;
        for k in 1..=shifts {
            let shift_t = (warmup + k as f64 * seg) as usize;
            let lo = shift_t.saturating_sub(10).min(max.len());
            let hi = shift_t.min(max.len());
            if lo >= hi {
                continue;
            }
            windows += 1;
            let m = max[lo..hi].iter().copied().fold(0.0, f64::max);
            if max[lo..hi].iter().copied().fold(f64::INFINITY, f64::min) < t_high {
                recovered += 1;
            } else {
                eprintln!("# window before shift {k}: min max-load {m:.3}");
            }
        }
        checks.check(
            &format!("{label}: max load recovers below T_high between shifts"),
            windows == 0 || recovered >= windows - 1,
            format!("{recovered}/{windows} pre-shift windows recovered"),
        );
        // Smoothing brings the max toward the mean (transient hot spots).
        let raw_max_mean = max.iter().sum::<f64>() / max.len() as f64;
        let smooth_peak = max11.iter().copied().fold(0.0, f64::max);
        let raw_peak = max.iter().copied().fold(0.0, f64::max);
        checks.check(
            &format!("{label}: smoothed max below raw peak"),
            smooth_peak <= raw_peak + 1e-9,
            format!(
                "steady mean {steady_mean:.3}, raw max mean {raw_max_mean:.3}, raw peak {raw_peak:.3}, smoothed peak {smooth_peak:.3}"
            ),
        );
    }
}
