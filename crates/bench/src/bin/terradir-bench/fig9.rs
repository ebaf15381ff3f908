//! **Fig. 9** — Scalability: average query latency, replication events,
//! and dropped queries as a function of system size.
//!
//! Paper setup: servers 2^9..2^14 in powers of two, 8 nodes per server
//! (balanced binary tree), cache sizes and R_map growing logarithmically
//! with system size, λ proportional to system size. Paper shape: latency
//! scales logarithmically, replication events linearly, drops roughly
//! linearly.
//!
//! The quick default sweeps 2^5..2^10; `--full` runs the paper's 2^9..2^14.

use terradir::System;
use terradir_bench::{tsv_header, Args, Scale, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let sizes: Vec<u32> = if args.full {
        (9..=14).map(|k| 1u32 << k).collect()
    } else {
        (5..=10).map(|k| 1u32 << k).collect()
    };
    let duration = 100.0 * args.time_mult;

    eprintln!("fig9: sizes {sizes:?}, {duration:.0}s per size");

    tsv_header(&[
        "servers",
        "latency_s",
        "hops",
        "replications",
        "drops",
        "injected",
    ]);
    let mut rows: Vec<(u32, f64, f64, u64, u64, u64)> = Vec::new();
    for (i, &servers) in sizes.iter().enumerate() {
        let scale = Scale::for_servers(servers, args.time_mult);
        let mut cfg = scale.config(args.seed);
        // Cache slots and R_map grow logarithmically with system size
        // (paper: 18..28 slots and R_map 2..7 across 2^9..2^14).
        cfg.cache_slots = if args.full { 18 + 2 * i } else { 10 + 2 * i };
        cfg.r_map = 2 + i;
        // λ proportional to size: the paper's 2 500/s at 512 servers.
        let rate = 2_500.0 * servers as f64 / 512.0;
        // A uniform warm-up absorbs the hierarchical cold start before the
        // measured Zipf phase (as the paper's composite streams do).
        let warmup = 30.0 * args.time_mult;
        let plan = StreamPlan::adaptation(1.0, warmup, 1, duration);
        let mut sys = System::new(scale.ts_namespace(), cfg, plan, rate);
        sys.run_until(warmup + duration);
        let st = sys.stats();
        let latency = st.latency.mean().unwrap_or(0.0);
        let hops = st.hops.mean().unwrap_or(0.0);
        println!(
            "{servers}\t{latency:.4}\t{hops:.3}\t{}\t{}\t{}",
            st.replicas_created,
            st.dropped_total(),
            st.injected
        );
        rows.push((
            servers,
            latency,
            hops,
            st.replicas_created,
            st.dropped_total(),
            st.injected,
        ));
        eprint!(".");
    }
    eprintln!();

    let first = rows.first().expect("at least one size");
    let last = rows.last().expect("at least one size");
    // Latency grows (at most) logarithmically: across a 32× size sweep it
    // must grow far slower than the size — allow a 3× envelope.
    checks.check(
        "latency scales ~logarithmically",
        last.1 <= first.1 * 3.0 + 0.05,
        format!(
            "{:.4}s at {} → {:.4}s at {}",
            first.1, first.0, last.1, last.0
        ),
    );
    // Replication events grow roughly with size (λ ∝ size means the
    // replica population a Zipf head needs is ∝ size, with an extra log
    // factor from the deepening hot tail). Measure from the third size so
    // the near-zero smallest systems do not inflate the ratio.
    let base = &rows[rows.len().min(3) - 1];
    let mid_size_factor = last.0 as f64 / base.0 as f64;
    let repl_factor = last.3 as f64 / (base.3 as f64).max(1.0);
    checks.check(
        "replication events grow with size (monotone, sub-cubic)",
        repl_factor <= mid_size_factor.powf(2.5) && repl_factor >= mid_size_factor / 8.0,
        format!("events ×{repl_factor:.1} over size ×{mid_size_factor:.0} (paper: ~linear on a log plot; see EXPERIMENTS.md)"),
    );
    // Drop *fraction* stays bounded as the system grows (the paper's drop
    // *count* is ~linear in size, i.e. a bounded fraction).
    let first_frac = first.4 as f64 / first.5.max(1) as f64;
    let last_frac = last.4 as f64 / last.5.max(1) as f64;
    checks.check(
        "drop fraction stays bounded with size",
        last_frac <= (first_frac * 3.0).max(0.08),
        format!(
            "{first_frac:.4} at {} → {last_frac:.4} at {}",
            first.0, last.0
        ),
    );
}
