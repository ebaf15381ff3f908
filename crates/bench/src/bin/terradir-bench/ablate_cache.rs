//! **Ablation: path propagation vs endpoint-only caching** (§2.4).
//!
//! The paper claims the mixture of close and far nodes produced by caching
//! the whole path at every step "performs significantly better than caching
//! the query endpoints". We run the same workload with both policies and
//! compare mean hops, latency, and drops.

use terradir::System;
use terradir_bench::{tsv_header, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(100.0);
    let rate = scale.rate(20_000.0);

    eprintln!("ablate_cache: {} servers, λ={rate:.0}/s", scale.servers);

    tsv_header(&["policy", "hops", "latency_s", "drop_fraction"]);
    let mut rows = Vec::new();
    for (label, path_prop) in [("path-propagation", true), ("endpoints-only", false)] {
        let mut cfg = scale.config(args.seed);
        cfg.path_propagation = path_prop;
        // Digests off so the measurement isolates the caching policy, and
        // a uniform stream so endpoint caching gets no locality for free.
        cfg.digests = false;
        let mut sys = System::new(scale.ts_namespace(), cfg, StreamPlan::unif(total), rate);
        sys.run_until(total);
        let st = sys.stats();
        let hops = st.hops.mean().unwrap_or(0.0);
        let lat = st.latency.mean().unwrap_or(0.0);
        println!("{label}\t{hops:.3}\t{lat:.4}\t{:.4}", st.drop_fraction());
        rows.push((label, hops, lat, st.drop_fraction()));
    }

    checks.check(
        "path propagation takes fewer hops than endpoint caching",
        rows[0].1 < rows[1].1,
        format!("{:.3} vs {:.3} hops", rows[0].1, rows[1].1),
    );
    checks.check(
        "path propagation does not increase drops",
        rows[0].3 <= rows[1].3 + 0.01,
        format!("{:.4} vs {:.4}", rows[0].3, rows[1].3),
    );
}
