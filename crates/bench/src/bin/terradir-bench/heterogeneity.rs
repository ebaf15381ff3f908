//! **Extension: exploiting server heterogeneity** (§5).
//!
//! "A recent analysis of two popular P2P file sharing systems concludes
//! that the most distinguishing feature of these systems is their
//! heterogeneity. We believe that the adaptive nature of our replication
//! model makes it a first-class candidate for exploiting system
//! heterogeneity." The paper never tests this; this experiment does.
//!
//! Fleets with per-server speed spreads of 1× (homogeneous), 2×, and 4× —
//! aggregate capacity held constant — run the same skewed workload with
//! and without adaptive replication. The normalized load metric (busy
//! fraction) automatically accounts for speed, so the replication protocol
//! should shed work from slow servers toward fast ones and keep drops
//! near the homogeneous level; without replication, slow servers become
//! fixed bottlenecks.

use terradir::{Config, System};
use terradir_bench::{pct, tsv_header, write_bench_json, Args, JsonObj, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(120.0);
    let rate = scale.rate(20_000.0);
    let spreads = [1.0, 2.0, 4.0];

    eprintln!("heterogeneity: {} servers, λ={rate:.0}/s", scale.servers);

    tsv_header(&[
        "spread",
        "bcr_drops",
        "bc_drops",
        "bcr_max_load",
        "bc_max_load",
    ]);
    let mut rows = Vec::new();
    let mut arms_json = JsonObj::new();
    for &spread in &spreads {
        let mut result = Vec::new();
        let mut spread_json = JsonObj::new();
        for replication in [true, false] {
            let mut cfg = if replication {
                Config::paper_default(scale.servers)
            } else {
                Config::caching_only(scale.servers)
            }
            .with_seed(args.seed);
            cfg.speed_spread = spread;
            let mut sys = System::new(
                scale.ts_namespace(),
                cfg,
                StreamPlan::uzipf(1.0, total),
                rate,
            );
            sys.run_until(total);
            let st = sys.stats();
            // Mean of the per-second max load over the steady half.
            let half = st.load_max_per_sec.len() / 2;
            let max_mean = st.load_max_per_sec[half..].iter().sum::<f64>()
                / (st.load_max_per_sec.len() - half).max(1) as f64;
            result.push((st.drop_fraction(), max_mean));
            spread_json = spread_json.obj(
                if replication { "bcr" } else { "bc" },
                JsonObj::new()
                    .num("drop_fraction", st.drop_fraction())
                    .num("max_load_mean", max_mean)
                    .raw("summary", &st.summary().to_json()),
            );
            eprint!(".");
        }
        println!(
            "{spread}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
            result[0].0, result[1].0, result[0].1, result[1].1
        );
        rows.push((spread, result[0].0, result[1].0));
        arms_json = arms_json.obj(&format!("spread_{spread}x"), spread_json);
    }
    eprintln!();

    let homo_bcr = rows[0].1;
    for &(spread, bcr, bc) in &rows[1..] {
        checks.check(
            &format!("{spread}× spread: replication absorbs heterogeneity"),
            bcr <= (homo_bcr + 0.05).max(homo_bcr * 3.0),
            format!("BCR drops {} (homogeneous {})", pct(bcr), pct(homo_bcr)),
        );
        checks.check(
            &format!("{spread}× spread: replication beats caching-only"),
            bcr <= bc,
            format!("BCR {} vs BC {}", pct(bcr), pct(bc)),
        );
    }
    let json = JsonObj::new()
        .str("bench", "heterogeneity")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .arr("spreads", &spreads)
        .obj("arms", arms_json);
    write_bench_json("heterogeneity", &json);
}
