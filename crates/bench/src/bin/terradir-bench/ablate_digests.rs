//! **Ablation: inverse-mapping digests on/off** (§3.6).
//!
//! Digests serve two roles: shortcut discovery (fewer hops) and
//! conservative map pruning (higher routing accuracy under churn). We run
//! the same hot-spot workload with and without them.

use terradir::oracle::{map_staleness, routing_accuracy, GlobalTruth};
use terradir::System;
use terradir_bench::{tsv_header, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(100.0);
    let rate = scale.rate(20_000.0);

    eprintln!("ablate_digests: {} servers, λ={rate:.0}/s", scale.servers);

    tsv_header(&[
        "digests",
        "hops",
        "accuracy",
        "stale_fraction",
        "drop_fraction",
    ]);
    let mut rows = Vec::new();
    for (label, digests) in [("on", true), ("off", false)] {
        let mut cfg = scale.config(args.seed);
        cfg.digests = digests;
        let warmup = scale.duration(30.0);
        let plan = StreamPlan::adaptation(1.25, warmup, 2, (total - warmup) / 2.0);
        let mut sys = System::new(scale.ts_namespace(), cfg, plan, rate);
        sys.run_until(total);
        let st = sys.stats();
        let hops = st.hops.mean().unwrap_or(0.0);
        let (_, _, acc) = routing_accuracy(&sys);
        let truth = GlobalTruth::from_system(&sys);
        let stale = map_staleness(&sys, &truth).fraction();
        println!(
            "{label}\t{hops:.3}\t{acc:.4}\t{stale:.4}\t{:.4}",
            st.drop_fraction()
        );
        rows.push((label, hops, acc, stale, st.drop_fraction()));
    }

    checks.check(
        "digests reduce mean hops (shortcuts)",
        rows[0].1 <= rows[1].1,
        format!("{:.3} vs {:.3} hops", rows[0].1, rows[1].1),
    );
    // Staleness is not directly comparable across the two arms (digests
    // change the traffic mix); the invariant is that accuracy stays near
    // the oracle either way, with digests carrying the shortcut gain.
    checks.check(
        "routing accuracy stays near-oracle in both arms",
        rows[0].2 > 0.95 && rows[1].2 > 0.95,
        format!("accuracy on={:.4} off={:.4}", rows[0].2, rows[1].2),
    );
    checks.check(
        "digests do not hurt drops",
        rows[0].4 <= rows[1].4 + 0.02,
        format!("{:.4} vs {:.4}", rows[0].4, rows[1].4),
    );
}
