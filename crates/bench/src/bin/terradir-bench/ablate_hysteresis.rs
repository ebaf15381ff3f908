//! **Ablation: hysteresis load adjustment on/off** (§3.3 step 4).
//!
//! After a session both parties shift their perceived loads by half the
//! gap, which "acts as a hysteresis and will prevent replica thrashing".
//! With it disabled, an overloaded server keeps firing sessions until the
//! *measured* load finally reflects the shed demand — creating far more
//! replicas (and deletions) for the same workload.

use terradir::System;
use terradir_bench::{tsv_header, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(100.0);
    let rate = scale.rate(20_000.0);

    eprintln!(
        "ablate_hysteresis: {} servers, λ={rate:.0}/s",
        scale.servers
    );

    tsv_header(&[
        "hysteresis",
        "sessions",
        "replicas_created",
        "replicas_deleted",
        "drop_fraction",
    ]);
    let mut rows = Vec::new();
    for (label, hysteresis) in [("on", true), ("off", false)] {
        let mut cfg = scale.config(args.seed);
        cfg.hysteresis = hysteresis;
        let mut sys = System::new(
            scale.ts_namespace(),
            cfg,
            StreamPlan::uzipf(1.25, total),
            rate,
        );
        sys.run_until(total);
        let st = sys.stats();
        println!(
            "{label}\t{}\t{}\t{}\t{:.4}",
            st.sessions_completed,
            st.replicas_created,
            st.replicas_deleted,
            st.drop_fraction()
        );
        rows.push((
            label,
            st.sessions_completed,
            st.replicas_created,
            st.drop_fraction(),
        ));
    }

    checks.check(
        "hysteresis damps session churn",
        rows[0].1 <= rows[1].1,
        format!("{} vs {} sessions", rows[0].1, rows[1].1),
    );
    checks.check(
        "hysteresis damps replica creation",
        rows[0].2 <= rows[1].2,
        format!("{} vs {} replicas", rows[0].2, rows[1].2),
    );
}
