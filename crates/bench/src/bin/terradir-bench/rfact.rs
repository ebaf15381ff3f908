//! **§4.4 replication-factor ablation** — the paper runs R_fact ∈
//! {0.125, 0.25, 0.5} under `uzipf(1.50)` streams with repeated hot-spot
//! shifts ("low replication factors together with repeated shifts of
//! high-order hot-spots induce major changes in replica configurations")
//! and reports that inverse-mapping digests keep routing accuracy "within
//! the optimal range".
//!
//! We measure (a) per-hop routing accuracy — an oracle with perfectly
//! accurate maps scores 1.0 — and (b) the fraction of stale map entries
//! system-wide at the end of the churn, for each R_fact plus the default
//! R_fact = 2 baseline.

use terradir::oracle::{map_staleness, routing_accuracy, GlobalTruth};
use terradir::System;
use terradir_bench::{tsv_header, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(250.0);
    let rate = scale.rate(20_000.0);
    let factors = [0.125, 0.25, 0.5, 2.0];

    eprintln!(
        "rfact: {} servers, λ={rate:.0}/s, {total:.0}s per factor",
        scale.servers
    );

    tsv_header(&[
        "r_fact",
        "accuracy",
        "stale_fraction",
        "replicas_created",
        "replicas_deleted",
        "drop_fraction",
    ]);
    let mut results = Vec::new();
    for &rf in &factors {
        let warmup = scale.duration(50.0);
        let seg = ((total - warmup) / 4.0).max(1.0);
        let plan = StreamPlan::adaptation(1.5, warmup, 4, seg);
        let mut cfg = scale.config(args.seed);
        cfg.r_fact = rf;
        let mut sys = System::new(scale.ts_namespace(), cfg, plan, rate);
        sys.run_until(total);
        let (_, _, acc) = routing_accuracy(&sys);
        let truth = GlobalTruth::from_system(&sys);
        let stale = map_staleness(&sys, &truth).fraction();
        let st = sys.stats();
        println!(
            "{rf}\t{acc:.4}\t{stale:.4}\t{}\t{}\t{:.4}",
            st.replicas_created,
            st.replicas_deleted,
            st.drop_fraction()
        );
        results.push((rf, acc, stale, st.replicas_deleted));
        eprint!(".");
    }
    eprintln!();

    for &(rf, acc, stale, _) in &results {
        checks.check(
            &format!("R_fact={rf}: accuracy within the optimal range"),
            acc > 0.85,
            format!("per-hop accuracy {acc:.4} (oracle = 1.0)"),
        );
        checks.check(
            &format!("R_fact={rf}: digests keep maps nearly clean"),
            stale < 0.10,
            format!("stale map fraction {stale:.4}"),
        );
    }
    // Tight factors must actually induce deletion churn — otherwise the
    // experiment is vacuous.
    let tight_dels = results[0].3 + results[1].3;
    checks.check(
        "tight factors induce replica churn",
        tight_dels > 0,
        format!("{tight_dels} deletions at R_fact ≤ 0.25"),
    );
}
