//! **Churn figure** — continuous failure/recovery under a lossy transport,
//! with and without the source-side reliability layer (DESIGN.md §12).
//!
//! Protocol: warm the full protocol (BCR) under Zipf load, then open a
//! churn window in which every server alternates exponential up/down
//! times while the transport drops 2 % of remote messages and jitters
//! delivery. Run two systems at the *identical* seed and scale: one with
//! source-side retries + negative caching, one with the reliability layer
//! off. After the window closes, the fleet heals and injection stops so
//! in-flight traffic (including the retry tail) drains and the accounting
//! identity `resolved + dropped == injected` is exact.
//!
//! Output: per-second availability curves (resolved/injected) for both
//! variants, the availability over the churn window, and the
//! time-to-recover after the window closes.

use terradir::{ServerId, System};
use terradir_bench::{
    pct, run_drained, series_tsv, time_back_to_baseline, tsv_header, tsv_row, write_bench_json,
    Args, JsonObj, ShapeChecks,
};
use terradir_workload::StreamPlan;

/// What one arm reads off its finished system.
struct Outcome {
    avail: Vec<f64>,
    churn_availability: f64,
    time_to_recover: f64,
    negative_evictions: u64,
}

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let warm = scale.duration(20.0);
    let churn_stop = warm + scale.duration(40.0);
    let heal_until = churn_stop + scale.duration(30.0);
    // The drain must outlast the worst-case retry chain (Σ per-attempt
    // timeouts ≈ 15 s at the defaults 1+2+4+8).
    let drain_until = heal_until + 20.0;
    let rate = scale.rate(20_000.0);

    eprintln!(
        "churn: {} servers, λ={rate:.0}/s, churn window [{warm:.0}s, {churn_stop:.0}s], loss 2%",
        scale.servers
    );

    let mut outcomes = Vec::new();
    for (label, retry_on) in [("retry", true), ("no-retry", false)] {
        let mut cfg = scale.config(args.seed);
        cfg.faults.loss_prob = 0.02;
        cfg.faults.jitter = 0.01;
        cfg.churn.enabled = true;
        cfg.churn.start = warm;
        cfg.churn.stop = churn_stop;
        cfg.churn.mean_uptime = scale.duration(30.0);
        cfg.churn.mean_downtime = scale.duration(5.0);
        cfg.churn.max_down_fraction = 0.3;
        // The single-flag A/B: everything else — seed, namespace, load,
        // loss, churn — is identical between the two runs.
        cfg.retry.enabled = retry_on;

        let mut sys = System::new(
            scale.ts_namespace(),
            cfg,
            StreamPlan::uzipf(1.0, drain_until),
            rate,
        );
        sys.run_until(warm);
        let injected_warm = sys.stats().injected;
        let resolved_warm = sys.stats().resolved;
        let run = run_drained(sys, heal_until, drain_until, |sys| {
            // Heal any server whose churn downtime outlasted the window so
            // the final audit sees a live fleet.
            for i in 0..scale.servers {
                sys.recover_server(ServerId(i));
            }
            let st = sys.stats();
            let avail = st.availability();
            let churn_availability = ((st.resolved - resolved_warm) as f64
                / (st.injected - injected_warm).max(1) as f64)
                .min(1.0);
            // Back to the pre-churn baseline (the warm phase tail),
            // measured from the end of the churn window.
            let time_to_recover = time_back_to_baseline(&avail, warm, churn_stop);
            Outcome {
                avail,
                churn_availability,
                time_to_recover,
                negative_evictions: st.negative_evictions,
            }
        });
        outcomes.push((label, run));
        eprint!(".");
    }
    eprintln!();

    let labels: Vec<&str> = outcomes.iter().map(|(label, _)| *label).collect();
    let curves: Vec<&[f64]> = outcomes.iter().map(|(_, o)| &o.reads.avail[..]).collect();
    series_tsv("time", &labels, &curves, 1.0);
    println!();
    tsv_header(&["label", "churn_availability", "time_to_recover"]);
    for (label, o) in &outcomes {
        tsv_row(
            label,
            &[o.reads.churn_availability, o.reads.time_to_recover],
        );
    }

    let mut json = JsonObj::new()
        .str("bench", "churn")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("churn_start", warm)
        .num("churn_stop", churn_stop);
    for (label, o) in &outcomes {
        json = json.obj(
            label,
            JsonObj::new()
                .num("churn_availability", o.reads.churn_availability)
                .num("time_to_recover", o.reads.time_to_recover)
                .int("retries", o.summary.retries)
                .int("failures", o.summary.churn_failures)
                .int("recoveries", o.summary.churn_recoveries)
                .int("negative_evictions", o.reads.negative_evictions)
                .arr("availability", &o.reads.avail)
                .raw("summary", &o.summary.to_json()),
        );
    }
    let (retry, base) = (&outcomes[0].1, &outcomes[1].1);
    json = json.num(
        "churn_availability_delta",
        retry.reads.churn_availability - base.reads.churn_availability,
    );
    write_bench_json("churn", &json);

    for (label, o) in &outcomes {
        checks.accounting_and_audit(label, o);
        let s = &o.summary;
        checks.check(
            &format!("{label}: churn actually happened"),
            s.churn_failures > 0 && s.churn_recoveries > 0,
            format!(
                "{} failures, {} recoveries",
                s.churn_failures, s.churn_recoveries
            ),
        );
    }
    checks.check(
        "retry layer actually retried",
        retry.summary.retries > 0 && base.summary.retries == 0,
        format!(
            "{} retries vs {}",
            retry.summary.retries, base.summary.retries
        ),
    );
    checks.check(
        "negative caching evicted observed-dead hosts",
        retry.reads.negative_evictions > 0,
        format!("{} evictions", retry.reads.negative_evictions),
    );
    checks.check(
        "retries + negative caching strictly improve availability under churn",
        retry.reads.churn_availability > base.reads.churn_availability,
        format!(
            "{} with retries vs {} without",
            pct(retry.reads.churn_availability),
            pct(base.reads.churn_availability)
        ),
    );
}
