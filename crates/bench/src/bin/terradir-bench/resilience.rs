//! **Fault-tolerance extension** — the paper argues (§1, §2.4, §3.1) that
//! soft-state replication buys routing resiliency for free: caches "jump
//! over namespace partitions induced by network failures", and "hosting
//! servers for nodes with failed replicas will incur more load after
//! failure than before, and will replicate again to meet new load
//! conditions". The paper never measures this; this experiment does.
//!
//! Protocol: warm the system under Zipf load, fail 10 % of the servers
//! instantaneously at `t = warm`, recover them at `t = warm + Δ`, and
//! track the per-second availability curve (resolved/injected). Compare
//! the full protocol (BCR) against the caching-only baseline, and report
//! each curve's availability dip and time back to the pre-failure
//! baseline.

use terradir::{Config, ServerId, Summary, System};
use terradir_bench::{
    pct, series_tsv, time_back_to_baseline, tsv_header, tsv_row, window_mean, write_bench_json,
    Args, JsonObj, ShapeChecks,
};
use terradir_workload::StreamPlan;

struct Curve {
    label: String,
    summary: Summary,
    avail: Vec<f64>,
    dip: f64,
    time_to_baseline: f64,
    post_drops: u64,
    post_replicas: u64,
}

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let warm = scale.duration(60.0);
    let down_for = scale.duration(30.0);
    let recover_at = warm + down_for;
    let total = recover_at + scale.duration(70.0);
    let rate = scale.rate(20_000.0);
    let fail_fraction = 0.10;

    eprintln!(
        "resilience: {} servers, λ={rate:.0}/s, failing {} at t={warm:.0}s, recovering at t={recover_at:.0}s",
        scale.servers,
        pct(fail_fraction)
    );

    let mut curves: Vec<Curve> = Vec::new();
    for (label, cfg) in [
        (
            "BCR",
            Config::paper_default(scale.servers).with_seed(args.seed),
        ),
        (
            "BC",
            Config::caching_only(scale.servers).with_seed(args.seed),
        ),
    ] {
        let mut sys = System::new(
            scale.ts_namespace(),
            cfg,
            StreamPlan::uzipf(1.0, total),
            rate,
        );
        sys.run_until(warm);
        let drops_before_fail = sys.stats().dropped_total();
        let replicas_before = sys.stats().replicas_created;
        // Fail every k-th server (deterministic, spread over the fleet).
        let step = (1.0 / fail_fraction) as u32;
        let victims: Vec<ServerId> = (0..scale.servers)
            .step_by(step as usize)
            .map(ServerId)
            .collect();
        for &v in &victims {
            sys.fail_server(v);
        }
        sys.run_until(recover_at);
        for &v in &victims {
            sys.recover_server(v);
        }
        sys.run_until(total);
        let avail = sys.stats().availability();

        // Dip: worst second anywhere in the failure + recovery aftermath.
        let fail_bin = warm as usize;
        let dip = avail[fail_bin.min(avail.len())..]
            .iter()
            .copied()
            .fold(1.0f64, f64::min);
        // Time back to (95 % of) the pre-failure baseline, measured from
        // the failure.
        let time_to_baseline = time_back_to_baseline(&avail, warm, warm);

        let st = sys.stats();
        curves.push(Curve {
            label: label.to_string(),
            summary: st.summary(),
            avail,
            dip,
            time_to_baseline,
            post_drops: st.dropped_total() - drops_before_fail,
            post_replicas: st.replicas_created - replicas_before,
        });
        eprint!(".");
    }
    eprintln!();

    // Availability curves, one column per protocol variant.
    let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
    let avails: Vec<&[f64]> = curves.iter().map(|c| &c.avail[..]).collect();
    series_tsv("time", &labels, &avails, 1.0);
    // Summary metrics, one row per variant.
    println!();
    tsv_header(&["label", "dip", "time_to_baseline"]);
    for c in &curves {
        tsv_row(&c.label, &[c.dip, c.time_to_baseline]);
    }

    let mut json = JsonObj::new()
        .str("bench", "resilience")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("fail_at", warm)
        .num("recover_at", recover_at);
    for c in &curves {
        json = json.obj(
            &c.label,
            JsonObj::new()
                .num("dip", c.dip)
                .num("time_to_baseline", c.time_to_baseline)
                .int("post_drops", c.post_drops)
                .int("post_replicas", c.post_replicas)
                .arr("availability", &c.avail)
                .raw("summary", &c.summary.to_json()),
        );
    }
    write_bench_json("resilience", &json);

    let post_window = ((total - warm) * rate) as u64;
    for c in &curves {
        let post_drop_frac = c.post_drops as f64 / post_window.max(1) as f64;
        // The failure must not collapse the system: a 10 % server loss
        // bounds the *permanently* unresolvable mass well below 25 %.
        checks.check(
            &format!("{}: survives a 10% server failure", c.label),
            post_drop_frac < 0.25,
            format!("post-failure drop fraction {}", pct(post_drop_frac)),
        );
        checks.check(
            &format!("{}: returns to baseline after recovery", c.label),
            c.time_to_baseline.is_finite(),
            format!(
                "time to baseline {:.0}s, dip {}",
                c.time_to_baseline,
                pct(c.dip)
            ),
        );
        // Resolution in the final 10 s recovered close to its pre-failure
        // level.
        let tail_mean = window_mean(&c.avail, c.avail.len().saturating_sub(10), c.avail.len());
        checks.check(
            &format!("{}: steady state recovers", c.label),
            tail_mean > 0.75,
            format!("final availability {}", pct(tail_mean)),
        );
        if c.label == "BCR" {
            checks.check(
                "BCR: failure triggers re-replication",
                c.post_replicas > 0,
                format!("{} replicas created after the failure", c.post_replicas),
            );
        }
    }
    // BCR absorbs the failure at least as well as BC.
    let bcr_drops = curves[0].post_drops;
    let bc_drops = curves[1].post_drops;
    checks.check(
        "replication absorbs failures at least as well as caching alone",
        bcr_drops <= bc_drops + post_window / 50,
        format!("BCR {bcr_drops} vs BC {bc_drops} post-failure drops"),
    );
}
