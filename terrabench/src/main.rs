//! The repository benchmark: TerraDir simulator speed and fidelity.
//!
//! ```text
//! cargo run --release --manifest-path terrabench/Cargo.toml -- \
//!     --workload ts-adapt-1024 --seed 1 --seconds 30 --trace 0 [--rev <git rev>]
//! ```
//!
//! One single-threaded process runs one workload at one seed, repeating
//! the whole simulated run until `--seconds` of wall time are used, and
//! reports medians. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! adds a traced run (spans around calls into each layer) and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod host;
mod probes;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use terradir::System;
use terradir_bench::JsonObj;
use terradir_bloom::hashing::hash128;
use terradir_sim::Histogram;

use host::Sched;
use probes::Probes;
use trace::Tracer;
use workloads::Workload;

/// Setups timed per invocation, counting the ones each run performs.
const SETUP_SAMPLES: usize = 15;
/// Where results and spans are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: Option<String>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: terrabench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--rev <git rev>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut rev) = (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--rev" => rev = Some(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload names no known workload")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        rev,
    }
}

/// Everything one simulated run produced.
#[derive(Debug)]
struct Outcome {
    /// Seed of the realization this run simulated.
    seed: u64,
    traced: bool,
    ns_build_s: f64,
    new_s: f64,
    /// Wall seconds inside `run_until` over the injection window.
    window_wall_s: f64,
    /// Wall seconds inside `run_until` over the drain.
    drain_wall_s: f64,
    window_events: u64,
    events: u64,
    /// Scheduler accounting over the window.
    sched: Sched,
    /// Wall seconds of each one-simulated-second slice (traced runs).
    slice_walls: Vec<f64>,
    summary: String,
    draws: Vec<u64>,
    counts: Counts,
    /// Failed correctness checks (empty when the run is correct).
    findings: Vec<String>,
    probes: Option<Probes>,
}

/// The simulated counters the metrics are computed from.
#[derive(Debug, Clone, Default)]
struct Counts {
    injected: u64,
    resolved: u64,
    dropped: u64,
    reads_ok: u64,
    reads_failed: u64,
    stale_reads: u64,
    objects_lost: u64,
    query_messages: u64,
    control_messages: u64,
    misroutes: u64,
    detour_hops: u64,
    replicas_created: u64,
    replicas_deleted: u64,
    sessions_started: u64,
    sessions_completed: u64,
    retries: u64,
    bytes_on_wire: u64,
    gossip_bytes: u64,
    alloc_events: u64,
    alloc_bytes: u64,
    hops_mean: f64,
    latency_p99_s: f64,
    latency_samples: u64,
}

impl Counts {
    fn read(sys: &System) -> Counts {
        let st = sys.stats();
        Counts {
            injected: st.injected,
            resolved: st.resolved,
            dropped: st.dropped_total(),
            reads_ok: st.object_reads,
            reads_failed: st.reads_failed,
            stale_reads: st.stale_reads,
            objects_lost: st.objects_lost,
            query_messages: st.query_messages,
            control_messages: st.control_messages,
            misroutes: st.misroutes,
            detour_hops: st.detour_hops,
            replicas_created: st.replicas_created,
            replicas_deleted: st.replicas_deleted,
            sessions_started: st.sessions_started,
            sessions_completed: st.sessions_completed,
            retries: st.retries,
            bytes_on_wire: st.bytes_on_wire,
            gossip_bytes: st.gossip_bytes,
            alloc_events: st.alloc_events,
            alloc_bytes: st.alloc_bytes,
            hops_mean: st.hops.mean().unwrap_or(0.0),
            latency_p99_s: interpolated_quantile(&st.latency, 0.99),
            latency_samples: st.latency.count(),
        }
    }

    /// Simulated operations: injected queries plus issued object reads.
    fn operations(&self) -> u64 {
        self.injected + self.reads_ok + self.reads_failed
    }
}

/// The `q` quantile of a fixed-bucket histogram, interpolated linearly
/// by rank inside the bucket that holds it (the histogram itself only
/// reports bucket edges). Bucket bounds are recovered through the public
/// `quantile`: `quantile((r - 0.5) / n)` is the upper edge of the bucket
/// holding the observation of rank `r`.
fn interpolated_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let edge = |r: u64| {
        h.quantile(((r as f64 - 0.5) / n as f64).clamp(0.0, 1.0))
            .unwrap_or(0.0)
    };
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = edge(target);
    // First and last ranks inside the target's bucket.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if edge(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if edge(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let lower = if first > 1 { edge(first - 1) } else { 0.0 };
    lower + (upper - lower) * (target - first + 1) as f64 / (last - first + 1) as f64
}

/// Builds the namespace and system, timing each half.
fn setup(w: &Workload, seed: u64, tr: &mut Tracer) -> (System, f64, f64) {
    let s = tr.begin("namespace.build");
    let ns = w.namespace();
    let ns_s = tr.end(s, ns.len() as u64) as f64 * 1e-9;
    let s = tr.begin("system.new");
    let sys = System::new(ns, w.config(seed), w.plan(), w.rate());
    let new_s = tr.end(s, u64::from(w.servers)) as f64 * 1e-9;
    (sys, ns_s, new_s)
}

/// Advances the simulation from `from` to `until`, in one-second slices
/// when traced. Returns wall seconds spent inside `run_until`.
fn advance(
    sys: &mut System,
    from: f64,
    until: f64,
    traced: bool,
    tr: &mut Tracer,
    mut slices: Option<&mut Vec<f64>>,
) -> f64 {
    let mut wall_ns = 0u64;
    let mut t = from;
    while t < until {
        t = if traced { (t + 1.0).min(until) } else { until };
        let before = sys.events_processed();
        let s = tr.begin("sim.run_until");
        sys.run_until(t);
        let ns = tr.end(s, sys.events_processed() - before);
        wall_ns += ns;
        if let Some(v) = slices.as_deref_mut() {
            v.push(ns as f64 * 1e-9);
        }
    }
    wall_ns as f64 * 1e-9
}

/// One complete simulated run: set up, inject for the window, (probe,)
/// drain, check. `traced` slices `run_until` per simulated second and
/// runs the per-layer probes on the warmed system.
fn run_once(w: &Workload, seed: u64, traced: bool, tr: &mut Tracer) -> Outcome {
    let root = tr.begin(if traced { "run.traced" } else { "run" });
    let (mut sys, ns_build_s, new_s) = setup(w, seed, tr);

    let s = tr.begin("sim.window");
    let sched0 = Sched::now();
    let mut slice_walls = Vec::new();
    let window_wall_s = advance(&mut sys, 0.0, w.window, traced, tr, Some(&mut slice_walls));
    let sched = Sched::now().since(sched0);
    let window_events = sys.events_processed();
    tr.end(s, window_events);

    let probes = traced.then(|| probes::run(&sys, w, seed, tr));

    let s = tr.begin("sim.drain");
    sys.set_injection(false);
    let drain_wall_s = advance(&mut sys, w.window, w.window + w.drain, traced, tr, None);
    tr.end(s, sys.events_processed() - window_events);

    let s = tr.begin("system.audit");
    let mut findings = sys.audit();
    tr.end(s, findings.len() as u64);
    let counts = Counts::read(&sys);
    if counts.injected == 0 {
        findings.push("no queries were injected".into());
    }
    if counts.resolved + counts.dropped != counts.injected {
        findings.push(format!(
            "accounting: resolved {} + dropped {} != injected {}",
            counts.resolved, counts.dropped, counts.injected
        ));
    }
    if sys.pending_queries() != 0 {
        findings.push(format!(
            "{} queries still pending after the drain",
            sys.pending_queries()
        ));
    }
    let out = Outcome {
        seed,
        traced,
        ns_build_s,
        new_s,
        window_wall_s,
        drain_wall_s,
        window_events,
        events: sys.events_processed(),
        sched,
        slice_walls,
        summary: sys.stats().summary().to_json(),
        draws: sys.stats().rng_draws.clone(),
        counts,
        findings,
        probes,
    };
    let s = tr.begin("system.drop");
    drop(sys);
    tr.end(s, 0);
    tr.end(root, 1);
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn render_metrics(metrics: &[Metric]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; such a metric also fails `correct`.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", cells.join(","))
}

/// End-to-end metrics. A realization's window wall time is the median
/// over its runs; the speed metrics price one pass over all realizations
/// with those medians, so realizations that ran more often weigh no
/// more. Simulated outcomes are pooled over the realizations.
fn end_to_end(runs: &[&Outcome], setups: &[f64], w: &Workload) -> Vec<Metric> {
    let mut firsts: Vec<&Outcome> = Vec::new();
    for r in runs {
        if firsts.iter().all(|f| f.seed != r.seed) {
            firsts.push(r);
        }
    }
    let pass_wall: f64 = firsts
        .iter()
        .map(|f| {
            median(
                runs.iter()
                    .filter(|r| r.seed == f.seed)
                    .map(|r| r.window_wall_s)
                    .collect(),
            )
        })
        .sum();
    let sum = |f: fn(&Outcome) -> f64| firsts.iter().map(|r| f(r)).sum::<f64>();
    let resolved = sum(|r| r.counts.resolved as f64);
    vec![
        (
            "events_per_s",
            sum(|r| r.window_events as f64) / pass_wall,
            "1/s",
        ),
        (
            "wall_s_per_sim_s",
            pass_wall / (w.window * firsts.len() as f64),
            "s/s",
        ),
        ("setup_s", median(setups.to_vec()), "s"),
        ("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        (
            "drop_frac",
            ratio(
                sum(|r| r.counts.dropped as f64),
                sum(|r| r.counts.injected as f64),
            ),
            "frac",
        ),
        (
            "hops_mean",
            ratio(
                sum(|r| r.counts.hops_mean * r.counts.resolved as f64),
                resolved,
            ),
            "hops",
        ),
        (
            "latency_p99_s",
            sum(|r| r.counts.latency_p99_s) / firsts.len() as f64,
            "s",
        ),
        (
            "read_ok_frac",
            // Vacuously 1 on workloads that issue no object reads.
            1.0 - ratio(
                sum(|r| r.counts.reads_failed as f64),
                sum(|r| (r.counts.reads_ok + r.counts.reads_failed) as f64),
            ),
            "frac",
        ),
    ]
}

fn per_layer(traced: &Outcome, untraced: &[&Outcome], w: &Workload) -> Vec<Metric> {
    let c = &traced.counts;
    let p = traced.probes.clone().unwrap_or_default();
    let q = c.injected as f64;
    let events = traced.events as f64;
    let base_wall = median(untraced.iter().map(|r| r.window_wall_s).collect());
    let loop_wall = traced.window_wall_s + traced.drain_wall_s;
    vec![
        ("sim.events_per_query", ratio(events, q), "count"),
        (
            "sim.slice_wall_p50_s",
            median(traced.slice_walls.clone()),
            "s",
        ),
        (
            "sim.slice_wall_max_s",
            traced.slice_walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        ("sim.calendar_op_ns", p.calendar_op_ns, "ns"),
        ("namespace.build_s", traced.ns_build_s, "s"),
        ("namespace.distance_ns", p.distance_ns, "ns"),
        (
            "routing.candidates_per_route",
            p.candidates_per_route,
            "count",
        ),
        ("routing.route_ns", p.route_ns, "ns"),
        // Route decisions ≈ query messages handled; their estimated share
        // of the simulation loop's wall time, from the probe's per-route cost.
        (
            "routing.route_wall_share",
            ratio(p.route_ns * 1e-9 * c.query_messages as f64, loop_wall),
            "frac",
        ),
        (
            "routing.query_msgs_per_query",
            ratio(c.query_messages as f64, q),
            "count",
        ),
        (
            "routing.misroutes_per_1k_resolved",
            ratio(1000.0 * c.misroutes as f64, c.resolved as f64),
            "count",
        ),
        (
            "routing.detour_hops_per_resolved",
            ratio(c.detour_hops as f64, c.resolved as f64),
            "hops",
        ),
        ("digests.tests_per_route", p.tests_per_route, "count"),
        ("digests.test_ns", p.test_ns, "ns"),
        (
            "digests.scan_wall_share",
            ratio(
                p.scan_ns_per_route * 1e-9 * c.query_messages as f64,
                loop_wall,
            ),
            "frac",
        ),
        ("digests.false_pos_frac", p.false_pos_frac, "frac"),
        ("bloom.hash128_ns", p.hash128_ns, "ns"),
        ("cache.fill_frac", p.cache_fill_frac, "frac"),
        (
            "replication.replicas_per_server",
            p.replicas_per_server,
            "count",
        ),
        (
            "replication.replicas_created",
            c.replicas_created as f64,
            "count",
        ),
        (
            "replication.replicas_deleted",
            c.replicas_deleted as f64,
            "count",
        ),
        (
            "replication.session_success_frac",
            ratio(c.sessions_completed as f64, c.sessions_started as f64),
            "frac",
        ),
        (
            "replication.control_msgs_per_query",
            ratio(c.control_messages as f64, q),
            "count",
        ),
        (
            "gossip.bytes_per_sim_s",
            c.gossip_bytes as f64 / (w.window + w.drain),
            "B/s",
        ),
        (
            "gossip.wire_share",
            ratio(c.gossip_bytes as f64, c.bytes_on_wire as f64),
            "frac",
        ),
        (
            "storage.stale_read_frac",
            ratio(c.stale_reads as f64, c.reads_ok as f64),
            "frac",
        ),
        ("storage.objects_lost", c.objects_lost as f64, "count"),
        (
            "retry.retries_per_query",
            ratio(c.retries as f64, q),
            "count",
        ),
        (
            "wire.bytes_per_query",
            ratio(c.bytes_on_wire as f64, q),
            "B",
        ),
        (
            "allocledger.allocs_per_event",
            ratio(c.alloc_events as f64, events),
            "count",
        ),
        (
            "allocledger.bytes_per_event",
            ratio(c.alloc_bytes as f64, events),
            "B",
        ),
        ("workload.next_query_ns", p.next_query_ns, "ns"),
        ("system.new_s", traced.new_s, "s"),
        ("host.oncpu_s", traced.sched.oncpu_s, "s"),
        ("host.runq_wait_s", traced.sched.runq_s, "s"),
        (
            "trace.overhead_frac",
            ratio(traced.window_wall_s, base_wall) - 1.0,
            "frac",
        ),
    ]
}

fn provenance(args: &Args) -> String {
    let w = &args.workload;
    // The workload's definition: its config with the seed field zeroed
    // (the seeds themselves are reported beside it).
    let cfg = format!("{:?}", w.config(0));
    let prov = JsonObj::new()
        .str("workload", w.name)
        .int("seed", args.seed)
        .str(
            "config_hash",
            &format!("{:016x}", hash128(cfg.as_bytes(), 0).h1),
        )
        .int("servers", u64::from(w.servers))
        .num("rate", w.rate())
        .num("window_s", w.window)
        .num("drain_s", w.drain)
        .int("realizations", w.realizations)
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .raw(
            "alloc_ledger",
            &terradir_allocledger::installed().to_string(),
        );
    match &args.rev {
        Some(rev) => prov.str("rev", rev),
        None => prov.raw("rev", "null"),
    }
    .render()
}

fn write_out(name: &str, body: &str) {
    let path = format!("{OUT_DIR}/{name}");
    let res =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, format!("{body}\n")));
    match res {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let prov = provenance(&args);
    println!("# provenance {prov}");

    // Untraced runs cycle through the workload's realizations until every
    // one has run, one has run twice, and the wall budget is used. Traced
    // mode simulates realization 0 only: an untraced run, the traced run,
    // then untraced runs as the overhead baseline.
    let realizations = if args.trace { 1 } else { w.realizations };
    let min_runs = realizations as usize + 1;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tr = Tracer::new();
    let mut untraced_tr = Tracer::new();
    let mut runs: Vec<Outcome> = Vec::new();
    while runs.len() < min_runs || start.elapsed() < budget {
        let seed = w.realization_seed(args.seed, runs.len() as u64 % realizations);
        let traced = args.trace && runs.len() == 1;
        let r = run_once(
            &w,
            seed,
            traced,
            if traced { &mut tr } else { &mut untraced_tr },
        );
        println!(
            "# run {} seed={} traced={} window_wall_s={:.4} drain_wall_s={:.4} events={} events_per_s={:.0} oncpu_s={:.4} runq_wait_s={:.4} setup_s={:.4}",
            runs.len(),
            r.seed,
            r.traced,
            r.window_wall_s,
            r.drain_wall_s,
            r.events,
            r.window_events as f64 / r.window_wall_s,
            r.sched.oncpu_s,
            r.sched.runq_s,
            r.ns_build_s + r.new_s,
        );
        runs.push(r);
    }
    let mut setups: Vec<f64> = runs.iter().map(|r| r.ns_build_s + r.new_s).collect();
    while setups.len() < SETUP_SAMPLES {
        let (sys, ns_s, new_s) = setup(&w, args.seed, &mut untraced_tr);
        drop(sys);
        setups.push(ns_s + new_s);
    }

    // Correctness: every run passes its own checks, and every run of a
    // realization — traced or not — reproduces that realization's first
    // run byte for byte.
    let mut failed_runs = 0usize;
    let mut failed_ops = 0u64;
    for (i, r) in runs.iter().enumerate() {
        let mut findings = r.findings.clone();
        if let Some(first) = runs.iter().find(|f| f.seed == r.seed) {
            if r.summary != first.summary {
                findings.push("summary differs from the realization's first run".into());
            }
            if r.draws != first.draws {
                findings.push("rng draw ledger differs from the realization's first run".into());
            }
        }
        if !findings.is_empty() {
            failed_runs += 1;
            failed_ops += r.counts.operations();
            for f in findings.iter().take(5) {
                println!("# FAIL run {i}: {f}");
            }
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.counts.operations()).sum();
    for r in runs.iter().take(realizations as usize) {
        let c = &r.counts;
        println!(
            "# seed {}: injected={} resolved={} dropped={} reads_ok={} reads_failed={} latency_samples={} hops_mean={:.4} latency_p99_s={:.4}",
            r.seed, c.injected, c.resolved, c.dropped, c.reads_ok, c.reads_failed, c.latency_samples, c.hops_mean, c.latency_p99_s
        );
        println!("# summary {}", r.summary);
    }

    let untraced: Vec<&Outcome> = runs.iter().filter(|r| !r.traced).collect();
    let metrics = if args.trace {
        let traced = runs.iter().find(|r| r.traced).unwrap_or(&runs[0]);
        let m = per_layer(traced, &untraced, &w);
        if let Some(p) = &traced.probes {
            println!("# probes routes={} digest_hits={}", p.routes, p.digest_hits);
        }
        for (name, t) in tr.totals() {
            println!(
                "# layer {name:<28} spans={:<6} total_s={:.6} self_s={:.6} count={}",
                t.spans,
                t.total_ns as f64 * 1e-9,
                t.self_ns as f64 * 1e-9,
                t.count
            );
        }
        write_out(
            &format!("trace-{}-seed{}.json", w.name, args.seed),
            &JsonObj::new()
                .raw("provenance", &prov)
                .raw("trace", &tr.to_json())
                .render(),
        );
        m
    } else {
        end_to_end(&untraced, &setups, &w)
    };
    let correct = failed_runs == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed_ops},\"metrics\":{}}}",
        render_metrics(&metrics)
    );
    let summaries: Vec<&str> = runs
        .iter()
        .take(realizations as usize)
        .map(|r| r.summary.as_str())
        .collect();
    write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            w.name,
            args.seed,
            u8::from(args.trace)
        ),
        &JsonObj::new()
            .raw("provenance", &prov)
            .int("runs", runs.len() as u64)
            .int("failed_runs", failed_runs as u64)
            .arr("setup_samples_s", &setups)
            .raw("summaries", &format!("[{}]", summaries.join(",")))
            .raw("result", &result)
            .render(),
    );
    println!("{result}");
}
