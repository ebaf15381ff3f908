//! Experiment harness shared by every figure-reproduction binary.
//!
//! Each binary in `src/bin/` regenerates one figure/table of the paper
//! (see DESIGN.md §4 for the index and EXPERIMENTS.md for results). All of
//! them accept:
//!
//! ```text
//! --full           paper scale (4096 servers, full λ, full durations)
//! --servers N      override the server count (nodes scale with it)
//! --seed S         master seed (default 42)
//! --time-mult F    multiply run durations by F
//! ```
//!
//! The default ("quick") scale divides the paper's system by 16
//! (256 servers) and scales the arrival rates proportionally, which
//! preserves per-server utilization — the quantity every experiment's
//! shape depends on — while finishing in seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use terradir::{ChaosAction, Config, ScenarioEvent, Summary, System};
use terradir_namespace::{balanced_tree, coda_like, CodaParams, Namespace};
use terradir_workload::{seed::tags, seeded_rng};

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run at full paper scale.
    pub full: bool,
    /// Server-count override.
    pub servers: Option<u32>,
    /// Master seed.
    pub seed: u64,
    /// Duration multiplier.
    pub time_mult: f64,
}

impl Args {
    /// Parses `std::env::args()`, exiting with usage on error (code 2) or
    /// on `--help` (code 0).
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e))
    }

    /// Parses an argument list (without the program name). The error is
    /// the message to print above the usage line; it is empty for
    /// `--help`.
    pub fn parse_from<I, S>(args: I) -> Result<Args, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        fn value<T: std::str::FromStr, S: AsRef<str>>(
            it: &mut impl Iterator<Item = S>,
            flag: &str,
        ) -> Result<T, String> {
            it.next()
                .and_then(|v| v.as_ref().parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        }
        let mut parsed = Args {
            full: false,
            servers: None,
            seed: 42,
            time_mult: 1.0,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_ref() {
                "--full" => parsed.full = true,
                "--servers" => {
                    let servers: u32 = value(&mut it, "--servers")?;
                    if servers < 2 {
                        return Err("--servers must be at least 2".to_string());
                    }
                    parsed.servers = Some(servers);
                }
                "--seed" => parsed.seed = value(&mut it, "--seed")?,
                "--time-mult" => {
                    let mult: f64 = value(&mut it, "--time-mult")?;
                    if !(mult.is_finite() && mult > 0.0) {
                        return Err("--time-mult must be a positive number".to_string());
                    }
                    parsed.time_mult = mult;
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(parsed)
    }

    /// The scale this invocation runs at.
    pub fn scale(&self) -> Scale {
        let servers = self.servers.unwrap_or(if self.full { 4096 } else { 256 });
        Scale::for_servers(servers, self.time_mult)
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <bin> [--full] [--servers N] [--seed S] [--time-mult F]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Experiment scale: everything derived from the server count so that
/// per-server utilization matches the paper at any size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Participating servers.
    pub servers: u32,
    /// Levels of the balanced binary T_S namespace (8 nodes/server).
    pub ts_levels: u16,
    /// Node count of the synthetic Coda-like T_C namespace (~20/server).
    pub tc_nodes: usize,
    /// Multiplier applied to the paper's arrival rates (servers / 4096).
    pub rate_mult: f64,
    /// Multiplier applied to run durations.
    pub time_mult: f64,
}

impl Scale {
    /// Builds the scale for a server count (rounded up to a power of two
    /// so the balanced tree gives exactly 8 nodes/server).
    pub fn for_servers(servers: u32, time_mult: f64) -> Scale {
        assert!(servers >= 2, "need at least 2 servers");
        let servers = servers.next_power_of_two();
        // 8 nodes/server: tree with servers*8 − 1 = 2^(levels+1) − 1 nodes.
        let ts_levels = ((servers * 8).ilog2() - 1) as u16;
        Scale {
            servers,
            ts_levels,
            tc_nodes: servers as usize * 20,
            rate_mult: servers as f64 / 4096.0,
            time_mult,
        }
    }

    /// The synthetic T_S namespace (perfectly balanced binary tree).
    pub fn ts_namespace(&self) -> Namespace {
        balanced_tree(2, self.ts_levels)
    }

    /// The Coda-stand-in T_C namespace (seeded from the master seed).
    pub fn tc_namespace(&self, seed: u64) -> Namespace {
        let params = CodaParams {
            nodes: self.tc_nodes,
            ..CodaParams::default()
        };
        let mut rng = seeded_rng(seed, tags::NAMESPACE);
        coda_like(&params, &mut rng)
    }

    /// The paper's λ scaled to this system size.
    pub fn rate(&self, paper_rate: f64) -> f64 {
        (paper_rate * self.rate_mult).max(1.0)
    }

    /// A run duration scaled by the time multiplier.
    pub fn duration(&self, paper_seconds: f64) -> f64 {
        (paper_seconds * self.time_mult).max(1.0)
    }

    /// The paper-default protocol configuration at this scale.
    pub fn config(&self, seed: u64) -> Config {
        Config::paper_default(self.servers).with_seed(seed)
    }
}

/// Minimal hand-rolled JSON object builder for the machine-readable
/// `BENCH_<name>.json` summaries (the workspace deliberately has no
/// serde; see DESIGN.md §4). Keys keep insertion order so outputs are
/// byte-stable across runs of the same binary.
#[derive(Debug, Default, Clone)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// New empty object.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    fn push(mut self, key: &str, rendered: String) -> JsonObj {
        self.fields.push((escape_json(key), rendered));
        self
    }

    /// Adds a float field; non-finite values render as `null` (JSON has
    /// no NaN/Infinity) so "never recovered" markers survive parsing.
    #[must_use]
    pub fn num(self, key: &str, v: f64) -> JsonObj {
        self.push(key, render_num(v))
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(self, key: &str, v: u64) -> JsonObj {
        self.push(key, format!("{v}"))
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(self, key: &str, v: &str) -> JsonObj {
        let escaped = escape_json(v);
        self.push(key, format!("\"{escaped}\""))
    }

    /// Adds an array of floats (non-finite values become `null`).
    #[must_use]
    pub fn arr(self, key: &str, vs: &[f64]) -> JsonObj {
        let cells: Vec<String> = vs.iter().map(|&v| render_num(v)).collect();
        self.push(key, format!("[{}]", cells.join(",")))
    }

    /// Adds a nested object field.
    #[must_use]
    pub fn obj(self, key: &str, v: JsonObj) -> JsonObj {
        let rendered = v.render();
        self.push(key, rendered)
    }

    /// Adds a field whose value is already-rendered JSON, embedded
    /// verbatim (the caller vouches for its validity). This is how the
    /// bench bins splice the protocol's own `Summary::to_json()` into
    /// `BENCH_*.json`, so every counter flows through the one emitter the
    /// conservation pass audits (DESIGN.md §15).
    #[must_use]
    pub fn raw(self, key: &str, rendered: &str) -> JsonObj {
        self.push(key, rendered.to_string())
    }

    /// Renders the object as a single-line JSON document.
    pub fn render(&self) -> String {
        let cells: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

fn render_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn escape_json(s: &str) -> String {
    // escape_default covers `"` and `\` plus control characters; its
    // \u{XX} form for controls is not valid JSON, but no bench emits
    // control characters in keys or labels.
    s.chars().flat_map(char::escape_default).collect()
}

/// Writes `BENCH_<name>.json` into the current directory so CI and
/// plotting scripts can consume experiment results without scraping
/// TSV. Failure to write is a warning, not an abort: the human-readable
/// stdout report is the primary artifact.
pub fn write_bench_json(name: &str, obj: &JsonObj) {
    let path = format!("BENCH_{name}.json");
    let mut body = obj.render();
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Prints a TSV header line (column names) to stdout.
pub fn tsv_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Prints one TSV row of floats with stable formatting.
pub fn tsv_row(label: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    println!("{label}\t{}", cells.join("\t"));
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// A minimal shape-check reporter: prints PASS/FAIL lines the
/// EXPERIMENTS.md table is built from, and tracks overall status.
#[derive(Debug, Default)]
pub struct ShapeChecks {
    failures: usize,
    total: usize,
}

impl ShapeChecks {
    /// New empty checker.
    pub fn new() -> ShapeChecks {
        ShapeChecks::default()
    }

    /// Records one named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.total += 1;
        if !ok {
            self.failures += 1;
        }
        println!(
            "# shape[{}] {}: {}",
            if ok { "PASS" } else { "FAIL" },
            name,
            detail
        );
    }

    /// Prints the summary line; returns whether everything passed.
    pub fn finish(self) -> bool {
        println!(
            "# shape summary: {}/{} checks passed",
            self.total - self.failures,
            self.total
        );
        self.failures == 0
    }

    /// Records the pair every drained A/B arm reports: the exact
    /// accounting identity and a clean invariant audit.
    pub fn accounting_and_audit<T>(&mut self, label: &str, run: &Drained<T>) {
        self.check(
            &format!("{label}: accounting is exactly decomposable"),
            run.accounting_exact,
            "resolved + dropped == injected after drain".to_string(),
        );
        self.check(
            &format!("{label}: invariant audit is clean"),
            run.audit_findings == 0,
            format!("{} findings", run.audit_findings),
        );
    }

    /// Records that two runs' `RunStats` debug renderings are
    /// byte-identical. The detail defaults to the compared byte count.
    pub fn byte_identical(&mut self, name: &str, a: &str, b: &str, detail: Option<&str>) {
        let detail = detail.map_or_else(
            || format!("{} bytes of RunStats debug compared", a.len()),
            str::to_string,
        );
        self.check(name, a == b, detail);
    }
}

/// A finished, drained run: what the bench read off the system, plus
/// what every A/B bench checks. The `System` itself is dropped.
#[derive(Debug)]
pub struct Drained<T> {
    /// The bench's own reads, taken after the drain.
    pub reads: T,
    /// The `RunStats` debug rendering: a replay's byte-identity
    /// fingerprint.
    pub stats_debug: String,
    /// The run summary.
    pub summary: Summary,
    /// `resolved + dropped == injected` after the drain.
    pub accounting_exact: bool,
    /// Invariant-audit findings on the drained fleet.
    pub audit_findings: usize,
}

/// Runs `sys` until `inject_until`, stops injection, drains in-flight
/// traffic until `drain_until`, hands the system to `read`, and then
/// records the stats fingerprint, summary, accounting identity and audit.
pub fn run_drained<T>(
    mut sys: System,
    inject_until: f64,
    drain_until: f64,
    read: impl FnOnce(&mut System) -> T,
) -> Drained<T> {
    sys.run_until(inject_until);
    sys.set_injection(false);
    sys.run_until(drain_until);
    let reads = read(&mut sys);
    let st = sys.stats();
    Drained {
        reads,
        stats_debug: format!("{st:?}"),
        summary: st.summary(),
        accounting_exact: st.resolved + st.dropped_total() == st.injected,
        audit_findings: sys.audit().len(),
    }
}

/// Prints per-second curves as a TSV block: a `time` column, then one
/// column per named curve. Shorter curves are padded with 1.0.
pub fn curve_tsv(names: &[&str], curves: &[&[f64]]) {
    tsv_header(&[&["time"], names].concat());
    let bins = curves.iter().map(|c| c.len()).max().unwrap_or(0);
    for t in 0..bins {
        let row: Vec<f64> = curves
            .iter()
            .map(|c| c.get(t).copied().unwrap_or(1.0))
            .collect();
        tsv_row(&format!("{t}"), &row);
    }
}

/// Mean of the per-second bins `[lo, hi)`, both ends clipped to the
/// curve; 0 for an empty window.
pub fn window_mean(curve: &[f64], lo: usize, hi: usize) -> f64 {
    let w = curve
        .get(lo.min(curve.len())..hi.min(curve.len()))
        .unwrap_or(&[]);
    w.iter().sum::<f64>() / w.len().max(1) as f64
}

/// Seconds from `from` until the curve is back to 95 % of its mean over
/// the 10 s before `event_at`; infinite if it never gets there.
pub fn time_back_to_baseline(curve: &[f64], event_at: f64, from: f64) -> f64 {
    let event_bin = event_at as usize;
    let baseline = window_mean(curve, event_bin.saturating_sub(10), event_bin);
    curve
        .iter()
        .enumerate()
        .skip(from as usize)
        .find(|(_, &a)| a >= baseline * 0.95)
        .map_or(f64::INFINITY, |(t, _)| t as f64 - from)
}

/// Trailing 9-second mean of the per-second curve (single seconds hold a
/// few hundred resolutions, so the raw bins carry ~±1 % shot noise).
pub fn smooth(curve: &[f64]) -> Vec<f64> {
    (0..curve.len())
        .map(|i| {
            let w = curve.get(i.saturating_sub(8)..=i).unwrap_or(&[]);
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

/// Seconds from `event_at` until the smoothed curve reaches ≥ 99 % clean
/// resolutions and *stays* there through the rest of `[event_at, limit)`.
/// Infinite when the fleet never settles inside the window.
pub fn time_to_reconverge(curve: &[f64], event_at: f64, limit: f64) -> f64 {
    let lo = event_at.floor() as usize;
    let hi = (limit.floor() as usize).min(curve.len());
    let settled = curve
        .get(lo..hi)
        .unwrap_or(&[])
        .iter()
        .rev()
        .take_while(|&&v| v >= 0.99)
        .count();
    if settled == 0 {
        f64::INFINITY
    } else {
        ((hi - settled) as f64 - event_at).max(0.0)
    }
}

/// Timeline of the scripted cut → heal → mass crash → recover scenario
/// (simulated seconds) that the reconvergence benches run.
#[derive(Debug, Clone, Copy)]
pub struct CutCrashTimeline {
    /// Group 0 (a quarter of a four-group fleet) is cut off.
    pub cut_at: f64,
    /// The cut heals.
    pub heal_at: f64,
    /// Half the fleet crashes at once.
    pub crash_at: f64,
    /// The crashed half recovers.
    pub recover_at: f64,
    /// Injection stops.
    pub tail_end: f64,
    /// In-flight traffic has drained.
    pub drain_until: f64,
}

impl CutCrashTimeline {
    /// The timeline at this scale. Segments scale with `--time-mult` but
    /// are floored: staleness needs soft state, and soft state needs
    /// warmup traffic, so below the floors a smoke run would have no
    /// soft state to go stale and every check would pass vacuously.
    pub fn new(scale: &Scale) -> CutCrashTimeline {
        let seg = |paper: f64, floor: f64| scale.duration(paper).max(floor);
        let cut_at = seg(20.0, 10.0);
        let heal_at = cut_at + seg(30.0, 12.0);
        let crash_at = heal_at + seg(50.0, 15.0);
        let recover_at = crash_at + seg(10.0, 4.0);
        let tail_end = recover_at + seg(60.0, 25.0);
        CutCrashTimeline {
            cut_at,
            heal_at,
            crash_at,
            recover_at,
            tail_end,
            // Unscaled drain so in-flight traffic settles even at small
            // time multipliers.
            drain_until: tail_end + 15.0,
        }
    }

    /// The scenario script (the fleet needs `partitions.n_groups = 4`).
    pub fn events(&self) -> Vec<ScenarioEvent> {
        let at = |at, action| ScenarioEvent { at, action };
        vec![
            at(self.cut_at, ChaosAction::Cut { groups: vec![0] }),
            at(self.heal_at, ChaosAction::Heal),
            at(
                self.crash_at,
                ChaosAction::CorrelatedCrash { fraction: 0.5 },
            ),
            at(self.recover_at, ChaosAction::Recover),
        ]
    }

    /// Reads a finished run's reconvergence curve and its time to
    /// reconverge after the heal and after the mass recovery.
    pub fn reconvergence(&self, sys: &System) -> Reconvergence {
        let curve = sys.stats().reconvergence();
        let smoothed = smooth(&curve);
        Reconvergence {
            ttr_heal: time_to_reconverge(&smoothed, self.heal_at, self.crash_at),
            ttr_recover: time_to_reconverge(&smoothed, self.recover_at, self.tail_end),
            curve,
        }
    }
}

/// A run's per-second reconvergence curve (fraction of resolutions that
/// never hit a stale pointer) and its times to reconverge.
#[derive(Debug, Clone, Default)]
pub struct Reconvergence {
    /// The raw per-second curve.
    pub curve: Vec<f64>,
    /// Seconds from the heal until the smoothed curve settles.
    pub ttr_heal: f64,
    /// Seconds from the mass recovery until the smoothed curve settles.
    pub ttr_recover: f64,
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    #[test]
    fn scale_keeps_eight_nodes_per_server() {
        for servers in [4u32, 32, 256, 4096] {
            let s = Scale::for_servers(servers, 1.0);
            let nodes = 2usize.pow(s.ts_levels as u32 + 1) - 1;
            let per_server = nodes as f64 / s.servers as f64;
            assert!(
                (7.0..=8.0).contains(&per_server),
                "{servers} servers → {per_server} nodes/server"
            );
        }
    }

    #[test]
    fn full_scale_matches_paper() {
        let s = Scale::for_servers(4096, 1.0);
        assert_eq!(s.servers, 4096);
        assert_eq!(s.ts_levels, 14); // 32767 nodes
        assert_eq!(s.ts_namespace().len(), 32_767);
        assert!((s.rate(20_000.0) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_scales_with_servers() {
        let s = Scale::for_servers(256, 1.0);
        assert!((s.rate(20_000.0) - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn json_obj_renders_every_field_kind() {
        let j = JsonObj::new()
            .str("label", "a\"b")
            .int("count", 7)
            .num("frac", 0.5)
            .num("never", f64::INFINITY)
            .arr("curve", &[1.0, f64::NAN])
            .obj("inner", JsonObj::new().int("x", 1));
        assert_eq!(
            j.render(),
            "{\"label\":\"a\\\"b\",\"count\":7,\"frac\":0.500000,\
             \"never\":null,\"curve\":[1.000000,null],\"inner\":{\"x\":1}}"
        );
    }

    #[test]
    fn json_obj_is_order_stable() {
        let a = JsonObj::new().int("b", 2).int("a", 1).render();
        assert_eq!(a, "{\"b\":2,\"a\":1}");
    }

    #[test]
    fn raw_embeds_prerendered_json_verbatim() {
        let j = JsonObj::new().raw("summary", "{\"injected\":3}").render();
        assert_eq!(j, "{\"summary\":{\"injected\":3}}");
    }

    #[test]
    fn parse_from_defaults() {
        let a = Args::parse_from(Vec::<String>::new()).unwrap();
        assert!(!a.full);
        assert_eq!(a.servers, None);
        assert_eq!(a.seed, 42);
        assert_eq!(a.time_mult, 1.0);
        assert_eq!(a.scale().servers, 256);
    }

    #[test]
    fn parse_from_reads_every_flag() {
        let a = Args::parse_from([
            "--full",
            "--servers",
            "16",
            "--seed",
            "7",
            "--time-mult",
            "0.1",
        ])
        .unwrap();
        assert!(a.full);
        assert_eq!(a.servers, Some(16));
        assert_eq!(a.seed, 7);
        assert_eq!(a.time_mult, 0.1);
    }

    #[test]
    fn parse_from_rejects_fleets_below_two_servers() {
        for n in ["0", "1"] {
            let e = Args::parse_from(["--servers", n]).unwrap_err();
            assert!(e.contains("--servers"), "{e}");
        }
        assert!(Args::parse_from(["--servers", "2"]).is_ok());
    }

    #[test]
    fn parse_from_rejects_non_positive_or_non_finite_time_mult() {
        for m in ["-1", "0", "nan", "inf", "-inf"] {
            let e = Args::parse_from(["--time-mult", m]).unwrap_err();
            assert!(e.contains("--time-mult"), "{m}: {e}");
        }
    }

    #[test]
    fn parse_from_rejects_missing_values_and_unknown_flags() {
        assert!(Args::parse_from(["--servers"]).is_err());
        assert!(Args::parse_from(["--seed", "x"]).is_err());
        assert!(Args::parse_from(["--sevrers", "16"]).is_err());
        // An empty error asks for the usage text and exit code 0.
        assert_eq!(Args::parse_from(["--help"]).unwrap_err(), "");
    }

    #[test]
    fn time_to_reconverge_is_infinite_for_an_empty_window() {
        let curve = [1.0; 10];
        assert!(time_to_reconverge(&curve, 5.0, 5.0).is_infinite());
        assert!(time_to_reconverge(&curve, 8.0, 3.0).is_infinite());
        assert!(time_to_reconverge(&[], 0.0, 10.0).is_infinite());
    }

    #[test]
    fn time_to_reconverge_is_infinite_when_the_curve_never_settles() {
        // Back above 99 % for a while, but the window ends on a dip.
        let curve = [1.0, 0.5, 1.0, 1.0, 0.9];
        assert!(time_to_reconverge(&curve, 1.0, 5.0).is_infinite());
    }

    #[test]
    fn time_to_reconverge_counts_seconds_until_the_curve_stays_settled() {
        // Dips at t = 2..5, briefly recovers at 5, dips at 6, settled
        // from t = 7 on.
        let curve = [1.0, 1.0, 0.6, 0.8, 0.9, 0.995, 0.95, 0.99, 1.0, 1.0];
        assert_eq!(time_to_reconverge(&curve, 2.0, 10.0), 5.0);
        // A fractional event time counts from the event, not its bin.
        assert_eq!(time_to_reconverge(&curve, 2.5, 10.0), 4.5);
        // Already settled at the event: zero, never negative.
        assert_eq!(time_to_reconverge(&curve, 7.5, 10.0), 0.0);
    }

    #[test]
    fn smooth_averages_the_short_first_window() {
        let curve = [1.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0];
        let s = smooth(&curve);
        assert_eq!(s.len(), curve.len());
        assert_eq!(s[0], 1.0);
        assert_eq!(s[1], 0.5);
        assert_eq!(s[2], 0.5);
        // Full nine-second windows from index 8 on.
        assert!((s[8] - 7.0 / 9.0).abs() < 1e-12);
        assert!((s[9] - 7.0 / 9.0).abs() < 1e-12);
        assert!((s[10] - 7.0 / 9.0).abs() < 1e-12);
        assert!(smooth(&[]).is_empty());
    }

    #[test]
    fn time_back_to_baseline_is_infinite_when_it_never_returns() {
        let mut curve = vec![1.0; 20];
        curve.extend([0.5; 20]);
        assert!(time_back_to_baseline(&curve, 20.0, 20.0).is_infinite());
    }

    #[test]
    fn time_back_to_baseline_is_zero_when_it_never_dips() {
        let curve = [0.8; 40];
        assert_eq!(time_back_to_baseline(&curve, 20.0, 20.0), 0.0);
    }

    #[test]
    fn time_back_to_baseline_measures_from_the_given_time() {
        // Baseline 1.0 over [10, 20); the dip lasts until t = 27; exactly
        // 95 % of the baseline, reached at t = 28, counts as back.
        let mut curve = vec![0.0; 10];
        curve.extend([1.0; 10]);
        curve.extend([0.2; 8]);
        curve.extend([0.95; 5]);
        assert_eq!(time_back_to_baseline(&curve, 20.0, 20.0), 8.0);
        assert_eq!(time_back_to_baseline(&curve, 20.0, 25.0), 3.0);
    }

    #[test]
    fn window_mean_clips_to_the_curve() {
        let curve = [1.0, 2.0, 3.0];
        assert_eq!(window_mean(&curve, 1, 3), 2.5);
        assert_eq!(window_mean(&curve, 0, 10), 2.0);
        assert_eq!(window_mean(&curve, 5, 10), 0.0);
    }

    #[test]
    fn cut_crash_timeline_scripts_its_four_events_in_order() {
        let tl = CutCrashTimeline::new(&Scale::for_servers(16, 0.1));
        // At a 0.1 time multiplier every segment sits at its floor.
        assert_eq!(tl.cut_at, 10.0);
        assert_eq!(tl.heal_at, 22.0);
        assert_eq!(tl.drain_until, tl.tail_end + 15.0);
        let ev = tl.events();
        let at: Vec<f64> = ev.iter().map(|e| e.at).collect();
        assert_eq!(at, [tl.cut_at, tl.heal_at, tl.crash_at, tl.recover_at]);
        assert!(matches!(ev[0].action, ChaosAction::Cut { .. }));
        assert!(matches!(ev[3].action, ChaosAction::Recover));
    }

    #[test]
    fn tc_namespace_is_seed_deterministic() {
        let s = Scale::for_servers(16, 1.0);
        let a = s.tc_namespace(7);
        let b = s.tc_namespace(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 320);
    }
}
