//! The `cargo xtask analyze` driver: wires every pass to the workspace.
//!
//! Eight passes run as one suite (`lint` and `analyze` are synonyms —
//! CI gates on the union), **cheapest first** so a dirty tree fails in
//! milliseconds instead of waiting out the expensive scans. Measured on
//! this workspace (`cargo xtask analyze --timings`, debug build, 2-core
//! host): exhaustive ≈ 31 ms, panic-free ≈ 39 ms, determinism ≈ 41 ms,
//! config-docs ≈ 31 ms, hotpath ≈ 67 ms, isolation ≈ 79 ms, emitted
//! ≈ 50 ms, dead-config ≈ 2.0 s.
//!
//! 1. enum exhaustiveness ([`exhaustive`]) — generalizes and subsumes
//!    the original message-handler and drop-taxonomy checks,
//! 2. panic-free library code ([`crate::checks::check_no_panics`]),
//! 3. determinism lint ([`determinism`]),
//! 4. config docs ↔ DESIGN.md ([`crate::checks::check_struct_docs`]),
//! 5. hot-path allocation discipline ([`hotpath`]),
//! 6. state isolation ([`isolation`]) — the concurrency-readiness
//!    wall over the stateful/stateless context split,
//! 7. emitted statistics ([`dead_config::check_emitted`]) — every
//!    `RunStats`-only row of the stats table is read by a harness or a
//!    derived row,
//! 8. dead config ([`dead_config`]).
//!
//! Every pass is timed; `cargo xtask analyze --timings` prints the
//! per-pass wall clock so CI output shows which pass is slow as the
//! suite grows (CI always passes `--timings` for exactly that reason).

pub mod dead_config;
pub mod determinism;
pub mod exhaustive;
pub mod hotpath;
pub mod isolation;

use std::path::Path;
use std::time::{Duration, Instant};

use crate::checks::{self, Violation};
use crate::{load_sources, read, LIB_CRATES};

/// Everything one suite run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations, in pass order.
    pub violations: Vec<Violation>,
    /// Files the driver could not read.
    pub io_errors: Vec<String>,
    /// `(pass name, violations found)` per pass, for the summary line.
    pub passes: Vec<(&'static str, usize)>,
    /// `(pass name, wall time)` per pass, for `--timings`.
    pub timings: Vec<(&'static str, Duration)>,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.io_errors.is_empty()
    }

    fn record(&mut self, pass: &'static str, vs: Vec<Violation>, started: Instant) {
        self.passes.push((pass, vs.len()));
        self.timings.push((pass, started.elapsed()));
        self.violations.extend(vs);
    }
}

/// Loads every non-test source file under the given crate `src/` trees:
/// out-of-line `#[cfg(test)]` modules (e.g. `soft_state_tests.rs`) are
/// dropped; inline test modules are left for `behavior_text` to blank.
fn non_test_sources(
    root: &Path,
    crates: &[&str],
    io_errors: &mut Vec<String>,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for krate in crates {
        let dir = root.join("crates").join(krate).join("src");
        let files = load_sources(root, &dir, io_errors);
        let mut test_stems: Vec<String> = Vec::new();
        for (_, src) in &files {
            test_stems.extend(checks::test_module_files(src));
        }
        for (label, src) in files {
            let stem = Path::new(&label)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            if test_stems.contains(&stem) {
                continue;
            }
            out.push((label, src));
        }
    }
    out
}

/// Runs the full suite against the workspace rooted at `root`,
/// cheapest pass first (timings in the module docs).
pub fn run(root: &Path) -> Report {
    let mut report = Report::default();

    // Pass 1: enum exhaustiveness (subsumes the original message-handler
    // and drop-taxonomy checks via the Message and DropKind rules).
    let t = Instant::now();
    let mut vs = Vec::new();
    for rule in exhaustive::ENUM_RULES {
        match read(root, rule.def_file) {
            Ok(def) => {
                let mut consumers = Vec::new();
                for rel in rule.use_files {
                    match read(root, rel) {
                        Ok(src) => consumers.push(((*rel).to_string(), src)),
                        Err(e) => report.io_errors.push(e),
                    }
                }
                vs.extend(exhaustive::check_enum_rule(rule, &def, &consumers));
            }
            Err(e) => report.io_errors.push(e),
        }
    }
    report.record("exhaustive", vs, t);

    // Pass 2: panic-free library code.
    let t = Instant::now();
    let lib_sources = non_test_sources(root, LIB_CRATES, &mut report.io_errors);
    let mut vs = Vec::new();
    for (label, src) in &lib_sources {
        vs.extend(checks::check_no_panics(label, src));
    }
    report.record("panic-free", vs, t);

    // Pass 3: determinism lint over behavior crates. The loaded sources
    // are shared with the isolation pass below.
    let t = Instant::now();
    let behavior = non_test_sources(root, determinism::BEHAVIOR_CRATES, &mut report.io_errors);
    let mut vs = Vec::new();
    for (label, src) in &behavior {
        vs.extend(determinism::check_determinism(label, src));
    }
    report.record("determinism", vs, t);

    // Pass 4: config docs ↔ DESIGN.md.
    let t = Instant::now();
    let mut vs = Vec::new();
    match (
        read(root, "crates/terradir/src/config.rs"),
        read(root, "DESIGN.md"),
    ) {
        (Ok(config), Ok(design)) => {
            for name in dead_config::CONFIG_STRUCTS {
                vs.extend(checks::check_struct_docs(&config, &design, name));
            }
        }
        (a, b) => {
            report.io_errors.extend(a.err());
            report.io_errors.extend(b.err());
        }
    }
    report.record("config-docs", vs, t);

    // Pass 5: hot-path allocation discipline.
    let t = Instant::now();
    let mut vs = Vec::new();
    for rel in hotpath::HOT_PATH_FILES {
        match read(root, rel) {
            Ok(src) => vs.extend(hotpath::check_hotpath(rel, &src)),
            Err(e) => report.io_errors.push(e),
        }
    }
    report.record("hotpath", vs, t);

    // Pass 6: state isolation over the same behavior-crate sources the
    // determinism pass loaded (the two share BEHAVIOR_CRATES).
    let t = Instant::now();
    let mut vs = Vec::new();
    for (label, src) in &behavior {
        vs.extend(isolation::check_isolation(label, src));
    }
    report.record("isolation", vs, t);

    // Pass 7: emitted statistics.
    let t = Instant::now();
    let mut vs = Vec::new();
    match read(root, "crates/terradir/src/stats.rs") {
        Ok(stats) => {
            let emitters = non_test_sources(root, &["bench", "cli"], &mut report.io_errors);
            vs.extend(dead_config::check_emitted(&stats, &emitters));
        }
        Err(e) => report.io_errors.push(e),
    }
    report.record("emitted", vs, t);

    // Pass 8: dead config (the expensive one — a full cross-reference
    // of every knob against every reader — so it runs last).
    let t = Instant::now();
    let mut vs = Vec::new();
    match read(root, "crates/terradir/src/config.rs") {
        Ok(config) => {
            let config_label = "crates/terradir/src/config.rs";
            let reader_crates = [
                "namespace",
                "bloom",
                "workload",
                "sim",
                "terradir",
                "net",
                "bench",
                "cli",
            ];
            let readers: Vec<(String, String)> =
                non_test_sources(root, &reader_crates, &mut report.io_errors)
                    .into_iter()
                    .filter(|(label, _)| label != config_label)
                    .collect();
            for name in dead_config::CONFIG_STRUCTS {
                vs.extend(dead_config::check_dead_config(&config, name, &readers));
            }
        }
        Err(e) => report.io_errors.push(e),
    }
    report.record("dead-config", vs, t);

    report
}
