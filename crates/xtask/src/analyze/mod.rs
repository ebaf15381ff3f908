//! The `cargo xtask analyze` driver: wires every pass to the workspace.
//!
//! Five passes run as one suite (`lint` and `analyze` are synonyms),
//! **cheapest first** so a dirty tree fails fast. Each holds a rule no
//! rustc or clippy lint can express; the rules a lint can carry
//! (determinism, panic-freedom, exhaustive matches, shared mutability)
//! live in the root `clippy.toml` and `[workspace.lints.clippy]`
//! (DESIGN.md §15.1).
//!
//! 1. emitted statistics ([`dead_config::check_emitted`]) — every
//!    `RunStats`-only row of the stats table is read by a harness or a
//!    derived row,
//! 2. config docs ↔ DESIGN.md ([`crate::checks::check_struct_docs`]),
//! 3. hot-path allocation discipline ([`hotpath`]),
//! 4. state isolation ([`isolation`]) — cross-server `&mut` access only
//!    inside the fenced dispatch regions,
//! 5. dead config ([`dead_config`]).
//!
//! Measured on this workspace (`cargo xtask analyze --timings`, debug
//! build, 2-core host): emitted ≈ 17 ms, config-docs ≈ 38 ms, hotpath
//! ≈ 72 ms, isolation ≈ 80 ms, dead-config ≈ 84 ms; ≈ 0.3 s for the whole
//! run. dead-config took ≈ 2.25 s of a ≈ 2.6 s run while it re-scrubbed
//! every reader once per audited struct (14 times); it now scrubs and
//! indexes the readers once.
//!
//! Every pass is timed; `cargo xtask analyze --timings` prints the
//! per-pass wall clock so CI output shows which pass is slow as the
//! suite grows (CI always passes `--timings` for exactly that reason).

pub mod dead_config;
pub mod hotpath;
pub mod isolation;

use std::path::Path;
use std::time::{Duration, Instant};

use crate::checks::{self, Violation};
use crate::{load_sources, read};

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
    let config_label = "crates/terradir/src/config.rs";
    let config = read(root, config_label)
        .map_err(|e| report.io_errors.push(e))
        .ok();

    // Pass 1: emitted statistics.
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

    // Pass 2: config docs ↔ DESIGN.md.
    let t = Instant::now();
    let mut vs = Vec::new();
    match (&config, read(root, "DESIGN.md")) {
        (Some(config), Ok(design)) => {
            for name in dead_config::CONFIG_STRUCTS {
                vs.extend(checks::check_struct_docs(config, &design, name));
            }
        }
        (_, design) => report.io_errors.extend(design.err()),
    }
    report.record("config-docs", vs, t);

    // Pass 3: hot-path allocation discipline.
    let t = Instant::now();
    let mut vs = Vec::new();
    for rel in hotpath::HOT_PATH_FILES {
        match read(root, rel) {
            Ok(src) => vs.extend(hotpath::check_hotpath(rel, &src)),
            Err(e) => report.io_errors.push(e),
        }
    }
    report.record("hotpath", vs, t);

    // Pass 4: state isolation (Rule B, fenced dispatch regions).
    let t = Instant::now();
    let mut vs = Vec::new();
    let behavior = non_test_sources(root, isolation::BEHAVIOR_CRATES, &mut report.io_errors);
    for (label, src) in &behavior {
        vs.extend(isolation::check_isolation(label, src));
    }
    report.record("isolation", vs, t);

    // Pass 5: dead config, every knob against every reader.
    let t = Instant::now();
    let mut vs = Vec::new();
    if let Some(config) = &config {
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
        vs.extend(dead_config::check_dead_config(
            config,
            dead_config::CONFIG_STRUCTS,
            &readers,
        ));
    }
    report.record("dead-config", vs, t);

    report
}
