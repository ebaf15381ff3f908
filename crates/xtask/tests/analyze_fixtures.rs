// Test code: panicking asserts are the point.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Fixture tests for the `cargo xtask analyze` passes: each known-bad
//! fixture under `tests/fixtures/` seeds violations on annotated lines,
//! and the passes must report exactly those `path:line` locations —
//! while the known-clean fixture sails through every pass untouched.

use std::path::Path;

use xtask::analyze::{dead_config, determinism, exhaustive, hotpath, isolation};
use xtask::checks;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn srcs(label: &str, s: &str) -> Vec<(String, String)> {
    vec![(label.to_string(), s.to_string())]
}

#[test]
fn determinism_fixture_is_flagged_at_exact_lines() {
    let src = fixture("determinism_bad.rs");
    let label = "crates/terradir/src/determinism_bad.rs";
    let vs = determinism::check_determinism(label, &src);
    let got: Vec<(usize, &str)> = vs.iter().map(|v| (v.line, v.what.as_str())).collect();
    assert_eq!(vs.len(), 3, "{got:?}");
    assert_eq!(vs[0].line, 7);
    assert!(vs[0].what.contains("Instant::now"));
    assert_eq!(vs[1].line, 11);
    assert!(vs[1].what.contains("thread_rng"));
    assert_eq!(vs[2].line, 16);
    assert!(vs[2].what.contains("HashMap::new"));
    for v in &vs {
        assert_eq!(v.file, label);
        // The rendered diagnostic is a clickable path:line.
        assert!(v.to_string().starts_with(&format!("{label}:{}", v.line)));
    }
}

#[test]
fn emitted_fixture_is_flagged_at_the_row() {
    let stats = fixture("emitted_bad.rs");
    let emitters = srcs(
        "crates/bench/src/bin/fig.rs",
        "fn g(st: &RunStats) { let _ = st.summary(); }",
    );
    let vs = dead_config::check_emitted(&stats, &emitters);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].line, 12);
    assert!(vs[0].what.contains("`ghost_counter` is never emitted"));
    // `dropped_queue` is emitted through the derived row's accessor.
    assert!(!vs.iter().any(|v| v.what.contains("`dropped_queue`")));
}

#[test]
fn dead_config_fixture_is_flagged_at_the_orphan_knob() {
    let config = fixture("dead_config_bad.rs");
    let readers = srcs(
        "crates/terradir/src/system.rs",
        "fn f(c: &Config) { let _ = c.live_knob && c.gated_active(); }",
    );
    let vs = dead_config::check_dead_config(&config, "Config", &readers);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].line, 9);
    assert!(vs[0].what.contains("Config field `orphan_knob` is dead"));
    // `gated` is consumed only through its accessor — still live.
    assert!(!vs.iter().any(|v| v.what.contains("`gated`")));
}

#[test]
fn exhaustive_fixture_flags_the_variant_behind_the_wildcard() {
    let src = fixture("exhaustive_bad.rs");
    let rule = exhaustive::EnumRule {
        name: "Event",
        def_file: "crates/terradir/src/exhaustive_bad.rs",
        use_files: &["crates/terradir/src/exhaustive_bad.rs"],
        why: "fixture rule",
    };
    let consumers = srcs("crates/terradir/src/exhaustive_bad.rs", &src);
    let vs = exhaustive::check_enum_rule(&rule, &src, &consumers);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].what.contains("Event::Heal is never named"));
    // Event::Heal appears in a comment of the consumer — scrubbing must
    // have kept that from satisfying the rule.
}

#[test]
fn hotpath_fixture_is_flagged_at_exact_lines() {
    let src = fixture("hotpath_bad.rs");
    let label = "crates/terradir/src/hotpath_bad.rs";
    let vs = hotpath::check_hotpath(label, &src);
    let got: Vec<(usize, &str)> = vs.iter().map(|v| (v.line, v.what.as_str())).collect();
    assert_eq!(vs.len(), 9, "{got:#?}");
    let expect: &[(usize, &str)] = &[
        (6, ".clone"),
        (10, ".to_string"),
        (11, "format!"),
        (15, "Box::new"),
        (15, "vec!"),
        (19, ".collect"),
        (23, "String::from"),
        (27, "without a justification"),
        (28, ".clone"),
    ];
    for (v, (line, needle)) in vs.iter().zip(expect) {
        assert_eq!(v.line, *line, "{got:#?}");
        assert!(v.what.contains(needle), "line {line}: {}", v.what);
        assert_eq!(v.file, label);
        // The rendered diagnostic is a clickable path:line.
        assert!(v.to_string().starts_with(&format!("{label}:{}", v.line)));
    }
    // The justified marker at line 32 suppressed the clone at line 33,
    // and the cfg(test) module at the bottom never reported.
    assert!(!vs.iter().any(|v| v.line >= 31), "{got:#?}");
}

#[test]
fn isolation_fixture_is_flagged_at_exact_lines() {
    let src = fixture("isolation_bad.rs");
    let label = "crates/terradir/src/isolation_bad.rs";
    let vs = isolation::check_isolation(label, &src);
    let got: Vec<(usize, &str)> = vs.iter().map(|v| (v.line, v.what.as_str())).collect();
    assert_eq!(vs.len(), 13, "{got:#?}");
    let expect: &[(usize, &str)] = &[
        (5, "Rc<"),
        (6, "RefCell"),
        (7, "Cell<"),
        (10, "static mut"),
        (12, "thread_local!"),
        (17, "Mutex"),
        (18, "RwLock"),
        (28, ".ctxs.get_mut"),
        (29, "outside `crates/terradir/src/system.rs`"),
        (30, "&mut self.ctxs"),
        (31, "outside `crates/terradir/src/system.rs`"),
        (35, "without a justification"),
        (37, "RefCell"),
    ];
    for (v, (line, needle)) in vs.iter().zip(expect) {
        assert_eq!(v.line, *line, "{got:#?}");
        assert!(v.what.contains(needle), "line {line}: {}", v.what);
        assert_eq!(v.file, label);
        // The rendered diagnostic is a clickable path:line.
        assert!(v.to_string().starts_with(&format!("{label}:{}", v.line)));
    }
    // The justified marker at line 41 suppressed the RefCell at line 42,
    // and the cfg(test) module at the bottom never reported.
    assert!(!vs.iter().any(|v| v.line >= 40), "{got:#?}");
}

#[test]
fn isolation_clean_fixture_passes_as_the_dispatch_file() {
    let src = fixture("isolation_clean.rs");
    let vs = isolation::check_isolation(isolation::DISPATCH_FILE, &src);
    assert!(vs.is_empty(), "isolation: {vs:?}");
}

#[test]
fn hotpath_clean_fixture_passes() {
    let src = fixture("hotpath_clean.rs");
    let vs = hotpath::check_hotpath("crates/sim/src/calendar.rs", &src);
    assert!(vs.is_empty(), "hotpath: {vs:?}");
}

#[test]
fn clean_fixture_passes_every_pass() {
    let src = fixture("clean.rs");
    let label = "crates/terradir/src/clean.rs";

    let vs = determinism::check_determinism(label, &src);
    assert!(vs.is_empty(), "determinism: {vs:?}");

    let vs = checks::check_no_panics(label, &src);
    assert!(vs.is_empty(), "panic-free: {vs:?}");

    let writers = srcs(label, &src);
    let emitters = srcs(
        "crates/bench/src/bin/fig.rs",
        "fn g(st: &RunStats) { let _ = st.injected; }",
    );
    let vs = dead_config::check_emitted(&src, &emitters);
    assert!(vs.is_empty(), "emitted: {vs:?}");

    let vs = dead_config::check_dead_config(&src, "Config", &writers);
    assert!(vs.is_empty(), "dead-config: {vs:?}");

    let rule = exhaustive::EnumRule {
        name: "Event",
        def_file: label,
        use_files: &[],
        why: "fixture rule",
    };
    let vs = exhaustive::check_enum_rule(&rule, &src, &writers);
    assert!(vs.is_empty(), "exhaustive: {vs:?}");

    let vs = isolation::check_isolation(label, &src);
    assert!(vs.is_empty(), "isolation: {vs:?}");
}

#[test]
fn full_suite_is_clean_on_this_workspace() {
    // The acceptance gate, as a test: the real tree has no violations.
    let report = xtask::analyze::run(&xtask::workspace_root());
    assert!(
        report.is_clean(),
        "violations: {:#?}\nio errors: {:#?}",
        report.violations,
        report.io_errors
    );
    // All eight passes actually ran, cheapest first, and each was timed.
    let names: Vec<&str> = report.passes.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        vec![
            "exhaustive",
            "panic-free",
            "determinism",
            "config-docs",
            "hotpath",
            "isolation",
            "emitted",
            "dead-config"
        ]
    );
    let timed: Vec<&str> = report.timings.iter().map(|(n, _)| *n).collect();
    assert_eq!(timed, names);
}
