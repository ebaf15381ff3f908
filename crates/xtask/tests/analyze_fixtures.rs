//! Fixture tests for the `cargo xtask analyze` passes: each known-bad
//! fixture under `tests/fixtures/` seeds violations on annotated lines,
//! and the passes must report exactly those `path:line` locations —
//! while the known-clean fixture sails through every pass untouched.

use std::path::Path;

use xtask::analyze::{dead_config, hotpath, isolation};

#[allow(
    clippy::panic,
    reason = "a missing fixture aborts the test that asked for it"
)]
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
    let vs = dead_config::check_dead_config(&config, &["Config"], &readers);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].line, 9);
    assert!(vs[0].what.contains("Config field `orphan_knob` is dead"));
    // `gated` is consumed only through its accessor — still live.
    assert!(!vs.iter().any(|v| v.what.contains("`gated`")));
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
    assert_eq!(vs.len(), 4, "{got:#?}");
    let expect: &[(usize, &str)] = &[
        (10, ".ctxs.get_mut"),
        (11, "outside `crates/terradir/src/system.rs`"),
        (12, "&mut self.ctxs"),
        (13, "outside `crates/terradir/src/system.rs`"),
    ];
    for (v, (line, needle)) in vs.iter().zip(expect) {
        assert_eq!(v.line, *line, "{got:#?}");
        assert!(v.what.contains(needle), "line {line}: {}", v.what);
        assert_eq!(v.file, label);
        // The rendered diagnostic is a clickable path:line.
        assert!(v.to_string().starts_with(&format!("{label}:{}", v.line)));
    }
    // The cfg(test) module at the bottom never reported.
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

    let emitters = srcs(
        "crates/bench/src/bin/fig.rs",
        "fn g(st: &RunStats) { let _ = st.injected; }",
    );
    let vs = dead_config::check_emitted(&src, &emitters);
    assert!(vs.is_empty(), "emitted: {vs:?}");

    let vs = dead_config::check_dead_config(&src, &["Config"], &srcs(label, &src));
    assert!(vs.is_empty(), "dead-config: {vs:?}");

    let vs = hotpath::check_hotpath(label, &src);
    assert!(vs.is_empty(), "hotpath: {vs:?}");

    let vs = isolation::check_isolation(isolation::DISPATCH_FILE, &src);
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
    // All five passes actually ran, cheapest first, and each was timed.
    let names: Vec<&str> = report.passes.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        vec![
            "emitted",
            "config-docs",
            "hotpath",
            "isolation",
            "dead-config"
        ]
    );
    let timed: Vec<&str> = report.timings.iter().map(|(n, _)| *n).collect();
    assert_eq!(timed, names);
}
