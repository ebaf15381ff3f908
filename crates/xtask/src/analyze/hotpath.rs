//! Hot-path allocation lint: deny allocation-heavy idioms in the modules
//! that execute once per simulated event.
//!
//! ROADMAP's fast-simulator-core arc lives or dies on per-event heap
//! traffic: a clone or `collect()` on the routing/event-loop hot path is
//! paid millions of times per run and silently erases any kernel-level
//! speedup. This pass is the static half of the allocation discipline
//! (the runtime half is the `alloc-ledger` counting allocator feeding
//! `RunStats.alloc_events`/`alloc_bytes`): over the declared hot-path
//! module set it denies the idioms that allocate on every call —
//! `.clone()`/`.cloned()`, `.to_string()`/`.to_owned()`/`.to_vec()`,
//! `format!`, `String::from`, `vec!`, `Box::new`, and `.collect()` into
//! owned containers.
//!
//! Escape hatch: a copy that is genuinely required (protocol messages
//! carry owned payloads; construction code runs once) is justified in
//! place with a marker on the same line or the line above:
//!
//! ```text
//! // xtask: allow(alloc): map snapshot travels in the packet
//! ```
//!
//! The justification is mandatory — a bare marker is itself a violation.
//! `#[cfg(test)]` modules are exempt (tests may allocate freely), and
//! matching is token-boundary-safe: `.clone_from` (which reuses the
//! destination buffer) does not trip the `.clone` rule, and
//! `String::from_utf8` does not trip `String::from`.

use crate::checks::Violation;
use crate::lexer::{cfg_test_ranges, line_of, scrub};

/// The declared hot-path module set: files on the per-event execution
/// path of the simulator (routing decisions, digest tests, message
/// handling, the event loop, the calendar, and tree lookups). DESIGN.md
/// §16 documents the policy for extending this list.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/bloom/src/bloom.rs",
    "crates/bloom/src/hashing.rs",
    "crates/namespace/src/distance.rs",
    "crates/namespace/src/tree.rs",
    "crates/sim/src/calendar.rs",
    "crates/terradir/src/gossip.rs",
    "crates/terradir/src/roles.rs",
    "crates/terradir/src/routing.rs",
    "crates/terradir/src/server.rs",
    "crates/terradir/src/storage.rs",
    "crates/terradir/src/system.rs",
];

/// Allocation-heavy idioms denied outside `#[cfg(test)]`. Method tokens
/// are matched without their argument list so turbofish forms
/// (`.collect::<Vec<_>>()`) are caught too.
pub const FORBIDDEN: &[&str] = &[
    ".clone",
    ".cloned",
    ".to_string",
    ".to_owned",
    ".to_vec",
    ".collect",
    "format!",
    "vec!",
    "String::from",
    "Box::new",
];

/// The escape-hatch marker. A violation on line `L` is suppressed when
/// line `L` or line `L - 1` of the *raw* source (markers live in
/// comments, which scrubbing blanks) carries the marker followed by a
/// non-empty justification.
pub const ALLOW_MARKER: &str = "xtask: allow(alloc)";

/// Is `src[pos..]` preceded by an identifier boundary? Tokens that start
/// with `.` are anchored by the dot itself and skip this check.
fn bounded_before(scrubbed: &str, pos: usize, token: &str) -> bool {
    if token.starts_with('.') {
        return true;
    }
    pos == 0
        || !scrubbed
            .as_bytes()
            .get(pos - 1)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

/// Is the byte *after* the token a non-identifier byte? Keeps `.clone`
/// from matching `.clone_from` and `String::from` from matching
/// `String::from_utf8`.
fn bounded_after(scrubbed: &str, end: usize) -> bool {
    !scrubbed
        .as_bytes()
        .get(end)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

/// Parses allow markers out of the raw source. Returns the set of line
/// numbers carrying a *justified* marker, and appends a violation for
/// every bare marker (no reason after the colon).
fn allow_lines(file_label: &str, src: &str, out: &mut Vec<Violation>) -> Vec<usize> {
    let mut allowed = Vec::new();
    for (i, raw_line) in src.lines().enumerate() {
        let line_no = i + 1;
        let Some(rest) = raw_line.split(ALLOW_MARKER).nth(1) else {
            continue;
        };
        let reason = rest.strip_prefix(':').map_or("", str::trim);
        if reason.is_empty() {
            out.push(Violation {
                file: file_label.to_string(),
                line: line_no,
                what: format!(
                    "`{ALLOW_MARKER}` marker without a justification \
                     (write `// {ALLOW_MARKER}: <reason>`)"
                ),
            });
        } else {
            allowed.push(line_no);
        }
    }
    allowed
}

/// Scans one hot-path source file for allocation-heavy idioms outside
/// `#[cfg(test)]` modules, honoring justified `xtask: allow(alloc)`
/// markers on the violating line or the line above.
pub fn check_hotpath(file_label: &str, src: &str) -> Vec<Violation> {
    let scrubbed = scrub(src);
    let exempt = cfg_test_ranges(&scrubbed);
    let mut out = Vec::new();
    let allowed = allow_lines(file_label, src, &mut out);
    for token in FORBIDDEN {
        let mut search = 0;
        while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find(token)) {
            let pos = search + rel;
            search = pos + 1;
            if exempt.iter().any(|&(lo, hi)| pos >= lo && pos < hi) {
                continue;
            }
            if !bounded_before(&scrubbed, pos, token)
                || !bounded_after(&scrubbed, pos + token.len())
            {
                continue;
            }
            let line = line_of(src, pos);
            if allowed.contains(&line) || (line > 1 && allowed.contains(&(line - 1))) {
                continue;
            }
            out.push(Violation {
                file: file_label.to_string(),
                line,
                what: format!(
                    "allocation-heavy idiom `{token}` on the hot path \
                     (borrow or reuse a buffer; if the copy is required, \
                     justify it with `// {ALLOW_MARKER}: <reason>`)"
                ),
            });
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.what.cmp(&b.what)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_and_collects_are_caught_at_exact_lines() {
        let src = "pub fn bad(v: &[u32]) -> Vec<u32> {\n    let s = \"x\".to_string();\n    let _ = s.clone();\n    v.iter().copied().collect()\n}\n";
        let vs = check_hotpath("crates/terradir/src/routing.rs", src);
        assert_eq!(vs.len(), 3, "{vs:?}");
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].what.contains(".to_string"));
        assert_eq!(vs[1].line, 3);
        assert!(vs[1].what.contains(".clone"));
        assert_eq!(vs[2].line, 4);
        assert!(vs[2].what.contains(".collect"));
    }

    #[test]
    fn boundaries_spare_clone_from_and_from_utf8() {
        let src = "pub fn good(a: &mut Vec<u32>, b: &Vec<u32>) {\n    a.clone_from(b);\n    let _ = String::from_utf8(Vec::new());\n}\n";
        assert!(check_hotpath("crates/terradir/src/routing.rs", src).is_empty());
    }

    #[test]
    fn justified_markers_suppress_same_and_next_line() {
        let src = "pub fn f(v: &Vec<u32>) -> Vec<u32> {\n    // xtask: allow(alloc): snapshot travels in the packet\n    let a = v.clone();\n    let b = a.clone(); // xtask: allow(alloc): second owner required\n    b\n}\n";
        assert!(check_hotpath("crates/terradir/src/routing.rs", src).is_empty());
    }

    #[test]
    fn bare_marker_is_itself_a_violation() {
        let src =
            "pub fn f(v: &Vec<u32>) -> Vec<u32> {\n    // xtask: allow(alloc)\n    v.clone()\n}\n";
        let vs = check_hotpath("crates/terradir/src/routing.rs", src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs[0].what.contains("without a justification"));
        assert!(vs[1].what.contains(".clone"));
    }

    #[test]
    fn cfg_test_modules_allocate_freely() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = vec![1, 2].clone(); }\n}\n";
        assert!(check_hotpath("crates/sim/src/calendar.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_lint() {
        let src = "// .clone() is banned here\npub fn f() -> &'static str { \"format!\" }\n";
        assert!(check_hotpath("crates/sim/src/calendar.rs", src).is_empty());
    }
}
