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
//! place with a marker, either trailing the line it covers or on a
//! comment-only line of its own, where it covers the one statement or
//! match arm that follows, however many lines rustfmt gives it:
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
    "crates/bloom/src/digest.rs",
    "crates/bloom/src/hashing.rs",
    "crates/namespace/src/distance.rs",
    "crates/namespace/src/tree.rs",
    "crates/sim/src/calendar.rs",
    "crates/terradir/src/cache.rs",
    "crates/terradir/src/digests.rs",
    "crates/terradir/src/flat.rs",
    "crates/terradir/src/gossip.rs",
    "crates/terradir/src/load.rs",
    "crates/terradir/src/map.rs",
    "crates/terradir/src/messages.rs",
    "crates/terradir/src/records.rs",
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

/// The escape-hatch marker, followed by a non-empty justification. It
/// lives in a comment of the *raw* source (scrubbing blanks comments). A
/// marker after code covers its own line; a marker on a comment-only
/// line covers the next statement or match arm and nothing after it.
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

/// The last line (0-based) of the statement or match arm starting on
/// the first non-blank line after line `marker`, read off rustfmt's
/// layout (CI checks it): the statement runs on while lines are blank,
/// indented deeper than its first line, or open at that indent with a
/// closer (`}`, `)`, `]`) — the end of its own block, as in `};` or
/// `} else {`.
fn statement_last_line(lines: &[&str], marker: usize) -> usize {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut rest = lines
        .iter()
        .enumerate()
        .skip(marker + 1)
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((mut last, first)) = rest.next() else {
        return marker;
    };
    for (i, line) in rest {
        let deeper = indent(line) > indent(first);
        let closer =
            indent(line) == indent(first) && line.trim_start().starts_with(['}', ')', ']']);
        if !(deeper || closer) {
            break;
        }
        last = i;
    }
    last
}

/// Parses allow markers out of the raw source. Returns the inclusive line
/// ranges (1-based) that *justified* markers cover, and appends a
/// violation for every bare marker (no reason after the colon).
fn allowed_ranges(
    file_label: &str,
    src: &str,
    scrubbed: &str,
    out: &mut Vec<Violation>,
) -> Vec<(usize, usize)> {
    let clean: Vec<&str> = scrubbed.lines().collect();
    let mut allowed = Vec::new();
    for (i, (raw_line, clean_line)) in src.lines().zip(&clean).enumerate() {
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
        } else if clean_line.trim().is_empty() {
            allowed.push((line_no, statement_last_line(&clean, i) + 1));
        } else {
            allowed.push((line_no, line_no));
        }
    }
    allowed
}

/// Scans one hot-path source file for allocation-heavy idioms outside
/// `#[cfg(test)]` modules, honoring justified `xtask: allow(alloc)`
/// markers.
pub fn check_hotpath(file_label: &str, src: &str) -> Vec<Violation> {
    let scrubbed = scrub(src);
    let exempt = cfg_test_ranges(&scrubbed);
    let mut out = Vec::new();
    let allowed = allowed_ranges(file_label, src, &scrubbed, &mut out);
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
            if allowed.iter().any(|&(lo, hi)| (lo..=hi).contains(&line)) {
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
    fn justified_markers_suppress_their_line_or_next_statement() {
        // The match arm is the reflowed case: rustfmt made it a block, so
        // its copy sits one line below the arm's first line.
        let src = "pub fn f(k: u8, v: &Vec<u32>, c: bool) -> Vec<u32> {\n    // xtask: allow(alloc): snapshot travels in the packet\n    let a = v\n        .iter()\n        .map(|&x| x + 1)\n        .collect::<Vec<u32>>();\n    let b = a.clone(); // xtask: allow(alloc): second owner required\n    // xtask: allow(alloc): both branches own their copy\n    let w = if c {\n        v.to_vec()\n    } else {\n        b.clone()\n    };\n    match k {\n        // xtask: allow(alloc): detached working copy\n        0 => {\n            w.iter().rev().cloned().collect()\n        }\n        _ => w,\n    }\n}\n";
        assert!(check_hotpath("crates/terradir/src/routing.rs", src).is_empty());
    }

    #[test]
    fn comment_line_marker_never_covers_the_statement_after() {
        let src = "pub fn f(k: u8, v: &Vec<u32>) -> Vec<u32> {\n    // xtask: allow(alloc): the first copy is required\n    let a = v\n        .to_vec();\n    let b = a.clone();\n    match k {\n        // xtask: allow(alloc): this arm's copy is required\n        0 => b.clone(),\n        _ => b.clone(),\n    }\n}\n";
        let vs = check_hotpath("crates/terradir/src/routing.rs", src);
        let lines: Vec<usize> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, [5, 9], "{vs:?}");
        assert!(vs.iter().all(|v| v.what.contains(".clone")));
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
