//! State-isolation lint: the static half of the concurrency-readiness
//! wall (DESIGN.md §20).
//!
//! The stage/executor split puts every mutable per-server datum in its
//! own `StatefulContext` and everything fleet-shared in a read-only
//! `StatelessContext`; cross-server effects travel only as returned
//! `Outgoing` values that the deterministic calendar dispatch applies.
//! The split is worthless if shared mutability or multi-server `&mut`
//! access creeps back in. Shared mutability (Rule A: `Rc`, `RefCell`,
//! `Cell`, `UnsafeCell`, `Mutex`, `RwLock`, `thread_local!`) is denied by
//! clippy through the root `clippy.toml`; `static mut` needs `unsafe`,
//! which the workspace denies. This pass enforces the rule no lint can
//! express:
//!
//! - **Rule B — cross-server mutation.** Direct indexed or `&mut`
//!   access into the per-server context table ([`CROSS_SERVER`] tokens)
//!   is legal only inside an explicitly declared *dispatch region* of
//!   `crates/terradir/src/system.rs`:
//!
//!   ```text
//!   // xtask: region(dispatch): begin — <why this executor needs it>
//!   ...
//!   // xtask: region(dispatch): end
//!   ```
//!
//!   Regions are only legal in the dispatch file; a `begin` without a
//!   reason, a `begin` without a matching `end`, an `end` without a
//!   `begin`, and a region declared anywhere else are all violations.
//!
//! `#[cfg(test)]` modules are exempt (tests reach into state
//! deliberately). Region fences live in comments, which scrubbing
//! blanks — so they are parsed from the *raw* source while tokens are
//! scanned in the scrubbed one.

use crate::checks::Violation;
use crate::lexer::{cfg_test_ranges, line_of, scrub};

/// Crates whose `src/` trees must uphold the state-isolation split.
/// `net` is absent because the live thread-per-peer substrate
/// legitimately shares state across threads (that is its job), and
/// `xtask` is tooling.
pub const BEHAVIOR_CRATES: &[&str] =
    &["namespace", "bloom", "workload", "sim", "terradir", "bench"];

/// Rule B: multi-server mutable access tokens. Read-only iteration
/// (`.ctxs.get(`, `.ctxs.iter()`) is deliberately not matched — the
/// split only restricts who may *mutate* another server's context.
pub const CROSS_SERVER: &[&str] = &[
    "self.servers[",
    ".ctxs[",
    ".ctxs.get_mut",
    ".ctxs.iter_mut",
    ".ctxs.split_at_mut",
    "&mut self.ctxs",
];

/// Opens a dispatch region. Everything after `begin` (an em-dash or
/// colon separator is tolerated) is the mandatory reason.
pub const REGION_BEGIN: &str = "xtask: region(dispatch): begin";

/// Closes the innermost open dispatch region.
pub const REGION_END: &str = "xtask: region(dispatch): end";

/// The only file allowed to declare dispatch regions: the calendar
/// dispatch itself.
pub const DISPATCH_FILE: &str = "crates/terradir/src/system.rs";

fn is_ident_byte(b: Option<&u8>) -> bool {
    b.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

/// Does the token at `pos` stand on identifier boundaries? Keeps
/// `myself.servers[` from matching `self.servers[` and `.ctxs.get_mut`
/// from matching a hypothetical `.ctxs.get_mutation`. Tokens starting
/// with `.` or `&`, or ending in `[`, delimit themselves on that side.
fn bounded(scrubbed: &str, pos: usize, token: &str) -> bool {
    let bytes = scrubbed.as_bytes();
    let before = token.starts_with(['.', '&']) || pos == 0 || !is_ident_byte(bytes.get(pos - 1));
    let after = token.ends_with('[') || !is_ident_byte(bytes.get(pos + token.len()));
    before && after
}

/// Parses dispatch-region fences out of the raw source. Returns the
/// closed `(begin_line, end_line)` ranges; every malformed fence —
/// reasonless `begin`, unmatched `begin` or `end`, nested `begin`, or
/// any fence outside [`DISPATCH_FILE`] — lands in `out`.
fn dispatch_regions(file_label: &str, src: &str, out: &mut Vec<Violation>) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut open: Option<usize> = None;
    let mut flag = |line: usize, what: String| {
        out.push(Violation {
            file: file_label.to_string(),
            line,
            what,
        });
    };
    for (i, raw_line) in src.lines().enumerate() {
        let line_no = i + 1;
        let begin = raw_line.split(REGION_BEGIN).nth(1);
        if begin.is_none() && !raw_line.contains(REGION_END) {
            continue;
        }
        if file_label != DISPATCH_FILE {
            flag(
                line_no,
                format!(
                    "dispatch region declared outside `{DISPATCH_FILE}` \
                     (only the calendar dispatch may open one)"
                ),
            );
        }
        if let Some(rest) = begin {
            let reason = rest.trim_start_matches([' ', ':', '\u{2014}', '-']).trim();
            if reason.is_empty() {
                flag(
                    line_no,
                    format!(
                        "`{REGION_BEGIN}` without a reason \
                         (write `// {REGION_BEGIN} — <why this executor needs it>`)"
                    ),
                );
            }
            if open.is_some() {
                flag(
                    line_no,
                    "nested dispatch region (close the previous one first)".to_string(),
                );
            } else {
                open = Some(line_no);
            }
        } else if let Some(begin) = open.take() {
            regions.push((begin, line_no));
        } else {
            flag(line_no, format!("`{REGION_END}` with no open region"));
        }
    }
    if let Some(begin) = open {
        flag(
            begin,
            format!("`{REGION_BEGIN}` is never closed (add `// {REGION_END}`)"),
        );
    }
    regions
}

/// Scans one behavior-crate source file for cross-server mutable access
/// outside `#[cfg(test)]` and outside the dispatch file's regions.
pub fn check_isolation(file_label: &str, src: &str) -> Vec<Violation> {
    let scrubbed = scrub(src);
    let exempt = cfg_test_ranges(&scrubbed);
    let mut out = Vec::new();
    let mut regions = dispatch_regions(file_label, src, &mut out);
    if file_label != DISPATCH_FILE {
        // A region declared elsewhere is flagged above; it must not
        // *also* grant the access it was illegally wrapped around.
        regions.clear();
    }
    for token in CROSS_SERVER {
        for (pos, _) in scrubbed.match_indices(token) {
            if exempt.iter().any(|&(lo, hi)| pos >= lo && pos < hi)
                || !bounded(&scrubbed, pos, token)
            {
                continue;
            }
            let line = line_of(src, pos);
            if regions.iter().any(|&(lo, hi)| line > lo && line < hi) {
                continue;
            }
            out.push(Violation {
                file: file_label.to_string(),
                line,
                what: format!(
                    "cross-server mutable access `{token}` outside a dispatch \
                     region (express the effect as a returned `Outgoing`, or move \
                     the code inside a `// {REGION_BEGIN} — <why>` fence in \
                     `{DISPATCH_FILE}`)"
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
    fn cross_server_access_needs_a_region_in_the_dispatch_file() {
        let src = "impl System {\n    fn f(&mut self) {\n        let c = self.ctxs.get_mut(0);\n        let _ = c;\n    }\n}\n";
        let vs = check_isolation(DISPATCH_FILE, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].what.contains("outside a dispatch region"));

        let fenced = "impl System {\n    fn f(&mut self) {\n        // xtask: region(dispatch): begin — test executor\n        let c = self.ctxs.get_mut(0);\n        let _ = c;\n        // xtask: region(dispatch): end\n    }\n}\n";
        assert!(check_isolation(DISPATCH_FILE, fenced).is_empty());
    }

    #[test]
    fn token_ends_need_an_identifier_boundary() {
        let src = "fn f(s: &mut S) { s.ctxs.get_mutation(); s.ctxs.iter(); myself.servers[0]; }\n";
        assert!(check_isolation(DISPATCH_FILE, src).is_empty());
        let src = "fn f(s: &mut S) { s.ctxs[0].epoch += 1; }\n";
        assert_eq!(check_isolation(DISPATCH_FILE, src).len(), 1);
    }

    #[test]
    fn regions_outside_the_dispatch_file_are_violations() {
        let src = "// xtask: region(dispatch): begin — nice try\nfn f() {}\n// xtask: region(dispatch): end\n";
        let vs = check_isolation("crates/terradir/src/server.rs", src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs
            .iter()
            .all(|v| v.what.contains("outside `crates/terradir/src/system.rs`")));
    }

    #[test]
    fn malformed_regions_report_begin_reason_nesting_and_pairing() {
        let no_reason =
            "// xtask: region(dispatch): begin\nfn f() {}\n// xtask: region(dispatch): end\n";
        let vs = check_isolation(DISPATCH_FILE, no_reason);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("without a reason"));

        let unclosed = "// xtask: region(dispatch): begin — opened and forgotten\nfn f() {}\n";
        let vs = check_isolation(DISPATCH_FILE, unclosed);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].what.contains("never closed"));

        let stray_end = "fn f() {}\n// xtask: region(dispatch): end\n";
        let vs = check_isolation(DISPATCH_FILE, stray_end);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("no open region"));

        let nested = "// xtask: region(dispatch): begin — outer\n// xtask: region(dispatch): begin — inner\nfn f() {}\n// xtask: region(dispatch): end\n";
        let vs = check_isolation(DISPATCH_FILE, nested);
        assert!(
            vs.iter().any(|v| v.what.contains("nested dispatch region")),
            "{vs:?}"
        );
    }

    #[test]
    fn cfg_test_modules_strings_and_comments_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = sys.ctxs[0].epoch; }\n}\n";
        assert!(check_isolation(DISPATCH_FILE, src).is_empty());
        let noise = "// .ctxs[0] is banned\npub fn f() -> &'static str { \"self.servers[0]\" }\n";
        assert!(check_isolation("crates/bloom/src/z.rs", noise).is_empty());
    }
}
