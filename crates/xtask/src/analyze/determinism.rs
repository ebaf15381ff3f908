//! Determinism lint: deny ambient-entropy and hash-randomized constructs
//! in behavior crates.
//!
//! Replay identity (byte-equal stats across two runs of one seed) is the
//! repo's core guarantee. It survives only if every source of randomness
//! flows from the master seed through `derive_seed`/`tagged_rng`, and
//! every iteration order the protocol observes is deterministic. This
//! pass denies the constructs that silently break both:
//!
//! - `Instant::now`, `SystemTime`: wall-clock reads — simulated time is
//!   the only clock behavior code may consult;
//! - `thread_rng`, `from_entropy`: OS-entropy RNG constructors that
//!   bypass the seed-derivation tree;
//! - `HashMap::new`/`HashSet::new`/`with_capacity`/`RandomState`: std
//!   hash containers seeded per-process, whose iteration order differs
//!   across runs (use `DetHashMap`/`DetHashSet` from the `det` module).
//!
//! `#[cfg(test)]` modules are exempt (tests may diff two runs however
//! they like); the `det` module itself is exempt (it wraps the std types
//! with a fixed hasher); `crates/net` is exempt by omission from
//! [`BEHAVIOR_CRATES`] — the live deployment legitimately reads real
//! clocks.

use crate::checks::Violation;
use crate::lexer::{cfg_test_ranges, line_of, scrub};

/// Crates whose `src/` trees must be free of ambient nondeterminism.
/// `net` is deliberately absent: the live substrate owns real time.
pub const BEHAVIOR_CRATES: &[&str] =
    &["namespace", "bloom", "workload", "sim", "terradir", "bench"];

/// Constructs denied outside `#[cfg(test)]`.
pub const FORBIDDEN: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "HashMap::new",
    "HashSet::new",
    "HashMap::with_capacity",
    "HashSet::with_capacity",
    "RandomState",
];

/// Files exempt from the lint: the deterministic-hasher wrappers
/// themselves (they name the std types in order to replace them) and the
/// speed-baseline bench experiment (wall-clock throughput is the quantity it
/// exists to measure; the simulation it times stays seed-deterministic).
pub fn is_allowlisted(file_label: &str) -> bool {
    file_label.ends_with("det.rs")
        || file_label.contains("crates/net/")
        || file_label.ends_with("bin/terradir-bench/speed.rs")
}

/// Scans one behavior-crate source file for forbidden constructs outside
/// `#[cfg(test)]` modules.
///
/// Matches require an identifier boundary *before* the token, so
/// `DetHashMap::with_capacity…` (an alias over a fixed hasher) does not
/// trip the `HashMap::with_capacity` rule.
pub fn check_determinism(file_label: &str, src: &str) -> Vec<Violation> {
    if is_allowlisted(file_label) {
        return Vec::new();
    }
    let scrubbed = scrub(src);
    let exempt = cfg_test_ranges(&scrubbed);
    let mut out = Vec::new();
    for token in FORBIDDEN {
        let mut search = 0;
        while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find(token)) {
            let pos = search + rel;
            search = pos + 1;
            if exempt.iter().any(|&(lo, hi)| pos >= lo && pos < hi) {
                continue;
            }
            let bounded = pos == 0
                || !scrubbed
                    .as_bytes()
                    .get(pos - 1)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
            if !bounded {
                continue;
            }
            out.push(Violation {
                file: file_label.to_string(),
                line: line_of(src, pos),
                what: format!(
                    "nondeterministic construct `{token}` in behavior code \
                     (route randomness through `tagged_rng`, time through the \
                     simulated clock, hashing through `det::DetHashMap`)"
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
    fn seeded_wall_clock_and_entropy_are_caught() {
        let src = "pub fn bad() -> u64 {\n    let t = std::time::Instant::now();\n    let mut r = rand::thread_rng();\n    0\n}\n";
        let vs = check_determinism("crates/terradir/src/bad.rs", src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].what.contains("Instant::now"));
        assert_eq!(vs[1].line, 3);
        assert!(vs[1].what.contains("thread_rng"));
    }

    #[test]
    fn std_hash_containers_are_caught_but_det_wrappers_pass() {
        let src = "use std::collections::HashMap;\npub fn bad() { let _m: HashMap<u32, u32> = HashMap::new(); }\npub fn good() { let _m = crate::det::DetHashMap::<u32, u32>::default(); }\n";
        let vs = check_determinism("crates/terradir/src/x.rs", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn test_modules_and_allowlisted_files_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let _ = std::collections::HashSet::<u8>::new(); } }\n";
        assert!(check_determinism("crates/terradir/src/x.rs", src).is_empty());
        let bad = "pub fn f() { let _ = std::time::SystemTime::now(); }\n";
        assert!(!check_determinism("crates/sim/src/y.rs", bad).is_empty());
        assert!(check_determinism("crates/terradir/src/det.rs", bad).is_empty());
        assert!(check_determinism("crates/net/src/peer.rs", bad).is_empty());
        assert!(check_determinism("crates/bench/src/bin/terradir-bench/speed.rs", bad).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_lint() {
        let src = "// Instant::now is banned\npub fn f() -> &'static str { \"thread_rng\" }\n";
        assert!(check_determinism("crates/bloom/src/z.rs", src).is_empty());
    }
}
