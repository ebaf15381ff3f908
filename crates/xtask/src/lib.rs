// Developer tool: aborting on unexpected state is the correct failure
// mode, and the lexer walks byte offsets it maintains itself.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
#![forbid(unsafe_code)]

//! Repository auditor and static-analysis suite, run as `cargo xtask lint`
//! or `cargo xtask analyze` (the two are synonyms; both run everything).
//!
//! The build environment has no `syn`, so every pass works on scrubbed
//! source text ([`lexer`]) — comments and literals blanked, offsets and
//! line numbers preserved — plus small recursive-descent parsers for the
//! struct/enum shapes the passes need ([`checks`]).
//!
//! Two families of rules:
//!
//! - the original protocol-invariant checks ([`checks`]): config docs,
//!   panic-free library code, message handlers, drop taxonomy;
//! - the determinism & accounting passes ([`analyze`]): determinism lint,
//!   emitted statistics, dead config, enum exhaustiveness
//!   (DESIGN.md §15).

use std::path::{Path, PathBuf};

pub mod analyze;
pub mod checks;
pub mod lexer;

/// Library crates under the panic wall. Binaries (`cli`, `bench`, `xtask`
/// itself) opt out: aborting is their correct failure mode.
pub const LIB_CRATES: &[&str] = &["namespace", "bloom", "workload", "sim", "terradir", "net"];

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/xtask` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Reads one workspace-relative file, labeling errors with the path.
pub fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
pub fn collect_rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", d.display()))?;
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads every `.rs` file under `dir` as `(workspace-relative label,
/// contents)` pairs, accumulating unreadable paths into `io_errors`.
pub fn load_sources(root: &Path, dir: &Path, io_errors: &mut Vec<String>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    match collect_rs_files(dir) {
        Ok(files) => {
            for f in &files {
                let label = f.strip_prefix(root).unwrap_or(f).display().to_string();
                match std::fs::read_to_string(f) {
                    Ok(src) => out.push((label, src)),
                    Err(e) => io_errors.push(format!("{label}: {e}")),
                }
            }
        }
        Err(e) => io_errors.push(e),
    }
    out
}
