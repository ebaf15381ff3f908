//! The auditor's checks.
//!
//! Each check is a pure function from source text to a list of violations,
//! so the unit tests can feed in fixtures — including deliberately seeded
//! violations — without touching the real tree. `analyze::run` wires the
//! checks to the actual workspace files.

use crate::lexer::{line_of, out_of_line_test_modules, scrub};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation was found in (workspace-relative label).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the broken rule.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.what)
    }
}

/// Module names a crate declares as out-of-line `#[cfg(test)]` modules;
/// the walker skips the corresponding `<name>.rs` files.
pub fn test_module_files(src: &str) -> Vec<String> {
    out_of_line_test_modules(&scrub(src))
}

/// A field parsed out of `pub struct Config`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigField {
    /// Field identifier.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Whether a `///` doc comment immediately precedes it.
    pub has_doc: bool,
}

/// Extracts the public fields of `pub struct <name> { … }` with their
/// doc-comment status. The match requires an identifier boundary after
/// `name`, so asking for `Config` does not land on `ConfigField`.
pub fn struct_fields(config_src: &str, name: &str) -> Vec<ConfigField> {
    let scrubbed = scrub(config_src);
    let pat = format!("pub struct {name}");
    let mut start = None;
    let mut search = 0;
    while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find(&pat)) {
        let pos = search + rel;
        search = pos + 1;
        let boundary = !scrubbed
            .as_bytes()
            .get(pos + pat.len())
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if boundary {
            start = Some(pos);
            break;
        }
    }
    let Some(start) = start else {
        return Vec::new();
    };
    let bytes = scrubbed.as_bytes();
    let Some(body_open_rel) = scrubbed.get(start..).and_then(|s| s.find('{')) else {
        return Vec::new();
    };
    let body_open = start + body_open_rel;
    let mut depth = 0usize;
    let mut body_close = bytes.len();
    let mut i = body_open;
    while i < bytes.len() {
        match bytes.get(i) {
            Some(b'{') => depth += 1,
            Some(b'}') => {
                depth -= 1;
                if depth == 0 {
                    body_close = i;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Walk the *raw* lines of the body so doc comments are visible.
    let first_line = line_of(config_src, body_open);
    let last_line = line_of(config_src, body_close);
    let mut fields = Vec::new();
    let mut prev_was_doc = false;
    for (idx, raw) in config_src.lines().enumerate() {
        let lineno = idx + 1;
        if lineno <= first_line || lineno >= last_line {
            continue;
        }
        let t = raw.trim();
        if t.starts_with("///") {
            prev_was_doc = true;
            continue;
        }
        if t.starts_with("#[") || t.is_empty() {
            continue; // attributes/blank lines don't break a doc run
        }
        if let Some(rest) = t.strip_prefix("pub ") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let after = rest.get(name.len()..).map_or("", str::trim_start);
            if !name.is_empty() && after.starts_with(':') {
                fields.push(ConfigField {
                    name,
                    line: lineno,
                    has_doc: prev_was_doc,
                });
            }
        }
        prev_was_doc = false;
    }
    fields
}

/// Every field of a named config struct (`Config` itself plus the
/// failure-model sub-structs) must carry a doc comment and be mentioned
/// by name in DESIGN.md (the configuration reference is part of the
/// design contract: a knob nobody documented is a knob nobody decoded
/// from the paper).
pub fn check_struct_docs(config_src: &str, design_md: &str, name: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let fields = struct_fields(config_src, name);
    if fields.is_empty() {
        out.push(Violation {
            file: "crates/terradir/src/config.rs".into(),
            line: 1,
            what: format!("auditor found no `pub struct {name}` fields (parser drift?)"),
        });
        return out;
    }
    for f in &fields {
        if !f.has_doc {
            out.push(Violation {
                file: "crates/terradir/src/config.rs".into(),
                line: f.line,
                what: format!("{name} field `{}` has no doc comment", f.name),
            });
        }
        if !design_md.contains(&f.name) {
            out.push(Violation {
                file: "DESIGN.md".into(),
                line: 1,
                what: format!("{name} field `{}` is not documented in DESIGN.md", f.name),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- config docs ---------------------------------------------------

    const CONFIG_OK: &str = r"
/// Knobs.
pub struct Config {
    /// Documented.
    pub alpha: u32,
    /// Also documented.
    pub beta: f64,
}
";

    #[test]
    fn documented_fields_in_design_pass() {
        let design = "DESIGN: alpha is the count, beta the rate.";
        assert!(check_struct_docs(CONFIG_OK, design, "Config").is_empty());
    }

    #[test]
    fn missing_doc_comment_is_caught() {
        let src = "pub struct Config {\n    pub naked: u32,\n}\n";
        let vs = check_struct_docs(src, "naked", "Config");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("no doc comment"));
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn field_absent_from_design_is_caught() {
        let design = "only alpha is described here";
        let vs = check_struct_docs(CONFIG_OK, design, "Config");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("beta"));
        assert!(vs[0].what.contains("DESIGN.md"));
    }

    #[test]
    fn parser_drift_is_loud_not_silent() {
        // If Config is renamed the check must fail, not vacuously pass.
        let vs = check_struct_docs("pub struct Settings { pub a: u32 }", "a", "Config");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }

    #[test]
    fn struct_fields_respects_identifier_boundaries() {
        // Asking for `Config` must skip `ConfigField` and land on the
        // real struct even when the decoy comes first.
        let src = "pub struct ConfigField {\n    pub decoy: u32,\n}\npub struct Config {\n    /// Doc.\n    pub real: u32,\n}\n";
        let fields = struct_fields(src, "Config");
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].name, "real");
        let sub = struct_fields(src, "ConfigField");
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].name, "decoy");
    }

    #[test]
    fn sub_struct_docs_are_audited_by_name() {
        let src = "pub struct FaultConfig {\n    /// Documented.\n    pub loss_prob: f64,\n    pub jitter: f64,\n}\n";
        let vs = check_struct_docs(src, "loss_prob jitter", "FaultConfig");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("FaultConfig field `jitter`"));
        // A missing struct is loud, not vacuous.
        let vs = check_struct_docs(src, "", "RetryConfig");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }

    #[test]
    fn attributes_do_not_break_a_doc_run() {
        let src =
            "pub struct Config {\n    /// Doc.\n    #[allow(dead_code)]\n    pub a: u32,\n}\n";
        assert!(check_struct_docs(src, "a", "Config").is_empty());
    }
}
