//! Counter-conservation pass: every statistic flows source → summary →
//! document, with no dead or undocumented counters.
//!
//! The accounting identity (`resolved + dropped == injected`, attempt
//! decomposition, the draw ledger) is only trustworthy if every counter
//! in [`RunStats`] is (a) actually *fed* by behavior code, (b) *emitted*
//! into an observable artifact — a same-named `Summary` field (and hence
//! every `BENCH_*.json` / `--json` output, since `Summary::to_json` is
//! the single JSON emitter) or a direct read in the bench/CLI harnesses —
//! and (c) *documented* in DESIGN.md's stats table. Drift in any
//! direction is an error:
//!
//! - fed but never emitted: a counter nobody can observe,
//! - emitted but never fed: a column of zeros masquerading as data,
//! - undocumented: a number nobody can interpret,
//! - a `Summary` field with no `RunStats` source and no derived-quantity
//!   pedigree, or a `to_json` key set that drifts from the `Summary`
//!   struct: emitter skew.
//!
//! "Fed" and "emitted" each tolerate one transitive level through
//! `stats.rs` itself: a field mutated only inside a recorder method
//! (e.g. `on_lost`) counts as fed when that recorder is called from
//! behavior code, and a field read only inside an accessor
//! (e.g. `dropped_total`, `availability`) counts as emitted when that
//! accessor is called from the bench/CLI harnesses.

use crate::checks::{struct_fields, Violation};
use crate::lexer::{cfg_test_ranges, scrub};

/// `Summary` fields that are *derived* from several `RunStats` fields
/// rather than mirroring one by name (the fold is part of the design:
/// `dropped` sums the final-drop kinds, the latency/hops scalars collapse
/// histograms).
pub const DERIVED_SUMMARY_FIELDS: &[&str] = &[
    "dropped",
    "drop_fraction",
    "latency_mean_s",
    "latency_p99_s",
    "hops_mean",
    "tenant_count",
    "tenant_worst_availability",
    "tenant_slo_misses",
];

/// Scrubs a source file and blanks its `#[cfg(test)]` module bodies, so
/// token searches see only behavior code.
pub fn behavior_text(src: &str) -> String {
    let mut scrubbed = scrub(src);
    let ranges = cfg_test_ranges(&scrubbed);
    let mut bytes = scrubbed.as_bytes().to_vec();
    for (lo, hi) in ranges {
        for b in bytes.iter_mut().take(hi).skip(lo) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    scrubbed = String::from_utf8_lossy(&bytes).into_owned();
    scrubbed
}

fn ident_boundary_after(text: &str, end: usize) -> bool {
    !text
        .as_bytes()
        .get(end)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

/// Whether `.field` appears as a complete token (field access) in `text`.
pub fn has_field_access(text: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut search = 0;
    while let Some(rel) = text.get(search..).and_then(|s| s.find(&pat)) {
        let pos = search + rel;
        search = pos + 1;
        if ident_boundary_after(text, pos + pat.len()) {
            return true;
        }
    }
    false
}

/// Whether `.name(` appears in `text` (a method call on something).
pub fn has_method_call(text: &str, name: &str) -> bool {
    text.contains(&format!(".{name}("))
}

/// `(name, body)` for every `fn` with a block body in scrubbed source.
pub fn fn_bodies(scrubbed: &str) -> Vec<(String, String)> {
    let bytes = scrubbed.as_bytes();
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find("fn ")) {
        let pos = search + rel;
        search = pos + 3;
        let bounded = pos == 0
            || !bytes
                .get(pos - 1)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if !bounded {
            continue;
        }
        let name: String = scrubbed
            .get(pos + 3..)
            .map(|s| {
                s.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect()
            })
            .unwrap_or_default();
        if name.is_empty() {
            continue;
        }
        // Find the body opener, stopping at `;` (a bodiless signature).
        let mut i = pos + 3 + name.len();
        let mut paren = 0usize;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => paren += 1,
                b')' => paren = paren.saturating_sub(1),
                b'{' if paren == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut close = bytes.len();
        let mut j = open;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(body) = scrubbed.get(open..=close.min(bytes.len() - 1)) {
            out.push((name, body.to_string()));
        }
        search = open;
    }
    out
}

/// Keys emitted by `Summary::to_json`, read from the *raw* source (the
/// keys live inside string literals, which scrubbing blanks).
pub fn to_json_keys(stats_raw: &str) -> Vec<String> {
    let scrubbed = scrub(stats_raw);
    // Locate the span of `fn to_json` via the scrubbed text.
    let Some(pos) = scrubbed.find("fn to_json") else {
        return Vec::new();
    };
    let bytes = scrubbed.as_bytes();
    let mut i = pos;
    while i < bytes.len() && bytes[i] != b'{' {
        i += 1;
    }
    let open = i;
    let mut depth = 0usize;
    let mut close = bytes.len();
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Scan the raw text of that span for `\"ident\":` escapes.
    let raw = stats_raw.get(open..close).unwrap_or("");
    let mut keys = Vec::new();
    let mut search = 0;
    while let Some(rel) = raw.get(search..).and_then(|s| s.find("\\\"")) {
        let at = search + rel + 2;
        search = at;
        let ident: String = raw
            .get(at..)
            .map(|s| {
                s.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect()
            })
            .unwrap_or_default();
        if ident.is_empty() {
            continue;
        }
        if raw
            .get(at + ident.len()..)
            .is_some_and(|s| s.starts_with("\\\":"))
        {
            keys.push(ident);
        }
    }
    keys
}

/// Runs the conservation pass.
///
/// - `stats_src`: raw `crates/terradir/src/stats.rs`;
/// - `design_md`: raw DESIGN.md;
/// - `writers`: `(label, source)` for every non-test behavior file that
///   may feed counters (protocol, simulator, live substrate — everything
///   except `stats.rs` itself);
/// - `emitters`: `(label, source)` for the bench and CLI harnesses.
pub fn check_conservation(
    stats_src: &str,
    design_md: &str,
    writers: &[(String, String)],
    emitters: &[(String, String)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let stats_label = "crates/terradir/src/stats.rs";
    let fields = struct_fields(stats_src, "RunStats");
    let summary_fields = struct_fields(stats_src, "Summary");
    if fields.is_empty() || summary_fields.is_empty() {
        out.push(Violation {
            file: stats_label.into(),
            line: 1,
            what: "auditor found no RunStats/Summary fields (parser drift?)".into(),
        });
        return out;
    }

    let writer_texts: Vec<String> = writers.iter().map(|(_, s)| behavior_text(s)).collect();
    let emitter_texts: Vec<String> = emitters.iter().map(|(_, s)| behavior_text(s)).collect();
    let stats_fns = fn_bodies(&behavior_text(stats_src));

    // Stats fns invoked from behavior code / from the harnesses.
    let fed_fns: Vec<&(String, String)> = stats_fns
        .iter()
        .filter(|(name, _)| writer_texts.iter().any(|t| has_method_call(t, name)))
        .collect();
    let emitting_fns: Vec<&(String, String)> = stats_fns
        .iter()
        .filter(|(name, _)| emitter_texts.iter().any(|t| has_method_call(t, name)))
        .collect();

    let summary_names: Vec<&str> = summary_fields.iter().map(|f| f.name.as_str()).collect();

    for f in &fields {
        let fed_direct = writer_texts.iter().any(|t| has_field_access(t, &f.name));
        let fed_via_recorder = fed_fns
            .iter()
            .any(|(_, body)| has_field_access(body, &f.name));
        if !fed_direct && !fed_via_recorder {
            out.push(Violation {
                file: stats_label.into(),
                line: f.line,
                what: format!(
                    "RunStats field `{}` is never fed: no behavior code writes it, \
                     directly or via a stats.rs recorder",
                    f.name
                ),
            });
        }

        let in_summary = summary_names.contains(&f.name.as_str());
        let read_by_harness = emitter_texts.iter().any(|t| has_field_access(t, &f.name));
        let read_via_accessor = emitting_fns
            .iter()
            .any(|(_, body)| has_field_access(body, &f.name));
        if !in_summary && !read_by_harness && !read_via_accessor {
            out.push(Violation {
                file: stats_label.into(),
                line: f.line,
                what: format!(
                    "RunStats field `{}` is never emitted: absent from Summary and \
                     never read by the bench/CLI harnesses",
                    f.name
                ),
            });
        }

        if !design_md.contains(&format!("`{}`", f.name)) {
            out.push(Violation {
                file: "DESIGN.md".into(),
                line: 1,
                what: format!(
                    "RunStats field `{}` is not documented in the DESIGN.md stats table",
                    f.name
                ),
            });
        }
    }

    // Reverse direction: every Summary field has a pedigree.
    let runstats_names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
    for s in &summary_fields {
        if !runstats_names.contains(&s.name.as_str())
            && !DERIVED_SUMMARY_FIELDS.contains(&s.name.as_str())
        {
            out.push(Violation {
                file: stats_label.into(),
                line: s.line,
                what: format!(
                    "Summary field `{}` mirrors no RunStats field and is not a \
                     known derived quantity",
                    s.name
                ),
            });
        }
    }

    // Summary struct ↔ to_json key bijection.
    let keys = to_json_keys(stats_src);
    if keys.is_empty() {
        out.push(Violation {
            file: stats_label.into(),
            line: 1,
            what: "auditor found no keys in Summary::to_json (parser drift?)".into(),
        });
    } else {
        for s in &summary_fields {
            if !keys.iter().any(|k| k == &s.name) {
                out.push(Violation {
                    file: stats_label.into(),
                    line: s.line,
                    what: format!("Summary field `{}` is missing from to_json", s.name),
                });
            }
        }
        for k in &keys {
            if !summary_names.contains(&k.as_str()) {
                out.push(Violation {
                    file: stats_label.into(),
                    line: 1,
                    what: format!("to_json emits key `{k}` that is not a Summary field"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS_OK: &str = r#"
pub struct RunStats {
    /// A.
    pub injected: u64,
    /// B.
    pub dropped_queue: u64,
}
impl RunStats {
    pub fn dropped_total(&self) -> u64 { self.dropped_queue }
    pub fn on_drop(&mut self) { self.dropped_queue += 1; }
}
pub struct Summary {
    /// A.
    pub injected: u64,
    /// Derived.
    pub dropped: u64,
}
impl Summary {
    pub fn to_json(&self) -> String {
        format!("{{\"injected\":{},\"dropped\":{}}}", self.injected, self.dropped)
    }
}
"#;

    fn src(label: &str, s: &str) -> Vec<(String, String)> {
        vec![(label.to_string(), s.to_string())]
    }

    #[test]
    fn conserved_counters_pass() {
        let writers = src(
            "sys.rs",
            "fn f(st: &mut RunStats) { st.injected += 1; st.on_drop(); }",
        );
        let emitters = src(
            "bench.rs",
            "fn g(st: &RunStats) { let _ = st.dropped_total(); }",
        );
        let design = "table: `injected` and `dropped_queue`.";
        let vs = check_conservation(STATS_OK, design, &writers, &emitters);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unfed_and_unemitted_counters_are_caught() {
        let writers = src("sys.rs", "fn f(st: &mut RunStats) { st.injected += 1; }");
        let emitters = src("bench.rs", "fn g() {}");
        let design = "`injected` `dropped_queue`";
        let vs = check_conservation(STATS_OK, design, &writers, &emitters);
        let whats: Vec<&str> = vs.iter().map(|v| v.what.as_str()).collect();
        assert!(
            whats
                .iter()
                .any(|w| w.contains("`dropped_queue` is never fed")),
            "{whats:?}"
        );
        assert!(
            whats
                .iter()
                .any(|w| w.contains("`dropped_queue` is never emitted")),
            "{whats:?}"
        );
        // The violation points at the field's declaration line.
        let v = vs.iter().find(|v| v.what.contains("never fed")).unwrap();
        assert_eq!(v.line, 6);
    }

    #[test]
    fn undocumented_counter_is_caught() {
        let writers = src(
            "sys.rs",
            "fn f(st: &mut RunStats) { st.injected += 1; st.on_drop(); }",
        );
        let emitters = src(
            "bench.rs",
            "fn g(st: &RunStats) { let _ = st.dropped_total(); }",
        );
        let vs = check_conservation(STATS_OK, "only `injected` here", &writers, &emitters);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("`dropped_queue` is not documented"));
    }

    #[test]
    fn summary_field_without_pedigree_is_caught() {
        let stats = r#"
pub struct RunStats {
    /// A.
    pub injected: u64,
}
pub struct Summary {
    /// Mystery.
    pub mystery: u64,
    /// A.
    pub injected: u64,
}
impl Summary {
    pub fn to_json(&self) -> String {
        format!("{{\"mystery\":{},\"injected\":{}}}", self.mystery, self.injected)
    }
}
"#;
        let writers = src("sys.rs", "fn f(st: &mut RunStats) { st.injected += 1; }");
        let emitters = src("bench.rs", "fn g() {}");
        let vs = check_conservation(stats, "`injected`", &writers, &emitters);
        assert!(
            vs.iter()
                .any(|v| v.what.contains("Summary field `mystery`")),
            "{vs:?}"
        );
    }

    #[test]
    fn to_json_key_drift_is_caught_both_ways() {
        let stats = r#"
pub struct RunStats {
    /// A.
    pub injected: u64,
}
pub struct Summary {
    /// A.
    pub injected: u64,
}
impl Summary {
    pub fn to_json(&self) -> String {
        format!("{{\"injectd\":{}}}", self.injected)
    }
}
"#;
        let writers = src("sys.rs", "fn f(st: &mut RunStats) { st.injected += 1; }");
        let emitters = src("bench.rs", "fn g() {}");
        let vs = check_conservation(stats, "`injected`", &writers, &emitters);
        assert!(
            vs.iter()
                .any(|v| v.what.contains("`injected` is missing from to_json")),
            "{vs:?}"
        );
        assert!(
            vs.iter().any(|v| v.what.contains("key `injectd`")),
            "{vs:?}"
        );
    }

    #[test]
    fn to_json_keys_reads_escaped_literals() {
        let keys = to_json_keys(STATS_OK);
        assert_eq!(keys, vec!["injected", "dropped"]);
    }

    #[test]
    fn fn_bodies_finds_recorders() {
        let fns = fn_bodies(&behavior_text(STATS_OK));
        let names: Vec<&str> = fns.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"on_drop"));
        assert!(names.contains(&"dropped_total"));
        let on_drop = fns.iter().find(|(n, _)| n == "on_drop").unwrap();
        assert!(has_field_access(&on_drop.1, "dropped_queue"));
    }
}
