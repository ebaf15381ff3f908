//! Dead-data passes: every configuration knob must be read by behavior
//! code, and every `RunStats`-only statistic must be read by someone.
//!
//! A `Config` field that nothing outside `config.rs` reads is a knob that
//! silently does nothing — the worst kind of reproduction bug, because a
//! study can sweep it and conclude the mechanism it names has no effect.
//! For every field of every audited config struct, the dead-config pass
//! requires a field access (`.field`) somewhere outside `config.rs`,
//! outside `#[cfg(test)]` code.
//!
//! Its sibling, the emitted pass, does the same for the `runstats` rows
//! of the `stats_table!` in `crates/terradir/src/stats.rs`: the rows that
//! `Summary` does not copy. Each must be read by the bench/CLI harnesses
//! or by a `derived` row's expression, or it is a counter nobody can
//! observe. (Mirrored and derived rows reach the JSON by construction;
//! that behaviour code feeds every row is a runtime test in
//! `tests/golden_route.rs`.)
//!
//! Both tolerate one transitive level through the audited file itself: a
//! field consumed only inside an accessor (e.g. `misroute` behind
//! `misroute_active()`, `dropped_queue` behind `dropped_total()`) counts
//! when a reader calls that accessor.
//!
//! The match is token-level (a same-named field of an unrelated struct
//! also counts), so the passes can under-report but never falsely convict
//! a live field; combined with the docs check in `checks.rs` they keep the
//! config and stats surfaces honest.

use crate::checks::{struct_fields, Violation};
use crate::lexer::{cfg_test_ranges, scrub};

/// The config structs audited for dead fields (the same set whose docs
/// `cargo xtask lint` enforces).
pub const CONFIG_STRUCTS: &[&str] = &[
    "Config",
    "FaultConfig",
    "RetryConfig",
    "ChurnConfig",
    "PartitionConfig",
    "ScenarioConfig",
    "ScenarioEvent",
    "LeaseConfig",
    "ReconcileConfig",
    "StorageConfig",
    "GossipConfig",
    "RoleConfig",
    "TenantConfig",
    "TenantSpec",
];

/// Scrubs a source file and blanks its `#[cfg(test)]` module bodies, so
/// token searches see only behavior code.
pub fn behavior_text(src: &str) -> String {
    let scrubbed = scrub(src);
    let ranges = cfg_test_ranges(&scrubbed);
    let mut bytes = scrubbed.into_bytes();
    for (lo, hi) in ranges {
        for b in bytes.iter_mut().take(hi).skip(lo) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `.field` appears as a complete token (field access) in `text`.
pub fn has_field_access(text: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    text.match_indices(&pat).any(|(pos, _)| {
        !text
            .as_bytes()
            .get(pos + pat.len())
            .is_some_and(|b| is_ident_byte(*b))
    })
}

/// Whether `.name(` appears in `text` (a method call on something).
pub fn has_method_call(text: &str, name: &str) -> bool {
    text.contains(&format!(".{name}("))
}

/// Index of the `}` closing the brace group opened at `open`.
fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// `(name, body)` for every `fn` with a block body in scrubbed source.
pub fn fn_bodies(scrubbed: &str) -> Vec<(String, String)> {
    let bytes = scrubbed.as_bytes();
    let mut out = Vec::new();
    for (pos, _) in scrubbed.match_indices("fn ") {
        if pos > 0 && bytes.get(pos - 1).is_some_and(|b| is_ident_byte(*b)) {
            continue;
        }
        let name: String = scrubbed[pos + 3..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Find the body opener, stopping at `;` (a bodiless signature).
        let mut paren = 0usize;
        let mut open = None;
        for (i, b) in bytes.iter().enumerate().skip(pos + 3 + name.len()) {
            match b {
                b'(' => paren += 1,
                b')' => paren = paren.saturating_sub(1),
                b'{' if paren == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let close = matching_brace(bytes, open).unwrap_or(bytes.len() - 1);
        out.push((name, scrubbed[open..=close].to_string()));
    }
    out
}

/// The body of the `stats_table! { … }` invocation in scrubbed source,
/// with its offset (the definition's recursive calls use parentheses).
fn stats_table_body(scrubbed: &str) -> Option<(usize, &str)> {
    let open = scrubbed.find("stats_table! {")? + "stats_table! ".len();
    let close = matching_brace(scrubbed.as_bytes(), open)?;
    Some((open, &scrubbed[open..=close]))
}

/// `(name, line)` of every `runstats` row of the stats table.
pub fn runstats_rows(stats_src: &str) -> Vec<(String, usize)> {
    let scrubbed = scrub(stats_src);
    let Some((offset, body)) = stats_table_body(&scrubbed) else {
        return Vec::new();
    };
    body.match_indices("runstats ")
        .filter(|(pos, _)| *pos == 0 || !is_ident_byte(body.as_bytes()[pos - 1]))
        .filter_map(|(pos, kw)| {
            let name: String = body[pos + kw.len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let line = scrubbed[..offset + pos].matches('\n').count() + 1;
            (!name.is_empty()).then_some((name, line))
        })
        .collect()
}

/// Runs the dead-config pass over one struct.
///
/// `readers` holds `(label, source)` for every non-test source file that
/// may legitimately consume config — everything except `config.rs`.
pub fn check_dead_config(
    config_src: &str,
    struct_name: &str,
    readers: &[(String, String)],
) -> Vec<Violation> {
    let fields = struct_fields(config_src, struct_name);
    if fields.is_empty() {
        return vec![Violation {
            file: "crates/terradir/src/config.rs".into(),
            line: 1,
            what: format!("auditor found no `pub struct {struct_name}` fields (parser drift?)"),
        }];
    }
    let names: Vec<(String, usize)> = fields.into_iter().map(|f| (f.name, f.line)).collect();
    let reader_texts: Vec<String> = readers.iter().map(|(_, s)| behavior_text(s)).collect();
    unread(config_src, &names, &reader_texts)
        .into_iter()
        .map(|(name, line)| Violation {
            file: "crates/terradir/src/config.rs".into(),
            line,
            what: format!(
                "{struct_name} field `{name}` is dead: no non-test code outside \
                 config.rs reads it"
            ),
        })
        .collect()
}

/// Runs the emitted pass: every `runstats` row of the stats table in
/// `stats_src` is read by a harness in `emitters` (the bench and CLI
/// sources) or by the table's `derived` expressions.
pub fn check_emitted(stats_src: &str, emitters: &[(String, String)]) -> Vec<Violation> {
    let stats_label = "crates/terradir/src/stats.rs";
    let rows = runstats_rows(stats_src);
    if rows.is_empty() {
        return vec![Violation {
            file: stats_label.into(),
            line: 1,
            what: "auditor found no `runstats` rows in `stats_table!` (parser drift?)".into(),
        }];
    }
    let mut reader_texts: Vec<String> = emitters.iter().map(|(_, s)| behavior_text(s)).collect();
    if let Some((_, body)) = stats_table_body(&behavior_text(stats_src)) {
        reader_texts.push(body.to_string());
    }
    unread(stats_src, &rows, &reader_texts)
        .into_iter()
        .map(|(name, line)| Violation {
            file: stats_label.into(),
            line,
            what: format!(
                "RunStats field `{name}` is never emitted: Summary does not mirror \
                 it, no derived row reads it, and no bench/CLI harness reads it"
            ),
        })
        .collect()
}

/// The `(name, line)` fields of `owner_src` that no reader text accesses,
/// directly or inside an `owner_src` fn that a reader calls.
fn unread<'a>(
    owner_src: &str,
    fields: &'a [(String, usize)],
    reader_texts: &[String],
) -> Vec<(&'a str, usize)> {
    let called: Vec<String> = fn_bodies(&behavior_text(owner_src))
        .into_iter()
        .filter(|(name, _)| reader_texts.iter().any(|t| has_method_call(t, name)))
        .map(|(_, body)| body)
        .collect();
    let readers: Vec<&str> = reader_texts
        .iter()
        .map(String::as_str)
        .chain(called.iter().map(String::as_str))
        .collect();
    fields
        .iter()
        .filter(|(name, _)| !readers.iter().any(|t| has_field_access(t, name)))
        .map(|(name, line)| (name.as_str(), *line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIG: &str = "pub struct Config {\n    /// Live.\n    pub alpha: u32,\n    /// Dead.\n    pub orphan_knob: u32,\n}\n";

    fn readers(s: &str) -> Vec<(String, String)> {
        vec![("crates/terradir/src/system.rs".to_string(), s.to_string())]
    }

    #[test]
    fn live_knobs_pass_dead_knobs_fail() {
        let r = readers("fn f(cfg: &Config) { let _ = cfg.alpha; }");
        let vs = check_dead_config(CONFIG, "Config", &r);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("`orphan_knob` is dead"));
        assert_eq!(vs[0].line, 5);
    }

    #[test]
    fn reads_inside_test_modules_do_not_count() {
        let r = readers(
            "#[cfg(test)]\nmod tests { fn t(cfg: &Config) { let _ = cfg.orphan_knob; } }\nfn f(cfg: &Config) { let _ = cfg.alpha; }",
        );
        let vs = check_dead_config(CONFIG, "Config", &r);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("orphan_knob"));
    }

    #[test]
    fn prefix_field_names_are_not_confused() {
        // `cfg.alpha_scale` must not satisfy `alpha`.
        let r = readers("fn f(c: &Other) { let _ = c.alpha_scale; let _ = c.orphan_knob; }");
        let vs = check_dead_config(CONFIG, "Config", &r);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("`alpha` is dead"));
    }

    #[test]
    fn field_behind_a_called_accessor_is_live() {
        let config = "pub struct Config {\n    /// Gated.\n    pub gated: bool,\n}\nimpl Config {\n    pub fn gated_active(&self) -> bool { self.gated }\n}\n";
        let live = readers("fn f(cfg: &Config) { if cfg.gated_active() {} }");
        assert!(check_dead_config(config, "Config", &live).is_empty());
        // An accessor nobody calls does not launder the field.
        let dead = readers("fn f() {}");
        let vs = check_dead_config(config, "Config", &dead);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("`gated` is dead"));
    }

    #[test]
    fn missing_struct_is_loud_not_vacuous() {
        let vs = check_dead_config(CONFIG, "RetryConfig", &readers(""));
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }

    const STATS: &str = "stats_table! {
    fn new(depth: u16);
    /// Mirrored: reaches the JSON by construction.
    mirror injected: u64;
    /// Read by the derived row below, through `total`.
    runstats queue: u64;
    /// Read by a harness.
    runstats series: Vec<u64>;
    /// Read by nobody.
    runstats ghost: u64;
    /// Folded from `queue`.
    derived dropped: u64 = |s| s.total(), \"{}\";
}
impl RunStats {
    pub fn total(&self) -> u64 { self.queue }
    pub fn on_ghost(&mut self) { self.ghost += 1; }
}
";

    #[test]
    fn runstats_rows_are_read_from_the_table() {
        let rows = runstats_rows(STATS);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["queue", "series", "ghost"]);
        assert_eq!(rows[2].1, 10, "the row's line");
    }

    #[test]
    fn unread_runstats_rows_are_caught() {
        let harness = readers("fn g(st: &RunStats) { let _ = st.series.len(); }");
        let vs = check_emitted(STATS, &harness);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("`ghost` is never emitted"));
        assert_eq!(vs[0].line, 10);
        // Without the harness read, `series` is unemitted too.
        assert_eq!(check_emitted(STATS, &readers("fn g() {}")).len(), 2);
    }

    #[test]
    fn missing_table_is_loud_not_vacuous() {
        let vs = check_emitted("pub struct RunStats { pub x: u64 }", &readers(""));
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }
}
