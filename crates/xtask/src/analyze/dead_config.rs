//! Dead-config pass: every configuration knob must be read by behavior
//! code.
//!
//! A `Config` field that nothing outside `config.rs` reads is a knob that
//! silently does nothing — the worst kind of reproduction bug, because a
//! study can sweep it and conclude the mechanism it names has no effect.
//! For every field of every audited config struct, this pass requires a
//! field access (`.field`) somewhere outside `config.rs`, outside
//! `#[cfg(test)]` code.
//!
//! Like the conservation pass, "read" tolerates one transitive level
//! through `config.rs` itself: a field consumed only inside an accessor
//! (e.g. `misroute` behind `misroute_active()`) counts
//! when behavior code calls that accessor.
//!
//! The match is token-level (a same-named field of an unrelated struct
//! also counts), so the pass can under-report but never falsely convicts
//! a live knob; combined with the docs check in `checks.rs` it keeps the
//! config surface honest.

use crate::analyze::conservation::{behavior_text, fn_bodies, has_field_access, has_method_call};
use crate::checks::{struct_fields, Violation};

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
    let mut out = Vec::new();
    if fields.is_empty() {
        out.push(Violation {
            file: "crates/terradir/src/config.rs".into(),
            line: 1,
            what: format!("auditor found no `pub struct {struct_name}` fields (parser drift?)"),
        });
        return out;
    }
    let reader_texts: Vec<String> = readers.iter().map(|(_, s)| behavior_text(s)).collect();
    // Config accessors that behavior code actually calls; a field read
    // only inside one of these still counts as live.
    let called_accessors: Vec<(String, String)> = fn_bodies(&behavior_text(config_src))
        .into_iter()
        .filter(|(name, _)| reader_texts.iter().any(|t| has_method_call(t, name)))
        .collect();
    for f in &fields {
        let read_direct = reader_texts.iter().any(|t| has_field_access(t, &f.name));
        let read_via_accessor = called_accessors
            .iter()
            .any(|(_, body)| has_field_access(body, &f.name));
        if !read_direct && !read_via_accessor {
            out.push(Violation {
                file: "crates/terradir/src/config.rs".into(),
                line: f.line,
                what: format!(
                    "{struct_name} field `{}` is dead: no non-test code outside \
                     config.rs reads it",
                    f.name
                ),
            });
        }
    }
    out
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
}
