//! The rule catalog.
//!
//! Every rule encodes a determinism or bit-exactness invariant the
//! repo's headline claims rest on (byte-identical
//! accelerated-vs-reference stats, thread-count-invariant report JSON,
//! content-addressed cache safety). Each is documented with the invariant it protects; the
//! README's "Static guarantees" section is generated from the same
//! table.

use crate::scan::SourceFile;

/// Crates that are part of the simulation engine proper: anything in
/// them can leak into reported statistics, so the strictest rules
/// apply. `bench` (measurement harness), `serve` (daemon I/O), the
/// vendored `rand`/`proptest` stand-ins, and `audit` itself are not
/// engine crates.
pub const ENGINE_CRATES: &[&str] = &["baselines", "cfg", "core", "model", "sim", "trace", "uarch"];

/// One catalog entry.
pub struct RuleInfo {
    /// Rule id — the name a waiver must use.
    pub id: &'static str,
    /// One-line statement of the invariant the rule protects.
    pub summary: &'static str,
}

/// The checkable rules, in report order. `unused-waiver` and
/// `malformed-waiver` are meta-findings produced by waiver matching
/// itself and cannot be waived.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-siphash",
        summary: "engine crates must not use default-hasher HashMap/HashSet \
                  (SipHash is per-process random: iteration order and probe cost \
                  vary run to run); use fe_uarch::fasthash::{FastMap, FastSet} or \
                  BTreeMap/BTreeSet where iteration order is observable",
    },
    RuleInfo {
        id: "no-wallclock",
        summary: "Instant::now/SystemTime::now only in crates/bench — wall-clock \
                  lives ONLY in BENCH_*.json; deterministic report JSON must never \
                  depend on host timing",
    },
    RuleInfo {
        id: "no-unchecked-panic",
        summary: "no bare .unwrap() or panic! in engine-crate non-test code; \
                  use .expect(\"<the invariant>\") or waive with the invariant named",
    },
    RuleInfo {
        id: "forbid-unsafe",
        summary: "every compilation-unit root carries #![forbid(unsafe_code)], and \
                  no unsafe blocks exist, outside explicitly waived sites with a \
                  SAFETY argument",
    },
    RuleInfo {
        id: "no-env-in-engine",
        summary: "std::env reads (env::var/var_os) only in bench/serve — engine \
                  behavior is a pure function of the typed experiment spec; escape \
                  hatches need a waiver naming the knob",
    },
    RuleInfo {
        id: "float-state",
        summary: "no f32/f64 fields in *Stats structs — accumulated simulator \
                  state is exact integer counters; floats belong in derived \
                  metrics computed at report time",
    },
];

/// `true` when `id` names a catalog rule (the only ids waivers may
/// name).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One rule violation at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    /// 1-based; file-anchored findings report line 1.
    pub line: usize,
    pub message: String,
    /// File-anchored findings (a missing crate attribute) are waived
    /// by a matching waiver anywhere in the file, not just adjacent.
    pub file_anchored: bool,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whole-word occurrence check: `word` not embedded in an identifier.
fn contains_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + word.len()..].chars().next();
        let after_ok = !after.map(is_ident).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

fn excerpt(raw: &str) -> String {
    let t = raw.trim();
    if t.chars().count() > 90 {
        let cut: String = t.chars().take(87).collect();
        format!("{cut}...")
    } else {
        t.to_string()
    }
}

/// Runs every rule over one lexed file.
pub fn check_file(f: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let engine = ENGINE_CRATES.contains(&f.ctx.crate_name.as_str());
    let mut push = |rule: &'static str, line: usize, message: String, file_anchored: bool| {
        findings.push(Finding {
            rule,
            file: f.ctx.rel_path.clone(),
            line,
            message,
            file_anchored,
        });
    };

    // float-state needs a little cross-line state: are we inside the
    // body of a `struct …Stats {`?
    let mut stats_struct_depth: i32 = 0;

    for line in &f.lines {
        let code = line.code.as_str();

        if engine && (contains_word(code, "HashMap") || contains_word(code, "HashSet")) {
            push(
                "no-siphash",
                line.number,
                format!("default-hasher map in engine crate: {}", excerpt(&line.raw)),
                false,
            );
        }

        if f.ctx.crate_name != "bench"
            && (code.contains("Instant::now") || code.contains("SystemTime::now"))
        {
            push(
                "no-wallclock",
                line.number,
                format!(
                    "wall-clock read outside crates/bench: {}",
                    excerpt(&line.raw)
                ),
                false,
            );
        }

        if engine && !line.is_test && (code.contains(".unwrap()") || contains_word(code, "panic!"))
        {
            push(
                "no-unchecked-panic",
                line.number,
                format!(
                    "unchecked panic path in engine code: {}",
                    excerpt(&line.raw)
                ),
                false,
            );
        }

        if contains_word(code, "unsafe") {
            push(
                "forbid-unsafe",
                line.number,
                format!("unsafe code: {}", excerpt(&line.raw)),
                false,
            );
        }

        // `env!` / `option_env!` are compile-time and deterministic
        // per build; only runtime reads are findings.
        if engine && code.contains("env::var") {
            push(
                "no-env-in-engine",
                line.number,
                format!("environment read in engine crate: {}", excerpt(&line.raw)),
                false,
            );
        }

        // float-state: track `struct <Name>Stats` bodies by brace
        // depth (rustfmt-shaped code; fields are one per line).
        if stats_struct_depth > 0 {
            if code.contains(": f32") || code.contains(": f64") {
                push(
                    "float-state",
                    line.number,
                    format!("float field in a *Stats struct: {}", excerpt(&line.raw)),
                    false,
                );
            }
            stats_struct_depth += braces(code);
            if stats_struct_depth <= 0 {
                stats_struct_depth = 0;
            }
        } else if engine && declares_stats_struct(code) {
            let depth = braces(code);
            if depth > 0 {
                stats_struct_depth = depth;
            } else if code.contains(": f32") || code.contains(": f64") {
                // Single-line struct declaration.
                push(
                    "float-state",
                    line.number,
                    format!("float field in a *Stats struct: {}", excerpt(&line.raw)),
                    false,
                );
            }
        }
    }

    // File-anchored: compilation-unit roots must forbid unsafe code.
    if f.ctx.is_crate_root {
        let has_forbid = f
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            push(
                "forbid-unsafe",
                1,
                "crate root missing #![forbid(unsafe_code)]".to_string(),
                true,
            );
        }
    }

    findings
}

/// Net brace balance of one code line.
fn braces(code: &str) -> i32 {
    code.chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum()
}

/// Does this line open a struct whose name ends in `Stats`?
fn declares_stats_struct(code: &str) -> bool {
    let Some(pos) = code.find("struct ") else {
        return false;
    };
    // `struct` must be a word (not e.g. `my_struct `).
    if pos > 0 && is_ident(code[..pos].chars().next_back().unwrap_or(' ')) {
        return false;
    }
    let rest = code[pos + "struct ".len()..].trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    name.ends_with("Stats")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::lex_rel_path;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        check_file(&lex_rel_path(path, src))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("type FastMapHashMapLike = ();", "HashMap"));
        assert!(!contains_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(contains_word("x = panic!(\"\")", "panic!"));
        assert!(!contains_word("should_panic", "panic!"));
    }

    #[test]
    fn engine_scoping() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_hit("crates/sim/src/x.rs", src), vec!["no-siphash"]);
        assert!(rules_hit("crates/serve/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_everywhere_but_bench() {
        let src = "let t = Instant::now();\n";
        assert_eq!(
            rules_hit("crates/serve/src/x.rs", src),
            vec!["no-wallclock"]
        );
        assert!(rules_hit("crates/bench/src/bin/perf.rs", src)
            .iter()
            .all(|r| *r != "no-wallclock"));
    }

    #[test]
    fn panic_rule_skips_tests_and_expect() {
        let live = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/sim/src/x.rs", live),
            vec!["no-unchecked-panic"]
        );
        assert!(rules_hit("crates/uarch/tests/t.rs", live).is_empty());
        let tested = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\n";
        assert!(rules_hit("crates/sim/src/x.rs", tested).is_empty());
        assert!(rules_hit("crates/sim/src/x.rs", "x.expect(\"inv\");\n").is_empty());
        assert!(rules_hit("crates/sim/src/x.rs", "x.unwrap_or(0);\n").is_empty());
    }

    #[test]
    fn float_state_tracks_stats_structs_only() {
        let bad = "pub struct FooStats {\n    pub a: u64,\n    pub b: f64,\n}\n";
        assert_eq!(rules_hit("crates/model/src/x.rs", bad), vec!["float-state"]);
        let derived = "pub struct Metrics {\n    pub b: f64,\n}\n";
        assert!(rules_hit("crates/model/src/x.rs", derived).is_empty());
        let method = "impl FooStats {\n    pub fn ipc(&self) -> f64 { 0.0 }\n}\n";
        assert!(rules_hit("crates/model/src/x.rs", method).is_empty());
    }

    #[test]
    fn crate_roots_need_forbid() {
        assert_eq!(
            rules_hit("crates/model/src/lib.rs", "pub fn x() {}\n"),
            vec!["forbid-unsafe"]
        );
        assert!(rules_hit(
            "crates/model/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn x() {}\n"
        )
        .is_empty());
        // Non-root files don't need the attribute.
        assert!(rules_hit("crates/model/src/other.rs", "pub fn x() {}\n").is_empty());
    }
}
