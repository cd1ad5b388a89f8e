//! Pass 2 of the two-pass engine: rules over the workspace model.
//!
//! Per-file rules ([`crate::rules`]) see one file's tokens; the rules here
//! see the whole [`WorkspaceModel`] and catch drift *between* files — the
//! failure modes that matter most once the energy ledger and the codec
//! paths are consumed from several crates:
//!
//! * **enum-billing** — every variant of a billed enum (`EnergyUse`,
//!   `AbortReason`) constructed outside its defining file and surfaced in
//!   a match arm somewhere (stats/report paths are matches);
//! * **truncating-cast** — no bare `as` casts to ≤32-bit integers inside
//!   codec/wire/frames/journal/record/trace files of the wire crates.
//!
//! Findings anchor at one definite site (the variant declaration, the
//! cast), so `// fei-lint: allow(rule, reason = "…")` on that site
//! suppresses exactly that finding and nothing else.

use std::collections::BTreeMap;

use crate::config::LintConfig;
use crate::lexer::LexedFile;
use crate::model::{RefContext, WorkspaceModel};
use crate::report::Violation;
use crate::rules::RuleId;

/// Runs every enabled cross-file rule over the model.
pub fn check(
    config: &LintConfig,
    model: &WorkspaceModel,
    lexed: &BTreeMap<String, LexedFile>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if config.rules.contains(&RuleId::EnumBilling) {
        enum_billing(config, model, lexed, &mut out);
    }
    if config.rules.contains(&RuleId::TruncatingCast) {
        truncating_cast(config, model, lexed, &mut out);
    }
    out
}

/// Emits a cross-file violation anchored at `offset` in `path`, honouring
/// test regions and allow directives at the anchor exactly like the
/// per-file rules do.
fn emit_at(
    rule: RuleId,
    path: &str,
    offset: usize,
    message: String,
    lexed: &BTreeMap<String, LexedFile>,
    out: &mut Vec<Violation>,
) {
    let Some(file) = lexed.get(path) else {
        return;
    };
    if file.is_test(offset) {
        return;
    }
    let line = file.line_of(offset);
    if file.allowed_rules_at(line).contains(&rule.name()) {
        return;
    }
    out.push(Violation {
        rule: rule.name().to_string(),
        path: path.to_string(),
        line,
        col: file.col_of(offset),
        message,
        snippet: file.raw_line(line).trim().to_string(),
    });
}

fn is_wire_crate(config: &LintConfig, crate_name: &str) -> bool {
    config.wire_crates.iter().any(|c| c == crate_name)
}

/// enum-billing: every variant of a billed enum is constructed outside
/// its defining file and surfaced in a match arm.
fn enum_billing(
    config: &LintConfig,
    model: &WorkspaceModel,
    lexed: &BTreeMap<String, LexedFile>,
    out: &mut Vec<Violation>,
) {
    for def_file in &model.files {
        if def_file.in_test_tree {
            continue;
        }
        for def in &def_file.enums {
            if def.is_test || !config.billed_enums.iter().any(|e| e == &def.name) {
                continue;
            }
            for variant in &def.variants {
                let mut constructed_elsewhere = false;
                let mut surfaced = false;
                for other in &model.files {
                    for r in &other.variant_refs {
                        if r.enum_name != def.name || r.variant != variant.name || r.is_test {
                            continue;
                        }
                        match r.context {
                            RefContext::MatchArm => surfaced = true,
                            _ if other.path != def_file.path => constructed_elsewhere = true,
                            _ => {}
                        }
                    }
                }
                let mut missing = Vec::new();
                if !constructed_elsewhere {
                    missing.push("constructed outside its defining file");
                }
                if !surfaced {
                    missing.push("surfaced in a match arm (stats/report path)");
                }
                if missing.is_empty() {
                    continue;
                }
                emit_at(
                    RuleId::EnumBilling,
                    &def_file.path,
                    variant.offset,
                    format!(
                        "billed variant `{}::{}` is never {}: a bucket nothing \
                         bills into (or nothing reports) is dead accounting — \
                         wire it up or remove it",
                        def.name,
                        variant.name,
                        missing.join(" or ")
                    ),
                    lexed,
                    out,
                );
            }
        }
    }
}

/// truncating-cast: no bare `as` narrowing inside codec/journal paths.
fn truncating_cast(
    config: &LintConfig,
    model: &WorkspaceModel,
    lexed: &BTreeMap<String, LexedFile>,
    out: &mut Vec<Violation>,
) {
    for f in &model.files {
        if !is_wire_crate(config, &f.crate_name) || f.in_test_tree {
            continue;
        }
        let file_name = f.path.rsplit('/').next().unwrap_or(&f.path);
        if !config
            .cast_file_stems
            .iter()
            .any(|stem| file_name.contains(stem.as_str()))
        {
            continue;
        }
        for cast in &f.casts {
            if cast.is_test || cast.target_bits > 32 || cast.line_has_checked {
                continue;
            }
            if literal_fits(&cast.source_token, &cast.target) {
                continue;
            }
            emit_at(
                RuleId::TruncatingCast,
                &f.path,
                cast.offset,
                format!(
                    "`{} as {}` in a codec path can truncate silently: use \
                     `{}::try_from(…)` (with `expect(\"invariant: …\")` if the \
                     range is proven) or `{}::from(…)` for a widening, or \
                     justify the wrap with an allow directive",
                    if cast.source_token.is_empty() {
                        "…"
                    } else {
                        &cast.source_token
                    },
                    cast.target,
                    cast.target,
                    cast.target
                ),
                lexed,
                out,
            );
        }
    }
}

/// Whether `tok` is an integer literal that provably fits `target`.
fn literal_fits(tok: &str, target: &str) -> bool {
    let tok = tok.replace('_', "");
    let parsed = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u128::from_str_radix(hex, 16).ok()
    } else {
        tok.parse::<u128>().ok()
    };
    let Some(v) = parsed else {
        return false;
    };
    let max: u128 = match target {
        "u8" => u8::MAX as u128,
        "i8" => i8::MAX as u128,
        "u16" => u16::MAX as u128,
        "i16" => i16::MAX as u128,
        "u32" => u32::MAX as u128,
        "i32" => i32::MAX as u128,
        _ => return false,
    };
    v <= max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileFacts;
    use std::path::PathBuf;

    /// Builds a model + lexed map from (path, source) pairs.
    fn workspace(files: &[(&str, &str)]) -> (WorkspaceModel, BTreeMap<String, LexedFile>) {
        let mut model = WorkspaceModel::default();
        let mut lexed = BTreeMap::new();
        for (path, src) in files {
            let lf = LexedFile::lex(src);
            let in_test_tree = path.contains("/tests/")
                || path.starts_with("tests/")
                || path.contains("/examples/")
                || path.contains("/benches/");
            model.files.push(FileFacts::extract(
                path,
                LintConfig::crate_of(path),
                in_test_tree,
                &lf,
            ));
            lexed.insert((*path).to_string(), lf);
        }
        (model, lexed)
    }

    fn config() -> LintConfig {
        LintConfig::for_root(PathBuf::from("."))
    }

    const LEDGER: &str = "pub enum EnergyUse { Useful, Wasted }\n\
         impl L { fn charge(&mut self, u: EnergyUse) { match u { EnergyUse::Useful => {} EnergyUse::Wasted => {} } } }\n";

    #[test]
    fn enum_billing_clean_when_built_elsewhere_and_matched() {
        let (model, lexed) = workspace(&[
            ("crates/fei-core/src/ledger.rs", LEDGER),
            (
                "crates/fei-fl/src/engine.rs",
                "fn bill() { charge(EnergyUse::Useful); charge(EnergyUse::Wasted); }\n",
            ),
        ]);
        let out = check(&config(), &model, &lexed);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn enum_billing_flags_variant_never_constructed_outside() {
        let (model, lexed) = workspace(&[
            ("crates/fei-core/src/ledger.rs", LEDGER),
            (
                "crates/fei-fl/src/engine.rs",
                "fn bill() { charge(EnergyUse::Useful); }\n",
            ),
        ]);
        let out = check(&config(), &model, &lexed);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("EnergyUse::Wasted"), "{out:?}");
        assert!(out[0].message.contains("constructed outside"), "{out:?}");
    }

    #[test]
    fn enum_billing_test_only_construction_does_not_count() {
        let (model, lexed) = workspace(&[
            ("crates/fei-core/src/ledger.rs", LEDGER),
            (
                "crates/fei-fl/src/engine.rs",
                "fn bill() { charge(EnergyUse::Useful); }\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { charge(EnergyUse::Wasted); }\n}\n",
            ),
        ]);
        let out = check(&config(), &model, &lexed);
        assert_eq!(
            out.len(),
            1,
            "test-gated construction must not satisfy billing: {out:?}"
        );
    }

    #[test]
    fn truncating_cast_scopes_to_codec_files_and_respects_checked_lines() {
        let (model, lexed) = workspace(&[
            (
                "crates/fei-net/src/codec.rs",
                "fn f(n: usize) -> u32 {\n\
                 let a = n as u32;\n\
                 let b = u32::try_from(n).expect(\"invariant: framed\") + (n as u32);\n\
                 let c = n as u64;\n\
                 a + b + c as u32\n}\n",
            ),
            (
                "crates/fei-net/src/planner.rs",
                "fn g(n: usize) -> u8 { n as u8 }\n",
            ),
        ]);
        let out = check(&config(), &model, &lexed);
        // Flagged: `n as u32` (line 2) and `c as u32` (line 5). The cast on
        // the try_from line is a documented rewrap; `as u64` never narrows
        // on our targets; planner.rs is out of scope.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.rule == "truncating-cast"));
        assert!(out.iter().all(|v| v.path.ends_with("codec.rs")));
    }

    #[test]
    fn truncating_cast_allows_fitting_literals_and_allow_directives() {
        let (model, lexed) = workspace(&[(
            "crates/fei-proto/src/journal.rs",
            "fn f(q: f64) -> u8 {\n\
             let a = 255 as u8;\n\
             // fei-lint: allow(truncating-cast, reason = \"clamped to 0..=255 above\")\n\
             let b = q as u8;\n\
             let c = 300 as u8;\n\
             a + b + c\n}\n",
        )]);
        let out = check(&config(), &model, &lexed);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].snippet.contains("300"), "{out:?}");
    }
}
