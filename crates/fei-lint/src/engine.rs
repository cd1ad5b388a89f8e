//! The lint driver: one pass over the workspace's library code.
//!
//! Every `.rs` file outside [`LintConfig::skip_dirs`] — which include the
//! `tests/`, `examples/`, and `benches/` trees, since every rule exempts
//! test code — is lexed once and checked by each rule that applies to it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::lexer::LexedFile;
use crate::report::{Report, Violation};
use crate::rules::RuleId;

/// Lints the whole workspace described by `config`.
///
/// # Errors
///
/// Returns `io::Error` only for filesystem failures (unreadable root,
/// file deleted mid-scan); rule violations are reported, not errors.
pub fn run(config: &LintConfig) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(&config.root, config, &mut files)?;
    // Deterministic scan order regardless of directory-entry order.
    files.sort();

    let mut report = Report::default();
    for path in &files {
        let source = fs::read_to_string(path)?;
        let rel = relative_unix_path(&config.root, path);
        report.violations.extend(lint_source(config, &rel, &source));
    }
    report.files_scanned = files.len();
    report.finish();
    Ok(report)
}

/// Lints one file's source text under `config`.
pub fn lint_source(config: &LintConfig, rel_path: &str, source: &str) -> Vec<Violation> {
    let lexed = LexedFile::lex(source);
    let crate_name = LintConfig::crate_of(rel_path);
    let mut out = Vec::new();

    let at_directive = |rule: &str, line: usize, message: String| Violation {
        rule: rule.to_string(),
        path: rel_path.to_string(),
        line,
        col: 1,
        message,
        snippet: lexed.raw_line(line).trim().to_string(),
    };

    // A malformed escape comment is itself a violation: a directive that
    // silently fails to parse would un-suppress nothing and hide typos.
    let audit_reasons = is_kernel_file(config, crate_name, rel_path);
    for d in &lexed.directives {
        if let Some(err) = &d.parse_error {
            let message = format!("malformed fei-lint directive: {err}");
            out.push(at_directive("directive-syntax", d.line, message));
            continue;
        }
        for rule in &d.rules {
            if RuleId::from_name(rule).is_none() {
                let message = format!("directive allows unknown rule `{rule}`");
                out.push(at_directive("directive-syntax", d.line, message));
            }
        }
        // Allow-audit: in fast-path kernel files a suppression's reason
        // must *name the numeric invariant preserved* (bit-identity,
        // reduction/accumulation order, reference-kernel equivalence…),
        // because every exception there sits on arithmetic the golden
        // pins depend on. "The code is fine" is not a justification a
        // reviewer can check; "skips exactly where matmul_reference
        // skips, preserving bit-identity" is.
        if audit_reasons {
            let reason = d.reason.as_deref().unwrap_or_default().to_lowercase();
            let named = config
                .invariant_vocabulary
                .iter()
                .any(|kw| reason.contains(&kw.to_lowercase()));
            if !named {
                let message = format!(
                    "allow directive in a kernel file must name the invariant \
                     its exception preserves (one of: {})",
                    config.invariant_vocabulary.join(", ")
                );
                out.push(at_directive("allow-audit", d.line, message));
            }
        }
    }

    for rule in RuleId::ALL {
        if rule.applies(config, crate_name, rel_path) {
            out.extend(rule.check(&lexed, rel_path));
        }
    }
    out
}

/// Whether `rel_path` is fast-path kernel code for the allow-audit: a
/// file in a kernel crate whose name carries a kernel stem.
fn is_kernel_file(config: &LintConfig, crate_name: &str, rel_path: &str) -> bool {
    if !config.kernel_crates.iter().any(|c| c == crate_name) {
        return false;
    }
    let file = rel_path.rsplit('/').next().unwrap_or(rel_path);
    config
        .kernel_file_stems
        .iter()
        .any(|stem| file.contains(stem.as_str()))
}

/// Recursively collects `.rs` files, skipping `skip_dirs` by name.
fn collect_rs_files(dir: &Path, config: &LintConfig, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !config.skip_dirs.iter().any(|d| d.as_str() == name) {
                collect_rs_files(&path, config, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators (stable across platforms for
/// reports and JSON).
fn relative_unix_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: ascends from `start` looking for a
/// `Cargo.toml` that declares `[workspace]`, falling back to the
/// compile-time manifest's grandparent (`crates/fei-lint/../..`).
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return d;
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    let compile_time = Path::new(env!("CARGO_MANIFEST_DIR"));
    compile_time
        .parent()
        .and_then(Path::parent)
        .unwrap_or(compile_time)
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LintConfig {
        LintConfig::for_root(PathBuf::from("."))
    }

    #[test]
    fn crate_scoping_applies_the_ledger_rule_only_in_ledger_crates() {
        let src = "pub fn spend(&mut self, joules: f64) {}\n";
        let hit = lint_source(&config(), "crates/fei-core/src/x.rs", src);
        assert_eq!(hit.len(), 1, "{hit:?}");
        assert_eq!(hit[0].rule, "ledger-discipline");
        let miss = lint_source(&config(), "crates/fei-fl/src/x.rs", src);
        assert!(miss.is_empty(), "{miss:?}");
    }

    #[test]
    fn bins_are_exempt_from_no_panic() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(lint_source(&config(), "crates/fei-bench/src/bin/x.rs", src).is_empty());
        let lib_hit = lint_source(&config(), "crates/fei-bench/src/lib.rs", src);
        assert_eq!(lib_hit.len(), 1);
    }

    #[test]
    fn unknown_or_retired_rule_in_directive_is_a_violation() {
        // Rules clippy now owns are unknown here: their stale escapes fail.
        for rule in ["not-a-rule", "det-map-iter", "truncating-cast"] {
            let src = format!("// fei-lint: allow({rule}, reason = \"x\")\nlet a = 1;\n");
            let v = lint_source(&config(), "crates/fei-math/src/x.rs", &src);
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].rule, "directive-syntax");
        }
    }

    #[test]
    fn kernel_file_allow_must_name_the_invariant() {
        let vague = "// fei-lint: allow(float-eq, reason = \"this is fine\")\nlet a = 1;\n";
        let v = lint_source(&config(), "crates/fei-math/src/pack.rs", vague);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "allow-audit");

        let named = "// fei-lint: allow(float-eq, reason = \"exact-zero skip preserving bit-identity with the reference kernel\")\nlet a = 1;\n";
        assert!(
            lint_source(&config(), "crates/fei-math/src/pack.rs", named).is_empty(),
            "a reason naming the invariant must pass"
        );
    }

    #[test]
    fn allow_audit_scopes_to_kernel_files_only() {
        let vague =
            "// fei-lint: allow(float-eq, reason = \"degenerate-variance sentinel\")\nlet a = 1;\n";
        assert!(
            lint_source(&config(), "crates/fei-math/src/stats.rs", vague).is_empty(),
            "non-kernel files keep the reasons-are-freeform policy"
        );
        assert!(
            lint_source(&config(), "crates/fei-power/src/model.rs", vague).is_empty(),
            "kernel stems outside kernel crates are not audited"
        );
    }

    #[test]
    fn workspace_root_discovery_finds_this_workspace() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }
}
