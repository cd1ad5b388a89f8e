//! The lint driver: two passes over the workspace.
//!
//! Pass 1 walks every `.rs` file — library code *and* the `tests/`,
//! `examples/`, and `benches/` trees — lexing each once and extracting
//! its [`FileFacts`] into a [`WorkspaceModel`]. Pass 2 runs the per-file
//! rules on library files (test trees stay exempt, as before) and the
//! cross-file rules ([`crate::crossfile`]) over the whole model, in which
//! every test-tree fact is flagged so production reachability is never
//! satisfied from test code. `files_scanned` keeps its historical meaning:
//! library files checked by per-file rules.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::crossfile;
use crate::lexer::LexedFile;
use crate::model::{FileFacts, WorkspaceModel};
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
    collect_rs_files(&config.root, config, false, &mut files)?;
    // Deterministic scan order regardless of directory-entry order.
    files.sort();

    let mut report = Report::default();
    let mut model = WorkspaceModel::default();
    let mut lexed_by_path: BTreeMap<String, LexedFile> = BTreeMap::new();
    for (path, in_test_tree) in &files {
        let source = fs::read_to_string(path)?;
        let rel = relative_unix_path(&config.root, path);
        let lexed = LexedFile::lex(&source);
        model.files.push(FileFacts::extract(
            &rel,
            LintConfig::crate_of(&rel),
            *in_test_tree,
            &lexed,
        ));
        if !*in_test_tree {
            report.violations.extend(lint_lexed(config, &rel, &lexed));
            report.files_scanned += 1;
        }
        lexed_by_path.insert(rel, lexed);
    }
    report
        .violations
        .extend(crossfile::check(config, &model, &lexed_by_path));
    report.finish();
    Ok(report)
}

/// Lints one file's source text under `config` with the per-file rules.
/// Exposed for fixture tests; cross-file rules need [`run`].
pub fn lint_source(config: &LintConfig, rel_path: &str, source: &str) -> Vec<Violation> {
    lint_lexed(config, rel_path, &LexedFile::lex(source))
}

/// The per-file pass over one already-lexed file.
fn lint_lexed(config: &LintConfig, rel_path: &str, lexed: &LexedFile) -> Vec<Violation> {
    let crate_name = LintConfig::crate_of(rel_path);
    let mut out = Vec::new();

    // A malformed escape comment is itself a violation: a directive that
    // silently fails to parse would un-suppress nothing and hide typos.
    let audit_reasons = is_kernel_file(config, crate_name, rel_path);
    for d in &lexed.directives {
        if let Some(err) = &d.parse_error {
            out.push(Violation {
                rule: "directive-syntax".to_string(),
                path: rel_path.to_string(),
                line: d.line,
                col: 1,
                message: format!("malformed fei-lint directive: {err}"),
                snippet: lexed.raw_line(d.line).trim().to_string(),
            });
            continue;
        }
        for rule in &d.rules {
            if RuleId::from_name(rule).is_none() {
                out.push(Violation {
                    rule: "directive-syntax".to_string(),
                    path: rel_path.to_string(),
                    line: d.line,
                    col: 1,
                    message: format!("directive allows unknown rule `{rule}`"),
                    snippet: lexed.raw_line(d.line).trim().to_string(),
                });
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
                out.push(Violation {
                    rule: "allow-audit".to_string(),
                    path: rel_path.to_string(),
                    line: d.line,
                    col: 1,
                    message: format!(
                        "allow directive in a kernel file must name the invariant \
                         its exception preserves (one of: {})",
                        config.invariant_vocabulary.join(", ")
                    ),
                    snippet: lexed.raw_line(d.line).trim().to_string(),
                });
            }
        }
    }

    for rule in &config.rules {
        if rule.applies(config, crate_name, rel_path) {
            out.extend(rule.check(lexed, rel_path));
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

/// Recursively collects `.rs` files with a test-tree flag, skipping
/// `skip_dirs` by name. A file is test-tree once any ancestor directory
/// name is in `test_dirs`.
fn collect_rs_files(
    dir: &Path,
    config: &LintConfig,
    in_test_tree: bool,
    out: &mut Vec<(PathBuf, bool)>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if config.skip_dirs.iter().any(|d| d.as_str() == name) {
                continue;
            }
            let test_here = in_test_tree || config.test_dirs.iter().any(|d| d.as_str() == name);
            collect_rs_files(&path, config, test_here, out)?;
        } else if name.ends_with(".rs") {
            out.push((path, in_test_tree));
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
    fn crate_scoping_applies_det_rules_only_in_det_crates() {
        let src = "use std::collections::HashMap;\n";
        let hit = lint_source(&config(), "crates/fei-fl/src/x.rs", src);
        assert_eq!(hit.len(), 1, "{hit:?}");
        assert_eq!(hit[0].rule, "det-map-iter");
        let miss = lint_source(&config(), "crates/fei-power/src/x.rs", src);
        assert!(miss.is_empty(), "{miss:?}");
    }

    #[test]
    fn bins_are_exempt_from_no_panic_by_default() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(lint_source(&config(), "crates/fei-bench/src/bin/x.rs", src).is_empty());
        let lib_hit = lint_source(&config(), "crates/fei-bench/src/lib.rs", src);
        assert_eq!(lib_hit.len(), 1);
        let mut strict = config();
        strict.lint_bins = true;
        assert_eq!(
            lint_source(&strict, "crates/fei-bench/src/bin/x.rs", src).len(),
            1
        );
    }

    #[test]
    fn unknown_rule_in_directive_is_a_violation() {
        let src = "// fei-lint: allow(not-a-rule, reason = \"x\")\nlet a = 1;\n";
        let v = lint_source(&config(), "crates/fei-math/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "directive-syntax");
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
