//! Lint configuration: where each rule runs.

use std::path::PathBuf;

/// Scoping for one lint run.
///
/// The defaults encode this workspace's contracts; tests override the
/// struct fields.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Crates whose public energy APIs must route joules through
    /// `EnergyUse` (the `ledger-discipline` rule).
    pub ledger_crates: Vec<String>,
    /// Crates that host fast-path numeric kernels. Allow directives in
    /// their kernel files face the `allow-audit` check below.
    pub kernel_crates: Vec<String>,
    /// File-name stems (matched as substrings of the file name) that mark
    /// a file in a kernel crate as fast-path kernel code.
    pub kernel_file_stems: Vec<String>,
    /// Phrases at least one of which an allow directive's `reason` in a
    /// kernel file must contain (case-insensitive): the reason must *name
    /// the numeric invariant the exception preserves*, not merely assert
    /// the code is fine — a suppressed rule on the fast path is one
    /// golden-numerics bisection away from being load-bearing.
    pub invariant_vocabulary: Vec<String>,
    /// Directory names never descended into.
    pub skip_dirs: Vec<String>,
}

impl LintConfig {
    /// The workspace defaults, rooted at `root`.
    pub fn for_root(root: PathBuf) -> LintConfig {
        LintConfig {
            root,
            ledger_crates: vec!["fei-core".to_string(), "fei-power".to_string()],
            kernel_crates: vec!["fei-math".to_string(), "fei-ml".to_string()],
            kernel_file_stems: vec![
                "pack".to_string(),
                "reduce".to_string(),
                "lanes".to_string(),
                "matrix".to_string(),
                "model".to_string(),
                "mlp".to_string(),
                "scratch".to_string(),
                "pool".to_string(),
            ],
            invariant_vocabulary: vec![
                "bit-identity".to_string(),
                "bit-identical".to_string(),
                "bit-for-bit".to_string(),
                "reduction order".to_string(),
                "accumulation order".to_string(),
                "fold order".to_string(),
                "pairwise".to_string(),
                "golden".to_string(),
                "reference kernel".to_string(),
                "matmul_reference".to_string(),
                "same contributions".to_string(),
            ],
            skip_dirs: vec![
                ".git".to_string(),
                "target".to_string(),
                // Vendored stand-ins for external deps: not ours to gate.
                "vendor".to_string(),
                // The linter's own known-bad test corpus.
                "fixtures".to_string(),
                // The stand-alone benchmark package (its own `[workspace]`):
                // BENCHMARK.json freezes its files, so a finding there could
                // never be fixed by the change that meets it.
                "perfbench".to_string(),
                // Integration tests, examples, and benches are test code,
                // which every rule exempts.
                "tests".to_string(),
                "examples".to_string(),
                "benches".to_string(),
            ],
        }
    }

    /// The crate a workspace-relative path belongs to (`crates/<name>/…`),
    /// or the facade crate for the root `src/`.
    pub fn crate_of(rel_path: &str) -> &str {
        let mut parts = rel_path.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or("ee-fei"),
            _ => "ee-fei",
        }
    }
}
