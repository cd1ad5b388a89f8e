//! Lint configuration: which rules run, and where.

use std::collections::BTreeSet;
use std::path::PathBuf;

use crate::rules::RuleId;

/// Scoping and rule selection for one lint run.
///
/// The defaults encode this workspace's contracts; everything is
/// overridable (CLI flags on the binary, struct fields from tests).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Rules to run. `BTreeSet` so reports are deterministically ordered —
    /// the linter holds itself to the determinism contract it enforces.
    pub rules: BTreeSet<RuleId>,
    /// Crates whose non-test code must be bit-replayable. The determinism
    /// rules (`det-*`) run only here.
    pub det_crates: Vec<String>,
    /// Crates whose public energy APIs must route joules through
    /// `EnergyUse` (the `ledger-discipline` rule).
    pub ledger_crates: Vec<String>,
    /// Crates that own the wire schema. The cross-file `truncating-cast`
    /// rule audits codec casts here.
    pub wire_crates: Vec<String>,
    /// Enum names whose every variant must be billed and surfaced
    /// somewhere (the `enum-billing` rule).
    pub billed_enums: Vec<String>,
    /// File-name stems that mark a file as a codec/journal path for the
    /// `truncating-cast` rule (matched as substrings of the file name).
    pub cast_file_stems: Vec<String>,
    /// Crates that host fast-path numeric kernels. Allow directives in
    /// their kernel files face the `allow-audit` check below.
    pub kernel_crates: Vec<String>,
    /// File-name stems (substring-matched, like `cast_file_stems`) that
    /// mark a file in a kernel crate as fast-path kernel code.
    pub kernel_file_stems: Vec<String>,
    /// Phrases at least one of which an allow directive's `reason` in a
    /// kernel file must contain (case-insensitive): the reason must *name
    /// the numeric invariant the exception preserves*, not merely assert
    /// the code is fine — a suppressed rule on the fast path is one
    /// golden-numerics bisection away from being load-bearing.
    pub invariant_vocabulary: Vec<String>,
    /// Directory names never descended into.
    pub skip_dirs: Vec<String>,
    /// Directory names whose files are test code: scanned for the
    /// workspace model (pass 1) so cross-file rules can see test
    /// references, but exempt from per-file rules and excluded from
    /// `files_scanned`.
    pub test_dirs: Vec<String>,
    /// When true, `no-panic` also covers `src/bin/` and `src/main.rs`
    /// entry points (off by default: binaries may abort on operational
    /// errors; the contract is about library code).
    pub lint_bins: bool,
}

impl LintConfig {
    /// The workspace defaults, rooted at `root`.
    pub fn for_root(root: PathBuf) -> LintConfig {
        LintConfig {
            root,
            rules: RuleId::ALL.into_iter().collect(),
            det_crates: vec![
                "fei-fl".to_string(),
                "fei-core".to_string(),
                "fei-proto".to_string(),
                "fei-sim".to_string(),
            ],
            ledger_crates: vec!["fei-core".to_string(), "fei-power".to_string()],
            wire_crates: vec!["fei-proto".to_string(), "fei-net".to_string()],
            billed_enums: vec!["EnergyUse".to_string(), "AbortReason".to_string()],
            cast_file_stems: vec![
                "codec".to_string(),
                "wire".to_string(),
                "frames".to_string(),
                "journal".to_string(),
                "record".to_string(),
                "trace".to_string(),
            ],
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
            ],
            // Integration tests, examples, and benches are test code: pass 1
            // reads them (flagging every fact as test-context), the
            // per-file rules do not.
            test_dirs: vec![
                "tests".to_string(),
                "examples".to_string(),
                "benches".to_string(),
            ],
            lint_bins: false,
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
