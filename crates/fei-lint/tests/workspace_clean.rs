//! The linter's own gate on this repository: the whole workspace must lint
//! clean with the default configuration. This is the test-suite twin of the
//! CI `lint` job — it keeps `cargo test --workspace` and the blocking CI
//! lane enforcing the same contract: zero findings.

use std::path::Path;

use fei_lint::{find_workspace_root, run, LintConfig};

#[test]
fn the_workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report = run(&LintConfig::for_root(root))
        .expect("invariant: the workspace that built this test is readable");
    assert!(
        report.files_scanned >= 95,
        "suspiciously few files scanned ({}) — walker broke?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace invariant violations:\n{}",
        report.render_human()
    );
}
