//! The linter's own gate on this repository: the whole workspace must lint
//! clean with the default configuration. This is the test-suite twin of the
//! CI `lint` job — it keeps `cargo test --workspace` and the blocking CI
//! lane enforcing the same contract: zero findings. It also pins the
//! switches of the rules clippy owns, which fail open when moved.

use std::fs;
use std::path::{Path, PathBuf};

use fei_lint::{find_workspace_root, run, LintConfig};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// The lines of a workspace file that are not comments: `//` (Rust) and
/// `#` (TOML) lines go, `#![…]` crate attributes stay.
fn code_lines(rel: &str) -> Vec<String> {
    let text = fs::read_to_string(root().join(rel))
        .unwrap_or_else(|e| panic!("{rel} switches on a lint rule and must exist: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.starts_with("//") && (!l.starts_with('#') || l.starts_with("#![")))
        .map(str::to_string)
        .collect()
}

#[test]
fn the_workspace_lints_clean() {
    let report = run(&LintConfig::for_root(root()))
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

/// A misplaced or deleted `clippy.toml`, or a dropped crate attribute,
/// switches a clippy- or rustc-owned rule off without any error: pin them
/// here.
#[test]
fn the_rules_clippy_owns_stay_switched_on() {
    let banned = [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::time::Instant",
        "std::time::SystemTime",
    ];
    for det_crate in ["fei-fl", "fei-core", "fei-proto", "fei-sim"] {
        let rel = format!("crates/{det_crate}/clippy.toml");
        let lines = code_lines(&rel);
        assert!(
            lines.iter().any(|l| l.starts_with("disallowed-types")),
            "{rel} has no disallowed-types list"
        );
        for path in banned {
            let entry = format!("path = \"{path}\", reason = ");
            assert!(
                lines.iter().any(|l| l.contains(&entry)),
                "{rel} no longer bans {path} (with a reason)"
            );
        }
    }
    for wire_crate in ["fei-net", "fei-proto"] {
        let rel = format!("crates/{wire_crate}/src/lib.rs");
        assert!(
            code_lines(&rel)
                .iter()
                .any(|l| l.starts_with("#![")
                    && l.contains("deny(clippy::cast_possible_truncation)")),
            "{rel} no longer denies clippy::cast_possible_truncation"
        );
    }
    // Every product crate lets rustc see its dead surface: a `pub` item no
    // other crate names must be `pub(crate)`, so `dead_code` can flag it.
    for product in [
        "fei-core",
        "fei-data",
        "fei-fl",
        "fei-math",
        "fei-ml",
        "fei-net",
        "fei-power",
        "fei-proto",
        "fei-sim",
        "fei-testbed",
    ] {
        let rel = format!("crates/{product}/src/lib.rs");
        assert!(
            code_lines(&rel)
                .iter()
                .any(|l| l.as_str() == "#![warn(unreachable_pub)]"),
            "{rel} no longer warns on unreachable_pub"
        );
    }
}
