//! The linter's own gate on this repository: the whole workspace must lint
//! clean with the default configuration. This is the test-suite twin of the
//! CI `lint` job — it keeps `cargo test --workspace` and the blocking CI
//! lane enforcing the same contract: zero findings. It also pins the
//! switches of the rules clippy owns, which fail open when moved, and keeps
//! the source std-only.

use std::fs;
use std::path::{Path, PathBuf};

use fei_lint::lexer::LexedFile;
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
    // The gradient kernels stay on the caller's thread: no second pool.
    let rel = "crates/fei-ml/clippy.toml";
    let lines = code_lines(rel);
    assert!(
        lines.iter().any(|l| l.starts_with("disallowed-methods")),
        "{rel} has no disallowed-methods list"
    );
    for path in [
        "std::thread::spawn",
        "std::thread::Builder::spawn",
        "std::thread::scope",
    ] {
        let entry = format!("path = \"{path}\", reason = ");
        assert!(
            lines.iter().any(|l| l.contains(&entry)),
            "{rel} no longer bans {path} (with a reason)"
        );
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

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("invariant: a listed entry is readable").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers of `code` with the byte offset each starts at.
fn identifiers(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.char_indices()
        .filter(move |&(i, c)| is_ident(c) && !code[..i].ends_with(is_ident))
        .map(move |(i, _)| {
            let len = code[i..].find(|c| !is_ident(c)).unwrap_or(code.len() - i);
            (i, &code[i..i + len])
        })
}

/// The vendored runtime crates (`vendor/`) are still declared in the
/// manifests, so nothing but this test stops a stray `use` or derive from
/// bringing one back: no code under `crates/`, `src/`, `tests/` or
/// `examples/` names one. Comments and string literals are masked out, which
/// is also why the names below do not match themselves.
#[test]
fn the_source_names_no_vendored_runtime_crate() {
    const CRATES: [&str; 7] = [
        "serde",
        "serde_derive",
        "Serialize",
        "Deserialize",
        "crossbeam",
        "parking_lot",
        "criterion",
    ];
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rs_files(&root.join(dir), &mut files);
    }
    assert!(
        files.len() >= 95,
        "suspiciously few files ({})",
        files.len()
    );
    let mut hits = Vec::new();
    for path in &files {
        let raw = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let file = LexedFile::lex(&raw);
        for (at, ident) in identifiers(&file.masked) {
            let path_head = file.masked[at + ident.len()..]
                .trim_start()
                .starts_with("::");
            if CRATES.contains(&ident) || (ident == "bytes" && path_head) {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                hits.push(format!("{}:{}: {ident}", rel.display(), file.line_of(at)));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "source names a vendored runtime crate:\n{}",
        hits.join("\n")
    );
}
