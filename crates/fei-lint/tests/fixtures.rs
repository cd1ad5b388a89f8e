//! Fixture-driven coverage for every lint rule: each rule has a known-good
//! tree that must lint clean and a known-bad tree that must produce
//! violations of that rule and only that rule. The fixture trees mirror the
//! workspace layout (`crates/<name>/src/*.rs`) so crate-scoped rules see
//! realistic paths, and the CLI can be pointed at them with `--root`.

use std::path::PathBuf;
use std::process::Command;

use fei_lint::{run, LintConfig, Report, RuleId};

fn fixture_root(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

fn lint_fixture(rel: &str) -> Report {
    let config = LintConfig::for_root(fixture_root(rel));
    run(&config).expect("invariant: fixture trees ship with the crate and are readable")
}

/// (fixture dir, the one rule its bad tree violates)
const CASES: [(&str, RuleId); 3] = [
    ("no_panic", RuleId::NoPanic),
    ("float_eq", RuleId::FloatEq),
    ("ledger_discipline", RuleId::LedgerDiscipline),
];

#[test]
fn every_good_fixture_is_clean() {
    for (dir, rule) in CASES {
        let report = lint_fixture(&format!("{dir}/good"));
        assert!(
            report.is_clean(),
            "good fixture for {} not clean:\n{}",
            rule.name(),
            report.render_human()
        );
        assert!(
            report.files_scanned > 0,
            "good fixture for {dir} not scanned"
        );
    }
}

#[test]
fn every_bad_fixture_fails_with_exactly_its_rule() {
    for (dir, rule) in CASES {
        let report = lint_fixture(&format!("{dir}/bad"));
        assert!(
            !report.is_clean(),
            "bad fixture for {} unexpectedly clean",
            rule.name()
        );
        assert!(
            report.count_for(rule) > 0,
            "bad fixture for {} produced no {} violations:\n{}",
            rule.name(),
            rule.name(),
            report.render_human()
        );
        for v in &report.violations {
            assert_eq!(
                v.rule,
                rule.name(),
                "bad fixture for {} tripped a different rule:\n{}",
                rule.name(),
                report.render_human()
            );
        }
    }
}

#[test]
fn allow_directive_suppresses_exactly_its_rule() {
    let report = lint_fixture("allow_scoping");
    // Both unwraps carry `allow(no-panic, ...)`; both float comparisons on
    // the covered lines must still fire, and nothing else.
    assert_eq!(
        report.count_for(RuleId::NoPanic),
        0,
        "allow(no-panic) failed to suppress:\n{}",
        report.render_human()
    );
    assert_eq!(
        report.count_for(RuleId::FloatEq),
        2,
        "allow(no-panic) must not suppress float-eq:\n{}",
        report.render_human()
    );
    assert_eq!(
        report.violations.len(),
        2,
        "unexpected extra violations:\n{}",
        report.render_human()
    );
}

#[test]
fn cli_exits_nonzero_on_bad_fixtures_and_zero_on_good() {
    let bin = env!("CARGO_BIN_EXE_fei-lint");
    for (dir, rule) in CASES {
        let bad = Command::new(bin)
            .args(["--root"])
            .arg(fixture_root(&format!("{dir}/bad")))
            .output()
            .expect("invariant: the fei-lint binary was built alongside this test");
        assert_eq!(
            bad.status.code(),
            Some(1),
            "bad fixture for {} should exit 1",
            rule.name()
        );
        let good = Command::new(bin)
            .args(["--root"])
            .arg(fixture_root(&format!("{dir}/good")))
            .output()
            .expect("invariant: the fei-lint binary was built alongside this test");
        assert_eq!(
            good.status.code(),
            Some(0),
            "good fixture for {} should exit 0: {}",
            rule.name(),
            String::from_utf8_lossy(&good.stdout)
        );
    }
}

#[test]
fn cli_json_reports_per_rule_counts() {
    let bin = env!("CARGO_BIN_EXE_fei-lint");
    let out = Command::new(bin)
        .args(["--json", "--root"])
        .arg(fixture_root("float_eq/bad"))
        .output()
        .expect("invariant: the fei-lint binary was built alongside this test");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"violations_total\": 7"), "{json}");
    assert!(json.contains("\"float-eq\": {\"violations\": 7}"), "{json}");
    assert!(json.contains("\"no-panic\": {\"violations\": 0}"), "{json}");
    assert!(json.contains("\"rule\": \"float-eq\""), "{json}");
}
