//! CLI for the workspace invariant linter.
//!
//! ```text
//! cargo run -p fei-lint                 # human-readable, exit 1 on violations
//! cargo run -p fei-lint -- --json       # machine-readable report
//! cargo run -p fei-lint -- --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use fei_lint::{find_workspace_root, run, LintConfig, RuleId};

const USAGE: &str = "\
fei-lint: workspace invariant linter (no-panic / float-eq / ledger-discipline)

USAGE: fei-lint [OPTIONS]

OPTIONS:
  --json                  emit a JSON report instead of human-readable text
  --root <PATH>           workspace root to scan (default: auto-discovered)
  --list-rules            print every rule with a one-line summary
  -h, --help              this help
";

fn main() -> ExitCode {
    match cli() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fei-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn cli() -> Result<ExitCode, String> {
    let mut json = false;
    let mut root: Option<PathBuf> = None;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => {
                let p = args.next().ok_or("--root needs a path argument")?;
                root = Some(PathBuf::from(p));
            }
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{:<18} {}", rule.name(), rule.summary());
                }
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = root.unwrap_or_else(|| find_workspace_root(&cwd));
    let report = run(&LintConfig::for_root(root)).map_err(|e| format!("scan failed: {e}"))?;

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
