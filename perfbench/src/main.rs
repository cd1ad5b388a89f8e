//! The repository's benchmark: end-to-end and per-layer numbers for the
//! federated round path, rung by rung — serial engine, threaded engine,
//! TCP daemon, daemon recovery. See README.md beside `Cargo.toml`.
//!
//! ```text
//! fei-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! fei-perfbench [--seed <n>] [--seconds <s> | --smoke] [--out FILE]   # every workload
//! fei-perfbench --compare A.jsonl B.jsonl
//! fei-perfbench --manifest
//! ```
//!
//! A single-workload run prints its report on stderr and, as the last line
//! of stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Untraced, the metrics are the end-to-end ones; traced, the per-layer
//! ones. Any miss — a round not committed, a failed check, a daemon that
//! exits non-zero — makes the exit code non-zero.

mod api;
mod compare;
mod energy;
mod inproc;
mod json;
mod metrics;
mod micro;
mod procfs;
mod span;
mod stats;
mod tcp;
mod tcpload;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use metrics::{Outcome, RUN_SECONDS, WORKLOADS};

/// Seconds a `--smoke` run measures: the same code paths, seconds-scale.
const SMOKE_SECONDS: u64 = 2;

/// A child run of one workload must end within this (the driver allows
/// 180 s; the TCP workloads carry their own 120 s watchdog inside).
const CHILD_LIMIT: Duration = Duration::from_secs(170);

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 0xF1,
        seconds: RUN_SECONDS,
        ..Args::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds wants 1..=60, got {text:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => parsed.seconds = SMOKE_SECONDS,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--compare" => parsed.compare = Some((value()?.into(), value()?.into())),
            "--manifest" => parsed.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = parsed
        .workload
        .as_deref()
        .filter(|name| workload(name).is_none())
    {
        let known: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown workload {name:?}; known: {}",
            known.join(", ")
        ));
    }
    Ok(parsed)
}

/// The three shapes a workload comes in.
enum Workload {
    InProcess(&'static inproc::Spec),
    Campaigns(&'static tcpload::Spec),
    Recover,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "headline_serial" => Workload::InProcess(&inproc::HEADLINE_SERIAL),
        "fanout_threaded" => Workload::InProcess(&inproc::FANOUT_THREADED),
        "tcp_control" => Workload::Campaigns(&tcpload::TCP_CONTROL),
        "tcp_model" => Workload::Campaigns(&tcpload::TCP_MODEL),
        "tcp_recover" => Workload::Recover,
        _ => return None,
    })
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let workload = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if !args.trace {
        return match workload {
            Workload::InProcess(spec) => Ok(inproc::run(spec, seed, seconds)),
            Workload::Campaigns(spec) => tcpload::run(spec, seed, seconds),
            Workload::Recover => tcpload::run_recover(seed, seconds),
        };
    }
    // Traced: the microbenchmarks give each layer's own number, at the
    // workload's wire tier and record size; the workload's own pass gives
    // the metrics of the layers it exercises (and 0 for the others). The
    // microbenchmarks go first, in a process that has done nothing yet, so
    // they read the same whatever the workload.
    let mut out = Outcome::default();
    let (tier, record_bytes) = match workload {
        Workload::InProcess(spec) => (spec.transport, tcpload::TCP_CONTROL.record_bytes()),
        Workload::Campaigns(spec) => (inproc::HEADLINE_SERIAL.transport, spec.record_bytes()),
        Workload::Recover => (
            inproc::HEADLINE_SERIAL.transport,
            tcpload::TCP_MODEL.record_bytes(),
        ),
    };
    micro::run(&mut out, seed, tier, record_bytes)?;
    let spans = match workload {
        Workload::InProcess(spec) => inproc::run_traced(spec, seed, seconds, &mut out),
        Workload::Campaigns(spec) => tcpload::run_traced(spec, seed, seconds, &mut out)?,
        Workload::Recover => tcpload::run_recover_traced(seed, seconds, &mut out)?,
    };
    match write_trace(name, seed, &spans) {
        Ok(path) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(why) => out.note(format!("trace file not written: {why}")),
    }
    Ok(out)
}

/// Writes the spans beside the executable, inside the build directory.
fn write_trace(workload: &str, seed: u64, spans: &[span::Span]) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, span::trace_json(workload, seed, spans).emit() + "\n")
        .map_err(|e| e.to_string())?;
    Ok(path)
}

/// The report for people: every metric by name with its unit, then notes.
fn print_report(name: &str, args: &Args, outcome: &Outcome) {
    eprintln!(
        "== {name}  seed {}  {} s  {}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        }
    );
    for def in metrics::required(args.trace) {
        if let Some(value) = outcome.values.get(def.name) {
            let bound = def
                .bound
                .map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
            eprintln!(
                "  {:<34} {:>16.6} {:<6} {} is better{bound}",
                def.name,
                value,
                def.unit,
                def.better.name()
            );
        }
    }
    for note in &outcome.notes {
        eprintln!("  - {note}");
    }
    eprintln!(
        "  attempted {}  failed {}  {}",
        outcome.attempted,
        outcome.failed,
        if outcome.failed == 0 {
            "correct"
        } else {
            "NOT CORRECT"
        }
    );
}

/// The line `--out` appends: the result with what produced it.
fn out_line(name: &str, args: &Args, result: &Json) -> String {
    Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("result", result.clone()),
    ])
    .emit()
}

fn append(path: &PathBuf, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))
}

fn single(name: &str, args: &Args) -> Result<bool, String> {
    let outcome = run_workload(name, args)?;
    print_report(name, args, &outcome);
    let result = outcome.to_json(args.trace)?;
    if let Some(path) = &args.out {
        append(path, &out_line(name, args, &result))?;
    }
    println!("{}", result.emit());
    Ok(outcome.failed == 0)
}

/// Runs `workload` in a fresh child of this executable, so peak memory and
/// CPU time are the workload's own, and returns whether it was correct.
fn child(workload: &str, trace: bool, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if let Some(path) = &args.out {
        command.arg("--out").arg(path);
    }
    let mut child = command.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status.success()),
            Ok(None) if started.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{workload} did not end within {CHILD_LIMIT:?}"));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for {workload}: {e}"));
            }
        }
    }
}

/// Every workload untraced, then every workload traced.
fn all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for trace in [false, true] {
        for (workload, _) in WORKLOADS {
            correct &= child(workload, trace, args)?;
        }
    }
    Ok(correct)
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let read = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))
            .and_then(|text| {
                compare::parse_runs(&text).map_err(|e| format!("{}: {e}", path.display()))
            })
    };
    let rows = compare::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two files share no untraced workload".to_string());
    }
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B"
    );
    for row in &rows {
        println!(
            "{:<16} {:<18} {:>14.6} {:>14.6} {:>8.1}% {:>8.1}%  {}",
            row.workload,
            row.metric,
            row.median_a,
            row.median_b,
            row.spread_a * 100.0,
            row.spread_b * 100.0,
            row.verdict.name()
        );
    }
    Ok(rows
        .iter()
        .all(|row| row.verdict != compare::Verdict::Worse))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = parse_args(&argv).and_then(|args| {
        if args.manifest {
            println!("{}", metrics::manifest().emit());
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            compare_files(a, b)
        } else if let Some(name) = &args.workload {
            single(name, &args)
        } else {
            all(&args)
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("fei-perfbench: {why}");
            ExitCode::from(2)
        }
    }
}
