//! `fei_coordinatord` — the FL coordinator as a real OS process.
//!
//! Binds a localhost TCP listener, serves the fei-proto coordinator state
//! machine over the CRC32 frame codec, and persists the frame trace that
//! makes the run replayable — its one write-ahead log, fsync'd before any
//! phase-transition effect leaves the process. `--journal` (which needs
//! `--trace`) also writes the round journal to a file, unsynced: a view of
//! the trace. On restart against the same paths it recovers: trace-prefix
//! replay rebuilds the decision core, `Coordinator::recover` folds the
//! replayed journal, the journal file gets back any suffix it lost, and
//! every participant is told the new epoch.
//!
//! ```text
//! fei_coordinatord --listen 127.0.0.1:0 --port-file /tmp/fei.port \
//!     --journal /tmp/fei.journal --trace /tmp/fei.trace \
//!     --rounds 5 --k 3 --quorum 2
//! ```
//!
//! `--rounds 0` runs until a Shutdown control frame arrives (the
//! supervisor's graceful path). Exit code 0 means the run completed and
//! the stats file (if `--stats` was given) is in place; any error prints
//! to stderr and exits 1. See `fei_proto::node::DaemonConfig::from_args`
//! for the full flag list.

use std::process::ExitCode;

use fei_proto::node::{run_daemon, DaemonConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match DaemonConfig::from_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("fei_coordinatord: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_daemon(config) {
        Ok(report) => {
            eprintln!(
                "fei_coordinatord: done — {} rounds closed ({} committed), \
                 {} cycles, shutdown={}",
                report.audit.round_log.len(),
                report
                    .audit
                    .round_log
                    .iter()
                    .filter(|v| v.committed)
                    .count(),
                report.cycles,
                report.shutdown,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fei_coordinatord: {e}");
            ExitCode::FAILURE
        }
    }
}
