//! The coordinator daemon: command line, run loop, stats file.
//!
//! Everything `fei_coordinatord` (and the soak bin's self-spawned daemon
//! role) does around a [`CoordinatorNode`]: parse its flags into a
//! [`DaemonConfig`], [`run_daemon`] to completion, and on orderly exit
//! write the final [`ControlStats`] as a `key value` file
//! ([`format_stats`] / [`parse_stats`]).

use std::path::PathBuf;

use fei_net::codec::{FRAME_OVERHEAD, MAX_PAYLOAD_LEN};

use crate::coordinator::{ControlStats, CoordinatorConfig};
use crate::frames::{select_frame_len, update_submit_frame_len};
use crate::node::{
    write_atomic, CoordinatorNode, CoordinatorNodeConfig, NodeError, NodePersistence, NodeReport,
};

/// Full configuration of a coordinator daemon process — everything
/// `fei_coordinatord` (and the soak bin's self-spawned daemon role)
/// parses from its command line.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (e.g. `"127.0.0.1:0"`).
    pub listen: String,
    /// Port file to advertise the bound address in.
    pub port_file: Option<PathBuf>,
    /// Journal file path: an unsynced view of the trace (needs `trace`).
    pub journal: Option<PathBuf>,
    /// Frame-trace path: the write-ahead log.
    pub trace: Option<PathBuf>,
    /// Stats file written (atomically) on orderly exit.
    pub stats: Option<PathBuf>,
    /// The node configuration.
    pub node: CoordinatorNodeConfig,
}

impl DaemonConfig {
    /// Parses daemon arguments. Flags (all `--flag value`):
    /// `--listen`, `--port-file`, `--journal`, `--trace`, `--stats`,
    /// `--rounds`, `--max-cycles`, `--tick-ms`, `--restart-lag`,
    /// `--global-bytes`, `--k`, `--over-select`, `--quorum`, `--epochs`,
    /// `--heartbeat-interval`, `--heartbeat-timeout`, `--round-deadline`.
    ///
    /// `--tick-ms` is the tick period ([`CoordinatorNodeConfig::cycle_sleep_ms`],
    /// default 1): the wall time one tick of the node's clock takes, and so
    /// the unit of every other duration here (`--max-cycles`,
    /// `--restart-lag`, the three protocol timers). It is not a polling
    /// interval — frames are handled as they arrive, at any tick length.
    ///
    /// # Errors
    ///
    /// [`NodeError::BadArg`] naming the offending flag or value, or the
    /// flags whose values break a `CoordinatorConfig::validated` rule.
    pub fn from_args(args: &[String]) -> Result<DaemonConfig, NodeError> {
        let mut config = DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            port_file: None,
            journal: None,
            trace: None,
            stats: None,
            node: CoordinatorNodeConfig::new(CoordinatorConfig {
                k: 3,
                over_select: 0,
                quorum: 2,
                epochs: 1,
                heartbeat_interval: 10,
                heartbeat_timeout: 200,
                round_deadline: 400,
            }),
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| NodeError::BadArg {
                message: format!("{flag} needs a value"),
            })?;
            let bad = |message: String| NodeError::BadArg { message };
            let parse_u64 = || {
                value
                    .parse::<u64>()
                    .map_err(|_| bad(format!("{flag} wants an integer, got {value:?}")))
            };
            match flag.as_str() {
                "--listen" => config.listen = value.clone(),
                "--port-file" => config.port_file = Some(PathBuf::from(value)),
                "--journal" => config.journal = Some(PathBuf::from(value)),
                "--trace" => config.trace = Some(PathBuf::from(value)),
                "--stats" => config.stats = Some(PathBuf::from(value)),
                "--rounds" => config.node.target_rounds = parse_u64()?,
                "--max-cycles" => config.node.max_cycles = parse_u64()?,
                "--tick-ms" => config.node.cycle_sleep_ms = parse_u64()?,
                "--restart-lag" => config.node.restart_lag = parse_u64()?,
                "--global-bytes" => {
                    let len: usize = narrow(flag, parse_u64()?)?;
                    let max = max_global_len();
                    if len > max {
                        return Err(bad(format!(
                            "{flag} value {len} is over {max}: its selection notice would \
                             break the {MAX_PAYLOAD_LEN}-byte frame cap"
                        )));
                    }
                    config.node.global = vec![0xAB; len];
                }
                "--k" => config.node.coordinator.k = narrow(flag, parse_u64()?)?,
                "--over-select" => {
                    config.node.coordinator.over_select = narrow(flag, parse_u64()?)?
                }
                "--quorum" => config.node.coordinator.quorum = narrow(flag, parse_u64()?)?,
                "--epochs" => config.node.coordinator.epochs = narrow(flag, parse_u64()?)?,
                "--heartbeat-interval" => config.node.coordinator.heartbeat_interval = parse_u64()?,
                "--heartbeat-timeout" => config.node.coordinator.heartbeat_timeout = parse_u64()?,
                "--round-deadline" => config.node.coordinator.round_deadline = parse_u64()?,
                other => return Err(bad(format!("unknown flag {other:?}"))),
            }
        }
        // What `Coordinator::new` would otherwise assert.
        if let Some((flags, message)) = config.node.coordinator.violation() {
            return Err(NodeError::BadArg {
                message: format!("{flags}: {message}"),
            });
        }
        Ok(config)
    }
}

/// The largest global payload whose selection notice, and the update that
/// echoes it back, a peer's stream still accepts under the frame cap.
fn max_global_len() -> usize {
    let header = select_frame_len(0).max(update_submit_frame_len(0)) - FRAME_OVERHEAD;
    MAX_PAYLOAD_LEN - header
}

/// Range-checks a parsed flag value into its (narrower) config field type.
fn narrow<T: TryFrom<u64>>(flag: &str, value: u64) -> Result<T, NodeError> {
    T::try_from(value).map_err(|_| NodeError::BadArg {
        message: format!("{flag} value {value} is out of range"),
    })
}

/// Runs a coordinator daemon to completion: start (fresh or recovered),
/// serve, and on orderly exit write the stats file atomically.
///
/// # Errors
///
/// Any [`NodeError`] from [`CoordinatorNode::start`] / `run`, or an I/O
/// error writing the stats file.
pub fn run_daemon(config: DaemonConfig) -> Result<NodeReport, NodeError> {
    let persist = NodePersistence {
        journal: config.journal.clone(),
        trace: config.trace.clone(),
        port_file: config.port_file.clone(),
    };
    let node = CoordinatorNode::start(&config.listen, config.node.clone(), persist)?;
    let report = node.run()?;
    if let Some(path) = &config.stats {
        write_atomic(path, &format_stats(&report.audit.stats))?;
    }
    Ok(report)
}

/// Writes [`ControlStats`] as `key value` lines (the daemon's stats
/// file format; [`parse_stats`] is the inverse).
pub(crate) fn format_stats(stats: &ControlStats) -> String {
    let mut stats = *stats;
    let mut out = String::new();
    for (key, field) in ControlStats::FIELDS {
        out.push_str(&format!("{key} {}\n", field(&mut stats)));
    }
    out
}

/// Parses a `format_stats` stats file. Unknown keys are ignored so the
/// format can grow; missing keys read as zero.
pub fn parse_stats(text: &str) -> ControlStats {
    let mut stats = ControlStats::default();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        if let Some((_, field)) = ControlStats::FIELDS.iter().find(|(k, _)| *k == key) {
            *field(&mut stats) = value;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::node::{CoordinatorAddr, ParticipantNode, ParticipantNodeConfig};
    use crate::participant::ParticipantConfig;
    use crate::store::StoreError;

    #[test]
    fn stats_table_covers_every_counter() {
        // Spelled out field by field (no `..default()`), so a counter added
        // to the struct but not to `ControlStats::FIELDS` fails here.
        let stats = ControlStats {
            frames_in: 1,
            bytes_in: 2,
            frames_out: 3,
            bytes_out: 4,
            rejected: 5,
            expired_rejections: 6,
            committed_rounds: 7,
            aborted_rounds: 8,
            aborts: crate::coordinator::AbortBreakdown {
                quorum_miss: 9,
                fleet_collapse: 10,
                cancelled: 11,
                coordinator_crash: 12,
            },
            resumed_rounds: 13,
            recovered_rejections: 14,
            wasted_update_bytes: 15,
        };
        assert_eq!(parse_stats(&format_stats(&stats)), stats);
        let mut doubled = stats;
        doubled.absorb(stats);
        let values = |mut s: ControlStats| ControlStats::FIELDS.map(|(_, field)| *field(&mut s));
        assert_eq!(values(stats), std::array::from_fn(|i| i as u64 + 1));
        assert_eq!(values(doubled), values(stats).map(|v| 2 * v));
    }

    #[test]
    fn daemon_args_parse_and_reject_typed() {
        let args: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--rounds",
            "7",
            "--k",
            "3",
            "--quorum",
            "2",
            "--tick-ms",
            "2",
            "--restart-lag",
            "5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let config = DaemonConfig::from_args(&args).expect("parse");
        assert_eq!(config.node.target_rounds, 7);
        assert_eq!(config.node.coordinator.k, 3);
        assert_eq!(config.node.cycle_sleep_ms, 2);
        assert_eq!(config.node.restart_lag, 5);
        let bad = DaemonConfig::from_args(&["--rounds".to_string(), "x".to_string()]);
        assert!(matches!(bad, Err(NodeError::BadArg { .. })));
        let bad = DaemonConfig::from_args(&["--nope".to_string(), "1".to_string()]);
        assert!(matches!(bad, Err(NodeError::BadArg { .. })));
        // Cross-field rules are typed too (this used to panic in
        // `Coordinator::new`), in `validated`'s words, naming the flags.
        let args = ["--k", "2", "--quorum", "3", "--rounds", "1"].map(str::to_string);
        match DaemonConfig::from_args(&args) {
            Err(NodeError::BadArg { message }) => assert_eq!(
                message,
                "--quorum/--k/--over-select: quorum 3 cannot exceed the selection width 2"
            ),
            other => panic!("quorum beyond the selection width: {other:?}"),
        }
        let args = ["--heartbeat-timeout", "10"].map(str::to_string);
        match DaemonConfig::from_args(&args) {
            Err(NodeError::BadArg { message }) => {
                assert!(message.starts_with("--heartbeat-timeout/--heartbeat-interval: "))
            }
            other => panic!("timeout not beyond the interval: {other:?}"),
        }
        // A journal file is a view of the trace: alone it is refused before
        // anything is opened, so no lock is left behind.
        let journal = std::env::temp_dir().join(format!("fei-journal-only-{}", std::process::id()));
        let persist = NodePersistence {
            journal: Some(journal.clone()),
            ..NodePersistence::default()
        };
        let refused = CoordinatorNode::start("127.0.0.1:0", config.node.clone(), persist);
        let both = |m: &String| m.contains("--journal") && m.contains("--trace");
        assert!(matches!(&refused, Err(NodeError::BadArg { message }) if both(message)));
        assert!(!journal.exists() && !journal.with_extension("lock").exists());
        // The trace is the log and has one writer: a second node on it is
        // refused while the first lives, and starts once it is gone.
        let trace = std::env::temp_dir().join(format!("fei-trace-only-{}", std::process::id()));
        let persist = NodePersistence {
            trace: Some(trace.clone()),
            ..NodePersistence::default()
        };
        let start = || CoordinatorNode::start("127.0.0.1:0", config.node.clone(), persist.clone());
        let first = start().expect("trace-only start");
        let locked = |e: &NodeError| matches!(e, NodeError::Store(StoreError::Locked { .. }));
        assert!(start().is_err_and(|e| locked(&e)));
        drop(first);
        start().expect("restart once the first writer is gone");
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn narrowed_flags_reject_out_of_range_values_by_name() {
        // (flag, the largest value its target type holds)
        let narrowed = [
            ("--epochs", u128::from(u32::MAX)),
            ("--k", usize::MAX as u128),
            ("--quorum", usize::MAX as u128),
            ("--over-select", usize::MAX as u128),
            ("--global-bytes", usize::MAX as u128),
            // These two used to be narrowed into the `JoinAck` by a bare `as`.
            ("--heartbeat-interval", u128::from(u32::MAX)),
            ("--heartbeat-timeout", u128::from(u32::MAX)),
        ];
        for (flag, max) in narrowed {
            // `--epochs 4294967297` used to wrap to 1.
            let args = [flag.to_string(), (max + 2).to_string()];
            match DaemonConfig::from_args(&args) {
                Err(NodeError::BadArg { message }) => assert!(message.contains(flag), "{message}"),
                other => panic!("{flag} {} must be rejected, got {other:?}", args[1]),
            }
        }
        let args = ["--epochs".to_string(), u32::MAX.to_string()];
        let config = DaemonConfig::from_args(&args).expect("in range");
        assert_eq!(config.node.coordinator.epochs, u32::MAX);
    }

    #[test]
    fn global_bytes_over_the_frame_cap_are_rejected_by_name() {
        // Checked before the payload is allocated, against the frame that
        // carries it: a selection notice over the cap is refused by every
        // participant's stream, so no round could ever open.
        let max = max_global_len();
        assert!(max < MAX_PAYLOAD_LEN);
        assert_eq!(select_frame_len(max) - FRAME_OVERHEAD, MAX_PAYLOAD_LEN);
        for len in [max + 1, MAX_PAYLOAD_LEN] {
            let args = ["--global-bytes".to_string(), len.to_string()];
            match DaemonConfig::from_args(&args) {
                Err(NodeError::BadArg { message }) => {
                    assert!(message.contains("--global-bytes"), "{message}")
                }
                other => panic!("an over-cap global payload must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_largest_accepted_global_still_completes_a_round_over_tcp() {
        // The selection notice and the update echoing it are both at, or
        // under, the cap the real streams enforce: the device reads the
        // notice, and the coordinator commits on its update.
        let args: Vec<String> = [
            "--global-bytes",
            &max_global_len().to_string(),
            "--k",
            "1",
            "--quorum",
            "1",
            "--rounds",
            "1",
            "--heartbeat-timeout",
            "60000",
            "--round-deadline",
            "60000",
        ]
        .map(String::from)
        .to_vec();
        let config = DaemonConfig::from_args(&args).expect("the largest accepted value");
        let node = CoordinatorNode::start(&config.listen, config.node, NodePersistence::default())
            .expect("coordinator start");
        let addr = node.local_addr().expect("local addr");
        let stop = Arc::new(AtomicBool::new(false));
        let device = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let config = ParticipantNodeConfig::new(ParticipantConfig::new(1, 0));
                ParticipantNode::new(CoordinatorAddr::Fixed(addr), config)
                    .run(&stop)
                    .expect("participant run")
            })
        };
        let report = node.run().expect("coordinator run");
        stop.store(true, Ordering::Relaxed);
        let device = device.join().expect("participant thread");
        let stats = report.audit.stats;
        assert_eq!(stats.committed_rounds, 1, "{stats:?}");
        assert_eq!(stats.rejected, 0, "{stats:?}");
        // The coordinator may exit before its commit reaches the device;
        // the device read the notice and answered it.
        assert!(device.stats.submits >= 1, "{:?}", device.stats);
    }
}
