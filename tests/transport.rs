//! Socket-transport conformance: real TCP runs vs the deterministic oracles.
//!
//! Three escalating proofs that the socket runtime is the *same protocol*
//! the in-process harnesses verify:
//!
//! 1. **Oracle replay** — a coordinator + 3 participants complete 5 FL
//!    rounds over real localhost TCP with the trace and journal on disk,
//!    and replaying the frame trace read back from disk through the shared
//!    decision core reproduces the live run bit for bit: journal bytes
//!    (which fold to the committed model payloads), round verdicts,
//!    `ControlStats`.
//! 2. **Cluster agreement** — the same campaign's round outcomes match a
//!    deterministic [`Cluster`] run of the same configuration.
//! 3. **Supervision** — the coordinator runs as a real OS process
//!    (`fei_coordinatord`), is SIGKILLed mid-round twice by the
//!    [`Supervisor`], recovers from the journal both times (once resuming
//!    the round, once crash-aborting it past the deadline), is shut down
//!    gracefully mid-round (cancellation), and the full multi-incarnation
//!    history still replays bit-identically from the persisted trace.
//!
//! Every wait is wall-clock bounded; the nodes carry their own cycle
//! budgets, so a wedged run fails typed instead of hanging CI.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fei_proto::node::{
    parse_stats, read_trace, replay_trace, CoordinatorAddr, CoordinatorNode, CoordinatorNodeConfig,
    NodePersistence, NodeReport, ParticipantNode, ParticipantNodeConfig,
};
use fei_proto::{
    AbortReason, Cluster, ClusterConfig, CommandFactory, CoordinatorConfig, JournalRecord,
    JournalState, ParticipantConfig, RoundJournal, Supervisor,
};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fei-transport-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        k: 3,
        over_select: 0,
        quorum: 2,
        epochs: 1,
        heartbeat_interval: 10,
        heartbeat_timeout: 200,
        round_deadline: 400,
    }
}

/// Runs a coordinator (in-process) + 3 participant threads over real
/// localhost sockets until `target_rounds` rounds close.
fn run_socket_campaign(dir: &Path, config: CoordinatorConfig, target_rounds: u64) -> NodeReport {
    let mut node_config = CoordinatorNodeConfig::new(config);
    node_config.target_rounds = target_rounds;
    node_config.max_cycles = 30_000;
    let persist = NodePersistence {
        journal: Some(dir.join("coordinator.journal")),
        trace: Some(dir.join("coordinator.trace")),
        port_file: Some(dir.join("coordinator.port")),
    };
    let node =
        CoordinatorNode::start("127.0.0.1:0", node_config, persist).expect("coordinator start");
    let addr = node.local_addr().expect("local addr");

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for client in 0..3u64 {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            // Staggered local training times so arrival order is real.
            let participant = ParticipantConfig::new(client, 2 + 2 * client);
            let mut p = ParticipantNode::new(
                CoordinatorAddr::Fixed(addr),
                ParticipantNodeConfig::new(participant),
            );
            p.run(&stop).expect("participant run")
        }));
    }

    let started = Instant::now();
    let report = node.run().expect("coordinator run");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "socket campaign blew its wall-clock budget"
    );
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("participant thread");
    }
    report
}

#[test]
fn socket_run_matches_oracle_replay_bit_for_bit() {
    let dir = temp_dir("oracle");
    let report = run_socket_campaign(&dir, coordinator_config(), 5);

    // The campaign actually did federated learning over TCP.
    assert!(report.audit.round_log.len() >= 5, "five rounds must close");
    let committed = report
        .audit
        .round_log
        .iter()
        .filter(|v| v.committed)
        .count();
    assert!(
        committed >= 5,
        "quiet localhost rounds all commit: {committed}"
    );
    assert!(!report.audit.journal.is_empty());

    // Golden parity: replaying the trace the node wrote through the
    // shared decision core reproduces the live run exactly.
    let (disk_trace, torn) = read_trace(&dir.join("coordinator.trace")).expect("trace file");
    assert_eq!(torn, 0, "clean shutdown leaves no torn trace tail");
    let replayed = replay_trace(&coordinator_config(), &[0xAB; 64], &disk_trace);
    assert_eq!(
        replayed.journal, report.audit.journal,
        "journal bytes diverged"
    );
    assert_eq!(
        replayed.round_log, report.audit.round_log,
        "round verdicts diverged"
    );
    assert_eq!(replayed.stats, report.audit.stats, "ControlStats diverged");
    assert_eq!(replayed, report.audit, "full audit diverged");

    // The disk journal is the image of the decision journal.
    let journal = dir.join("coordinator.journal");
    let disk_journal = std::fs::read(&journal).expect("journal file");
    assert_eq!(disk_journal, report.audit.journal, "disk journal diverged");

    // Committed models are the identity-trained echo of the global model:
    // every update the journal accepted is, and every commit has some.
    for record in journal_records(&journal) {
        match record {
            JournalRecord::UpdateAccepted {
                round,
                client,
                update,
                ..
            } => assert_eq!(
                update,
                vec![0xAB; 64],
                "round {round} client {client} payload is not the trained echo"
            ),
            JournalRecord::RoundCommitted {
                round, accepted, ..
            } => assert!(
                !accepted.is_empty(),
                "round {round} committed without models"
            ),
            _ => {}
        }
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn socket_run_agrees_with_the_cluster_oracle() {
    let dir = temp_dir("cluster");
    // Quorum = fleet for this comparison: the node opens a round as soon
    // as a quorum is live, and over real sockets the three joins land in
    // scheduler order — with quorum 2 the first round could open on
    // whichever two arrived first, where the simulated fleet joins as one.
    // Waiting for all three makes round 0's roster the oracle's.
    let config = CoordinatorConfig {
        quorum: 3,
        ..coordinator_config()
    };
    let report = run_socket_campaign(&dir, config.clone(), 5);

    // The deterministic harness runs the same protocol configuration on
    // a quiet simulated network.
    let oracle = Cluster::new(ClusterConfig::quiet(config, 3, 5)).run();
    assert!(oracle.liveness_ok() && oracle.safety_ok());

    assert!(oracle.round_log.len() >= 5);
    assert!(report.audit.round_log.len() >= 5);
    for (socket, simulated) in report.audit.round_log.iter().zip(oracle.round_log.iter()) {
        assert_eq!(socket.round, simulated.round, "round numbering diverged");
        assert_eq!(
            socket.committed, simulated.committed,
            "round {} outcome diverged",
            socket.round
        );
        // Arrival *order* is scheduler-dependent over real sockets; the
        // accepted *set* is the protocol decision and must agree.
        let mut socket_accepted = socket.accepted.clone();
        socket_accepted.sort_unstable();
        let mut simulated_accepted = simulated.accepted.clone();
        simulated_accepted.sort_unstable();
        assert_eq!(
            socket_accepted, simulated_accepted,
            "round {} accepted set diverged",
            socket.round
        );
    }
    assert_eq!(
        report.audit.stats.committed_rounds, oracle.coordinator.committed_rounds,
        "committed-round counts diverged"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Journal snapshot helpers for the supervision test: the test process
/// observes the daemon's progress by reading its journal file.
fn journal_records(path: &Path) -> Vec<JournalRecord> {
    let Ok(bytes) = std::fs::read(path) else {
        return Vec::new();
    };
    match RoundJournal::from_bytes(bytes).replay() {
        Ok(replay) => replay.records,
        Err(_) => Vec::new(),
    }
}

fn committed_rounds(records: &[JournalRecord]) -> usize {
    records
        .iter()
        .filter(|r| matches!(r, JournalRecord::RoundCommitted { .. }))
        .count()
}

fn open_round_updates(records: &[JournalRecord]) -> Option<usize> {
    let state = JournalState::from_records(records);
    state.open_round.as_ref().map(|r| r.updates.len())
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < timeout,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn supervisor_kills_respawns_and_cancels_a_real_coordinator_process() {
    let dir = temp_dir("supervised");
    let journal = dir.join("daemon.journal");
    let trace = dir.join("daemon.trace");
    let port_file = dir.join("daemon.port");
    let stats_file = dir.join("daemon.stats");

    // Long tail training (4/52/100 participant ticks) keeps every round
    // open ~100ms after its first accepted update — a wide, reliable
    // window for killing the daemon mid-Training.
    let config = coordinator_config();
    let daemon_bin = env!("CARGO_BIN_EXE_fei_coordinatord");
    let build = {
        let (journal, trace, port_file, stats_file) = (
            journal.clone(),
            trace.clone(),
            port_file.clone(),
            stats_file.clone(),
        );
        move |incarnation: u64| {
            let mut cmd = Command::new(daemon_bin);
            // Incarnation 2 comes back far past the round deadline: its
            // recovery must crash-abort instead of resuming.
            let restart_lag: u64 = if incarnation == 2 { 100_000 } else { 1 };
            cmd.args([
                "--listen",
                "127.0.0.1:0",
                "--rounds",
                "0",
                "--tick-ms",
                "2",
                "--max-cycles",
                "60000",
                "--k",
                "3",
                "--over-select",
                "0",
                "--quorum",
                "2",
                "--heartbeat-interval",
                "10",
                "--heartbeat-timeout",
                "200",
                "--round-deadline",
                "400",
            ]);
            cmd.arg("--restart-lag").arg(restart_lag.to_string());
            cmd.arg("--journal").arg(&journal);
            cmd.arg("--trace").arg(&trace);
            cmd.arg("--port-file").arg(&port_file);
            cmd.arg("--stats").arg(&stats_file);
            cmd
        }
    };
    let mut supervisor = Supervisor::with_journal(CommandFactory::new(build), journal.clone());
    supervisor.start().expect("spawn daemon");
    assert!(supervisor.is_alive());

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for client in 0..3u64 {
        let stop = Arc::clone(&stop);
        let port_file = port_file.clone();
        workers.push(std::thread::spawn(move || {
            let participant = ParticipantConfig::new(client, 4 + 48 * client);
            let mut node_config = ParticipantNodeConfig::new(participant);
            node_config.max_cycles = 240_000;
            let mut p = ParticipantNode::new(CoordinatorAddr::PortFile(port_file), node_config);
            p.run(&stop).expect("participant run")
        }));
    }

    // Kill #1: mid-Training, with at least one update journaled. The
    // respawn (restart lag 1) recovers inside the deadline and resumes.
    wait_until(
        "an open round with a journaled update",
        Duration::from_secs(30),
        || open_round_updates(&journal_records(&journal)).is_some_and(|u| u > 0),
    );
    supervisor.kill().expect("SIGKILL #1");
    assert!(!supervisor.is_alive());
    supervisor.respawn().expect("respawn #1");
    assert!(supervisor.is_alive());
    assert_eq!(supervisor.incarnation(), 1);

    // Let the resumed campaign make progress, then kill #2 mid-Training
    // again; this respawn comes back past the deadline and must abort.
    wait_until(
        "post-resume progress and another mid-round update",
        Duration::from_secs(60),
        || {
            let records = journal_records(&journal);
            committed_rounds(&records) >= 3 && open_round_updates(&records).is_some_and(|u| u > 0)
        },
    );
    supervisor.kill().expect("SIGKILL #2");
    supervisor.respawn().expect("respawn #2");
    assert_eq!(supervisor.incarnation(), 2);
    assert_eq!(supervisor.kills(), 2);
    assert_eq!(supervisor.respawns(), 2);

    // The campaign keeps going after the crash-abort; once it has done
    // real work, shut it down gracefully mid-round (cancellation path).
    wait_until("five committed rounds", Duration::from_secs(60), || {
        committed_rounds(&journal_records(&journal)) >= 5
    });
    wait_until(
        "a fresh open round to cancel",
        Duration::from_secs(30),
        || open_round_updates(&journal_records(&journal)).is_some_and(|u| u < 2),
    );
    let addr: SocketAddr = std::fs::read_to_string(&port_file)
        .expect("port file")
        .trim()
        .parse()
        .expect("daemon address");
    Supervisor::<CommandFactory<fn(u64) -> Command>>::shutdown(addr).expect("send shutdown");
    wait_until(
        "the daemon to exit on shutdown",
        Duration::from_secs(30),
        || !supervisor.is_alive(),
    );
    stop.store(true, Ordering::Relaxed);
    let mut reconnects = 0;
    for worker in workers {
        reconnects += worker.join().expect("participant thread").reconnects;
    }
    assert!(
        reconnects >= 2,
        "participants must have re-dialed the respawns"
    );

    // === The recovery audits (same invariants tests/recovery.rs checks
    // in-process), now against a SIGKILLed real OS process. ===
    let stats = parse_stats(&std::fs::read_to_string(&stats_file).expect("stats file"));
    assert!(stats.committed_rounds >= 5, "stats: {stats:?}");
    assert!(stats.resumed_rounds >= 1, "kill #1 must resume: {stats:?}");
    assert!(
        stats.aborts.coordinator_crash >= 1,
        "kill #2 must crash-abort: {stats:?}"
    );
    assert!(
        stats.wasted_update_bytes > 0,
        "the crash-aborted round stranded an update: {stats:?}"
    );
    assert_eq!(
        stats.aborts.cancelled, 1,
        "graceful shutdown cancels once: {stats:?}"
    );

    let records = journal_records(&journal);
    // Three incarnations journaled their epochs.
    let epochs = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::EpochStarted { .. }))
        .count();
    assert!(epochs >= 3, "boot + two respawns: {epochs} epochs");
    // No update is aggregated twice across restarts.
    let mut aggregated = std::collections::BTreeSet::new();
    for record in &records {
        if let JournalRecord::RoundCommitted {
            round, accepted, ..
        } = record
        {
            for client in accepted {
                assert!(
                    aggregated.insert((*round, *client)),
                    "client {client} aggregated twice in round {round}"
                );
            }
        }
    }
    // Every opened round settled (the cancellation closed the last one).
    let mut settled = std::collections::BTreeSet::new();
    for record in &records {
        match record {
            JournalRecord::RoundCommitted { round, .. }
            | JournalRecord::RoundAborted { round, .. } => {
                settled.insert(*round);
            }
            _ => {}
        }
    }
    for record in &records {
        if let JournalRecord::RoundOpened { round, .. } = record {
            assert!(settled.contains(round), "round {round} never settled");
        }
    }
    let cancelled = records.iter().any(|r| {
        matches!(
            r,
            JournalRecord::RoundAborted {
                reason: AbortReason::Cancelled,
                ..
            }
        )
    });
    assert!(
        cancelled,
        "the graceful shutdown's cancellation must be journaled"
    );

    // === Oracle replay across all three incarnations: the persisted
    // trace alone reproduces the disk journal and the daemon's stats. ===
    let (events, torn) = read_trace(&trace).expect("trace file");
    assert_eq!(torn, 0, "clean shutdown leaves no torn trace tail");
    let replayed = replay_trace(&config, &[0xAB; 64], &events);
    let disk_journal = std::fs::read(&journal).expect("journal file");
    assert_eq!(
        replayed.journal, disk_journal,
        "replayed journal diverged from disk"
    );
    assert_eq!(
        replayed.stats, stats,
        "replayed stats diverged from the daemon's"
    );
    assert_eq!(
        replayed.epoch, 2,
        "boot epoch 0, then one bump per recovery"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
