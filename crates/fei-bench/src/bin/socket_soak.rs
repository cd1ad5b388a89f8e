//! Socket soak: the real TCP transport, gated on the deterministic oracle.
//!
//! Repeatedly runs a coordinator + 3 participants over real localhost
//! sockets — the OS scheduler, kernel read boundaries, and TCP itself in
//! the loop — with the fsync'd frame trace (the write-ahead log) and the
//! journal file it keeps attached, and audits every run against the
//! oracles:
//!
//! * **replay parity** — replaying the run's frame trace, read back from
//!   disk, through the shared decision core must reproduce the live audit
//!   bit for bit (journal bytes, which fold to the committed model
//!   payloads; round verdicts; `ControlStats`);
//! * **disk parity** — the journal file must equal the decision
//!   journal, and the persisted trace must decode whole, with no torn
//!   tail;
//! * **restart continuity** — half the matrix stops the coordinator
//!   mid-campaign and restarts it against the same journal + trace: the
//!   second incarnation replays its own history, recovers, re-rendezvouses
//!   the fleet over fresh sockets, and the *combined* trace still replays
//!   bit-identically;
//! * **the clocks run** — the coordinator and every device tick at no less
//!   than half their nominal 1 000 /s over the campaign.
//!
//! Control traffic is billed at WiFi link energy so the soak reports what
//! real-socket coordination costs next to the simulated chaos soak.
//!
//! Run: `cargo run --release -p fei-bench --bin socket_soak`
//! CI smoke: append `-- --smoke` for a seconds-scale configuration.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fei_bench::{banner, fmt_joules, section};
use fei_core::ledger::{EnergyLedger, EnergyUse};
use fei_net::link::Link;
use fei_proto::node::{
    read_trace, replay_trace, CoordinatorAddr, CoordinatorNode, CoordinatorNodeConfig, NodeAudit,
    NodePersistence, ParticipantNode, ParticipantNodeConfig,
};
use fei_proto::{CoordinatorConfig, ParticipantConfig};

struct Soak {
    /// Campaigns per shape (single-incarnation and restart).
    runs: usize,
    /// Rounds per campaign (split across incarnations in restart runs).
    rounds: u64,
    /// Overall wall-clock budget for the whole soak.
    budget: Duration,
}

/// Rounds per campaign, in both configurations: long enough that the one
/// retransmit a campaign owes (its first round has no verdict latency to go
/// by, so the fast device's fixed first timeout fires behind the slow one)
/// is 1 in ~49 submissions, well under [`RETRANSMIT_RATIO_GATE`].
const ROUNDS: u64 = 16;

const FULL: Soak = Soak {
    runs: 4,
    rounds: ROUNDS,
    budget: Duration::from_secs(120),
};

/// Seconds-scale configuration for the CI smoke step.
const SMOKE: Soak = Soak {
    runs: 2,
    rounds: ROUNDS,
    budget: Duration::from_secs(60),
};

/// The largest share of its update submissions the median quiet loopback
/// campaign may spend on retransmits.
const RETRANSMIT_RATIO_GATE: f64 = 0.05;

/// The slowest any node's clock may run, in ticks per second of campaign
/// wall time. Every node here ticks each millisecond, and every protocol
/// timer (heartbeat, lease, deadline, training time) is counted in ticks: a
/// loop whose wait overshoots — a socket timeout rounded up to scheduler
/// jiffies turns 1 ms into ≈ 7 — slows the fleet without failing anything
/// else this soak checks. Half the nominal rate leaves room for a busy host.
const TICK_RATE_GATE: f64 = 500.0;

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

struct RunOutcome {
    shape: &'static str,
    audit: NodeAudit,
    /// Update submissions the fleet sent, retransmits included.
    submits: u64,
    /// Retransmits among them.
    retries: u64,
    /// The coordinator's cycles (all incarnations) per second of campaign.
    coordinator_ticks_per_s: f64,
    /// The slowest participant's cycles per second of its own run.
    fleet_min_ticks_per_s: f64,
    trace_events: usize,
    wall_ms: u128,
    replay_identical: bool,
    disk_identical: bool,
}

/// One campaign: coordinator (optionally split across two incarnations
/// sharing journal + trace) + 3 participant threads over localhost TCP.
fn run_campaign(dir: &Path, rounds: u64, restart: bool) -> RunOutcome {
    let journal = dir.join("soak.journal");
    let trace = dir.join("soak.trace");
    let port_file = dir.join("soak.port");
    let persist = NodePersistence {
        journal: Some(journal.clone()),
        trace: Some(trace.clone()),
        port_file: Some(port_file.clone()),
    };

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for client in 0..3u64 {
        let stop = Arc::clone(&stop);
        let port_file = port_file.clone();
        workers.push(std::thread::spawn(move || {
            let mut config =
                ParticipantNodeConfig::new(ParticipantConfig::new(client, 2 + 2 * client));
            config.max_cycles = 240_000;
            let started = Instant::now();
            let report = ParticipantNode::new(CoordinatorAddr::PortFile(port_file), config)
                .run(&stop)
                .expect("participant run");
            (report, started.elapsed())
        }));
    }

    let started = Instant::now();
    let mut report = {
        let mut config = CoordinatorNodeConfig::new(coordinator_config());
        config.target_rounds = if restart { rounds / 2 } else { rounds };
        config.max_cycles = 60_000;
        let node = CoordinatorNode::start("127.0.0.1:0", config, persist.clone())
            .expect("coordinator start");
        node.run().expect("coordinator run")
    };
    let mut coordinator_cycles = report.cycles;
    if restart {
        // Second incarnation: same journal + trace, fresh sockets. It
        // replays its own persisted history, records a Recover event, and
        // finishes the campaign.
        let mut config = CoordinatorNodeConfig::new(coordinator_config());
        config.target_rounds = rounds;
        config.max_cycles = 60_000;
        let node =
            CoordinatorNode::start("127.0.0.1:0", config, persist).expect("coordinator restart");
        report = node.run().expect("coordinator resumed run");
        coordinator_cycles += report.cycles;
    }
    let wall = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let (mut submits, mut retries, mut fleet_min_ticks_per_s) = (0, 0, f64::INFINITY);
    for worker in workers {
        let (device, ran) = worker.join().expect("participant thread");
        submits += device.stats.submits;
        retries += device.stats.retries;
        fleet_min_ticks_per_s = fleet_min_ticks_per_s.min(device.cycles as f64 / ran.as_secs_f64());
    }

    // Oracle gates.
    let (disk_trace, torn) = read_trace(&trace).expect("trace file");
    let replayed = replay_trace(&coordinator_config(), &[0xAB; 64], &disk_trace);
    let replay_identical = replayed == report.audit;
    let disk_journal = std::fs::read(&journal).expect("journal file");
    let disk_identical = disk_journal == report.audit.journal && torn == 0;

    RunOutcome {
        shape: if restart { "restart" } else { "single" },
        trace_events: disk_trace.len(),
        audit: report.audit,
        submits,
        retries,
        coordinator_ticks_per_s: coordinator_cycles as f64 / wall.as_secs_f64(),
        fleet_min_ticks_per_s,
        wall_ms: wall.as_millis(),
        replay_identical,
        disk_identical,
    }
}

fn temp_dir(run: usize, shape: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fei-socket-soak-{}-{shape}-{run}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create soak dir");
    dir
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let soak = if smoke { SMOKE } else { FULL };
    banner("Socket soak: real TCP transport vs the deterministic oracle");
    section(&format!(
        "{} single-incarnation + {} restart campaigns, {} rounds each, \
         3 participants over localhost TCP, trace fsync'd per transition",
        soak.runs, soak.runs, soak.rounds
    ));
    println!(
        "{:>3} {:>8} {:>7} {:>9} {:>7} {:>9} {:>9} {:>8} {:>8} {:>11} {:>7} {:>6}",
        "#",
        "shape",
        "rounds",
        "committed",
        "epochs",
        "frames",
        "re/submit",
        "trace ev",
        "wall ms",
        "ticks/s c|p",
        "replay",
        "disk"
    );

    let started = Instant::now();
    let uplink = Link::wifi_uplink();
    let downlink = Link::wifi_downlink();
    let mut ledger = EnergyLedger::new();
    let mut outcomes = Vec::new();
    let mut all_ok = true;
    for run in 0..soak.runs * 2 {
        let restart = run % 2 == 1;
        let dir = temp_dir(run, if restart { "restart" } else { "single" });
        let outcome = run_campaign(&dir, soak.rounds, restart);
        let _ = std::fs::remove_dir_all(&dir);
        let control_joules = uplink.transfer_energy_joules(outcome.audit.stats.bytes_in as usize)
            + downlink.transfer_energy_joules(outcome.audit.stats.bytes_out as usize);
        ledger.charge(
            run,
            EnergyUse::Control,
            control_joules,
            "socket control frames",
        );
        let slowest_clock = outcome
            .coordinator_ticks_per_s
            .min(outcome.fleet_min_ticks_per_s);
        let ok = outcome.replay_identical
            && outcome.disk_identical
            && slowest_clock >= TICK_RATE_GATE
            && outcome.audit.stats.committed_rounds >= soak.rounds.saturating_sub(1)
            && (!restart || outcome.audit.epoch >= 1);
        all_ok &= ok;
        println!(
            "{:>3} {:>8} {:>7} {:>9} {:>7} {:>9} {:>9} {:>8} {:>8} {:>11} {:>7} {:>6}",
            run,
            outcome.shape,
            outcome.audit.round_log.len(),
            outcome.audit.stats.committed_rounds,
            outcome.audit.epoch + 1,
            outcome.audit.stats.frames_in + outcome.audit.stats.frames_out,
            format!("{}/{}", outcome.retries, outcome.submits),
            outcome.trace_events,
            outcome.wall_ms,
            format!(
                "{:.0}|{:.0}",
                outcome.coordinator_ticks_per_s, outcome.fleet_min_ticks_per_s
            ),
            if outcome.replay_identical {
                "ok"
            } else {
                "FAIL"
            },
            if outcome.disk_identical { "ok" } else { "FAIL" },
        );
        outcomes.push(outcome);
    }
    let elapsed = started.elapsed();
    let within_budget = elapsed < soak.budget;
    all_ok &= within_budget;
    // Retransmit gate, on the quiet (single-incarnation) campaigns: nothing
    // is lost on loopback, so every retransmit there is a timer firing
    // before a verdict that was on its way. One per campaign is owed to the
    // first round, which has no verdict latency to go by yet. Gated on the
    // median campaign (the lower middle of an even count): a timer
    // regression re-sends in every campaign, while a scheduler or disk
    // stall on the host — three node clocks running on against a stalled
    // coordinator — fires the fleet's timers in the one campaign it hits.
    let mut quiet_ratios: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.shape == "single")
        .map(|o| o.retries as f64 / o.submits.max(1) as f64)
        .collect();
    quiet_ratios.sort_by(f64::total_cmp);
    let retransmit_ratio = quiet_ratios[(quiet_ratios.len() - 1) / 2];
    let retransmits_ok = retransmit_ratio <= RETRANSMIT_RATIO_GATE;
    all_ok &= retransmits_ok;

    section("machine-readable (JSON)");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"BENCH_socket_soak.v1\",\n  \"smoke\": {smoke},\n"
    ));
    json.push_str(&format!(
        "  \"campaigns\": {}, \"rounds_per_campaign\": {}, \"participants\": 3,\n",
        outcomes.len(),
        soak.rounds
    ));
    json.push_str(&format!(
        "  \"wall_ms\": {}, \"budget_ms\": {}, \"within_budget\": {within_budget},\n",
        elapsed.as_millis(),
        soak.budget.as_millis()
    ));
    json.push_str(&format!(
        "  \"control_joules\": {:.6},\n",
        ledger.control_joules()
    ));
    json.push_str(&format!(
        "  \"quiet_retransmit_ratio_median\": {retransmit_ratio:.4}, \
         \"retransmit_ratio_gate\": {RETRANSMIT_RATIO_GATE}, \
         \"retransmits_ok\": {retransmits_ok},\n"
    ));
    json.push_str(&format!("  \"tick_rate_gate\": {TICK_RATE_GATE},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 == outcomes.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"rounds_closed\": {}, \"committed\": {}, \
             \"aborted\": {}, \"incarnations\": {}, \"frames_in\": {}, \"frames_out\": {}, \
             \"bytes_in\": {}, \"bytes_out\": {}, \"submits\": {}, \"retries\": {}, \
             \"journal_bytes\": {}, \"trace_events\": {}, \"wall_ms\": {}, \
             \"coordinator_ticks_per_s\": {:.1}, \"fleet_min_ticks_per_s\": {:.1}, \
             \"replay_identical\": {}, \"disk_identical\": {}}}{comma}\n",
            o.shape,
            o.audit.round_log.len(),
            o.audit.stats.committed_rounds,
            o.audit.stats.aborted_rounds,
            o.audit.epoch + 1,
            o.audit.stats.frames_in,
            o.audit.stats.frames_out,
            o.audit.stats.bytes_in,
            o.audit.stats.bytes_out,
            o.submits,
            o.retries,
            o.audit.journal.len(),
            o.trace_events,
            o.wall_ms,
            o.coordinator_ticks_per_s,
            o.fleet_min_ticks_per_s,
            o.replay_identical,
            o.disk_identical,
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"all_ok\": {all_ok}\n"));
    json.push_str("}\n");
    print!("{json}");
    fei_bench::write_bench_report("socket_soak", smoke, &json)
        .expect("failed to write BENCH_socket_soak.json");

    println!(
        "\nreading: every campaign ran the real protocol over real localhost\n\
         TCP — kernel scheduling, partial reads, reconnects — and still had\n\
         to replay bit-identically from its own fsync'd frame trace, with the\n\
         journal file byte-equal to the decision journal. Restart campaigns\n\
         additionally stopped the coordinator mid-campaign and resumed it\n\
         from disk (trace replay + journal recovery) with the fleet\n\
         re-rendezvousing over fresh sockets. The control-energy figure is\n\
         the WiFi bill for the coordination traffic ({} total);\n\
         compare with the chaos soak's simulated fleets.",
        fmt_joules(ledger.control_joules())
    );

    assert!(
        retransmits_ok,
        "the median quiet loopback campaign retransmitted {retransmit_ratio:.3} of its update \
         submissions (gate {RETRANSMIT_RATIO_GATE})"
    );
    assert!(
        all_ok,
        "socket soak found a parity failure, a shortfall, a clock under {TICK_RATE_GATE} ticks/s, \
         or a blown budget"
    );
}
