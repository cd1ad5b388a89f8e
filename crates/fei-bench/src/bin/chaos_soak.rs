//! Chaos soak: protocol liveness and safety under wire-level misbehaviour.
//!
//! Soaks the fei-proto coordinator/participant cluster across a fixed seed
//! matrix and escalating chaos profiles — frames dropped, duplicated,
//! reordered, and bit-corrupted on both links — and asserts the protocol
//! guarantees hold on every run:
//!
//! * **liveness** — every targeted round closes (commit or abort) within
//!   the tick budget;
//! * **safety** — no commit ever carries an update from a client whose
//!   heartbeat lease had lapsed (a muted participant rides every fleet as
//!   the probe).
//!
//! With `--coordinator-crashes`, every run additionally schedules seeded
//! coordinator kill/restart events and the soak asserts the two recovery
//! invariants on top:
//!
//! * **recovery liveness** — every round open at a crash commits or aborts
//!   within the recovery budget (restart tick + round deadline);
//! * **recovery safety** — no client update is aggregated twice across a
//!   restart, and the whole (seed, crash schedule) replays bit-identically.
//!
//! Control-plane traffic is billed to an [`fei_core::ledger::EnergyLedger`]
//! at WiFi link energy, so the soak also reports what fleet coordination
//! itself costs; uploads stranded in crash-abandoned rounds are billed as
//! wasted energy.
//!
//! Run: `cargo run --release -p fei-bench --bin chaos_soak`
//! CI smoke: append `-- --smoke` for a seconds-scale configuration.

use fei_bench::{banner, fmt_joules, section};
use fei_proto::ChaosConfig;
use fei_testbed::{ChaosCampaign, ChaosCampaignConfig, ChaosCampaignReport};

struct Soak {
    seeds: &'static [u64],
    rounds_per_seed: u64,
}

const FULL: Soak = Soak {
    seeds: &[1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
    rounds_per_seed: 8,
};

/// Seconds-scale configuration for the CI smoke step.
const SMOKE: Soak = Soak {
    seeds: &[1, 2, 3],
    rounds_per_seed: 3,
};

/// Coordinator kill/restart events per run under `--coordinator-crashes`.
const CRASHES_PER_RUN: u64 = 2;

struct Profile {
    name: &'static str,
    drop: f64,
    dup: f64,
    reorder: f64,
    corrupt: f64,
}

const PROFILES: &[Profile] = &[
    Profile {
        name: "quiet",
        drop: 0.0,
        dup: 0.0,
        reorder: 0.0,
        corrupt: 0.0,
    },
    Profile {
        name: "lossy",
        drop: 0.10,
        dup: 0.02,
        reorder: 0.05,
        corrupt: 0.0,
    },
    Profile {
        name: "hostile",
        drop: 0.12,
        dup: 0.10,
        reorder: 0.12,
        corrupt: 0.06,
    },
];

/// One profile's audited results, kept for the JSON report.
struct ProfileResult {
    name: &'static str,
    report: ChaosCampaignReport,
    replay_identical: bool,
}

impl ProfileResult {
    fn rejected(&self) -> u64 {
        self.report
            .runs
            .iter()
            .map(|r| r.report.coordinator.rejected)
            .sum()
    }

    fn control_bytes(&self) -> u64 {
        self.report
            .runs
            .iter()
            .map(|r| r.report.control_bytes())
            .sum()
    }

    fn recovery_violations(&self) -> u64 {
        self.report
            .runs
            .iter()
            .map(|r| r.report.recovery_violations)
            .sum()
    }

    fn double_aggregations(&self) -> u64 {
        self.report
            .runs
            .iter()
            .map(|r| r.report.double_aggregations)
            .sum()
    }

    /// Re-admissions: sessions the fleet restarted on a `Rejoin` nudge.
    fn rejoins(&self) -> u64 {
        self.report
            .runs
            .iter()
            .flat_map(|r| &r.report.participants)
            .map(|p| p.sessions_rejoined)
            .sum()
    }

    fn aborts(&self) -> (u64, u64, u64, u64) {
        self.report
            .runs
            .iter()
            .fold((0, 0, 0, 0), |(q, f, c, x), r| {
                let a = r.report.coordinator.aborts;
                (
                    q + a.quorum_miss,
                    f + a.fleet_collapse,
                    c + a.cancelled,
                    x + a.coordinator_crash,
                )
            })
    }

    fn json_row(&self, last: bool) -> String {
        let (quorum_miss, fleet_collapse, cancelled, coordinator_crash) = self.aborts();
        let comma = if last { "" } else { "," };
        format!(
            "    {{\"profile\": \"{}\", \"committed\": {}, \"aborted\": {}, \
             \"aborts\": {{\"quorum_miss\": {quorum_miss}, \"fleet_collapse\": {fleet_collapse}, \
             \"cancelled\": {cancelled}, \"coordinator_crash\": {coordinator_crash}}}, \
             \"rejected\": {}, \"control_bytes\": {}, \"control_joules\": {:.6}, \
             \"wasted_joules\": {:.6}, \"crashes\": {}, \"rejoins\": {}, \"recovery_violations\": {}, \
             \"double_aggregations\": {}, \"liveness_ok\": {}, \"safety_ok\": {}, \
             \"recovery_ok\": {}, \"replay_identical\": {}}}{comma}\n",
            self.name,
            self.report.total_committed(),
            self.report.total_aborted(),
            self.rejected(),
            self.control_bytes(),
            self.report.ledger.control_joules(),
            self.report.ledger.wasted_joules(),
            self.report.total_crashes(),
            self.rejoins(),
            self.recovery_violations(),
            self.double_aggregations(),
            self.report.liveness_ok(),
            self.report.safety_ok(),
            self.report.recovery_ok(),
            self.replay_identical,
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let crashes = if args.iter().any(|a| a == "--coordinator-crashes") {
        CRASHES_PER_RUN
    } else {
        0
    };
    let soak = if smoke { SMOKE } else { FULL };
    banner("Chaos soak: coordinator protocol under wire-level misbehaviour");

    section(&format!(
        "{} seeds x {} rounds per seed, 5 honest + 1 heartbeat-muted participant, \
         {crashes} coordinator crashes per run",
        soak.seeds.len(),
        soak.rounds_per_seed
    ));
    println!(
        "{:>8} {:>10} {:>8} {:>9} {:>10} {:>12} {:>8} {:>8} {:>6} {:>8}",
        "profile",
        "committed",
        "aborted",
        "rejected",
        "ctrl bytes",
        "ctrl energy",
        "crashes",
        "liveness",
        "safety",
        "recovery"
    );

    let mut all_ok = true;
    let mut results: Vec<ProfileResult> = Vec::with_capacity(PROFILES.len());
    for profile in PROFILES {
        let mut config = ChaosCampaignConfig::default_matrix(soak.seeds.to_vec())
            .with_coordinator_crashes(crashes);
        config.rounds_per_seed = soak.rounds_per_seed;
        config.profile = ChaosConfig {
            drop_prob: profile.drop,
            dup_prob: profile.dup,
            reorder_prob: profile.reorder,
            corrupt_prob: profile.corrupt,
            seed: 0,
        };
        let report = ChaosCampaign::new(config.clone()).run();
        // Crash schedules are pure in the seed, so the same (seed, crash
        // schedule) matrix must replay bit-identically; without crashes the
        // cluster is already deterministic and the check is nearly free.
        let replay_identical = ChaosCampaign::new(config).run() == report;
        let liveness = report.liveness_ok();
        let safety = report.safety_ok();
        let recovery = report.recovery_ok();
        all_ok &= liveness && safety && recovery && replay_identical;
        let result = ProfileResult {
            name: profile.name,
            report,
            replay_identical,
        };
        println!(
            "{:>8} {:>10} {:>8} {:>9} {:>10} {:>12} {:>8} {:>8} {:>6} {:>8}",
            profile.name,
            result.report.total_committed(),
            result.report.total_aborted(),
            result.rejected(),
            result.control_bytes(),
            fmt_joules(result.report.ledger.control_joules()),
            result.report.total_crashes(),
            if liveness { "ok" } else { "FAIL" },
            if safety { "ok" } else { "FAIL" },
            if recovery && result.replay_identical {
                "ok"
            } else {
                "FAIL"
            },
        );
        results.push(result);
    }

    section("machine-readable (JSON)");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"BENCH_chaos_soak.v1\",\n  \"smoke\": {smoke},\n"
    ));
    json.push_str(&format!(
        "  \"seeds\": {}, \"rounds_per_seed\": {}, \"coordinator_crashes_per_run\": {crashes},\n",
        soak.seeds.len(),
        soak.rounds_per_seed
    ));
    json.push_str("  \"profiles\": [\n");
    for (i, result) in results.iter().enumerate() {
        json.push_str(&result.json_row(i + 1 == results.len()));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"all_ok\": {all_ok}\n"));
    json.push_str("}\n");
    print!("{json}");
    fei_bench::write_bench_report("chaos_soak", smoke, &json)
        .expect("failed to write BENCH_chaos_soak.json");

    println!(
        "\nreading: liveness means every round closed — commit or abort — inside\n\
         the tick budget even when the wire drops, duplicates, reorders, and\n\
         corrupts frames; safety means no expired client's update ever reached\n\
         an aggregate. With coordinator crashes enabled, recovery means every\n\
         round open at a kill settled within the recovery budget after the\n\
         journal-driven restart, no update was aggregated twice across a\n\
         restart, and each (seed, crash schedule) replayed bit-identically.\n\
         Aborts rise with hostility (quorum misses are the protocol degrading\n\
         gracefully, not hanging), and the control-energy column is the\n\
         coordination bill the paper's model ignores."
    );

    assert!(
        all_ok,
        "chaos soak found a liveness, safety, or recovery violation"
    );
}
