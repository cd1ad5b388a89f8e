//! Wire-level chaos campaigns over the protocol cluster.
//!
//! A [`ChaosCampaign`] drives the fei-proto [`Cluster`] — coordinator,
//! participant fleet, and two lossy links — across a matrix of chaos
//! seeds, and audits the two protocol guarantees under fire:
//!
//! * **liveness** — every run closes its target number of rounds (each
//!   committed or aborted) inside the tick budget;
//! * **safety** — no commit ever aggregates an update from a client whose
//!   heartbeat lease had lapsed (probed by heartbeat-muted participants).
//!
//! The campaign also closes the energy loop with the rest of the
//! workspace: control-plane bytes are charged to an [`EnergyLedger`] under
//! [`EnergyUse::Control`] at WiFi link energy.

use fei_core::ledger::{EnergyLedger, EnergyUse};
use fei_net::link::Link;
use fei_proto::{
    ChaosConfig, Cluster, ClusterConfig, ClusterReport, CoordinatorConfig, CoordinatorCrash,
    ParticipantConfig,
};
use fei_sim::DetRng;

/// Stream id for deriving per-seed coordinator crash schedules.
const CRASH_STREAM: u64 = 0xC4A5;

/// One chaos campaign: a misbehaviour profile swept over a seed matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaignConfig {
    /// Coordinator protocol parameters shared by every run.
    pub coordinator: CoordinatorConfig,
    /// Honest (heartbeating) participants.
    pub fleet: u64,
    /// Heartbeat-muted participants probing the expiry safety invariant.
    pub muted: u64,
    /// Rounds each run must close.
    pub rounds_per_seed: u64,
    /// Tick budget per run.
    pub max_ticks: u64,
    /// Chaos probabilities applied to both links (per-run seeds are derived
    /// from the matrix below; this profile's own seed is ignored).
    pub profile: ChaosConfig,
    /// Coordinator crashes per run; each run's kill/restart schedule is
    /// derived purely from its seed, so replays stay bit-identical.
    pub coordinator_crashes: u64,
    /// Seed matrix; one cluster run per entry.
    pub seeds: Vec<u64>,
}

impl ChaosCampaignConfig {
    /// The default campaign: 5 honest + 1 muted participant, moderate
    /// four-way chaos, five rounds per seed.
    pub fn default_matrix(seeds: Vec<u64>) -> Self {
        Self {
            coordinator: CoordinatorConfig {
                k: 3,
                over_select: 1,
                quorum: 2,
                epochs: 5,
                heartbeat_interval: 5,
                heartbeat_timeout: 20,
                round_deadline: 40,
            },
            fleet: 5,
            muted: 1,
            rounds_per_seed: 5,
            max_ticks: 5_000,
            profile: ChaosConfig {
                drop_prob: 0.08,
                dup_prob: 0.08,
                reorder_prob: 0.08,
                corrupt_prob: 0.04,
                seed: 0,
            },
            coordinator_crashes: 0,
            seeds,
        }
    }

    /// The same campaign with `crashes` seeded coordinator kill/restart
    /// events per run.
    pub fn with_coordinator_crashes(mut self, crashes: u64) -> Self {
        self.coordinator_crashes = crashes;
        self
    }
}

/// One seed's run, audited.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// The seed that drove both links.
    pub seed: u64,
    /// The cluster's full report.
    pub report: ClusterReport,
    /// Joules charged for this run's control traffic.
    pub control_joules: f64,
}

/// Everything a chaos campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaignReport {
    /// Per-seed runs, in matrix order.
    pub runs: Vec<ChaosRun>,
    /// Control-plane energy, one [`EnergyUse::Control`] charge per run.
    pub ledger: EnergyLedger,
}

impl ChaosCampaignReport {
    /// Whether every run closed every targeted round in budget.
    pub fn liveness_ok(&self) -> bool {
        self.runs.iter().all(|r| r.report.liveness_ok())
    }

    /// Whether no run ever aggregated an expired client's update.
    pub fn safety_ok(&self) -> bool {
        self.runs.iter().all(|r| r.report.safety_ok())
    }

    /// Whether every coordinator crash recovered cleanly: no double
    /// aggregation across restarts, every pre-crash round settled in budget.
    pub fn recovery_ok(&self) -> bool {
        self.runs.iter().all(|r| r.report.recovery_ok())
    }

    /// Coordinator crashes executed across the whole matrix.
    pub fn total_crashes(&self) -> u64 {
        self.runs.iter().map(|r| r.report.coordinator_crashes).sum()
    }

    /// Rounds committed across the whole matrix.
    pub fn total_committed(&self) -> u64 {
        self.runs.iter().map(|r| r.report.committed).sum()
    }

    /// Rounds aborted across the whole matrix.
    pub fn total_aborted(&self) -> u64 {
        self.runs.iter().map(|r| r.report.aborted).sum()
    }
}

/// The campaign driver.
#[derive(Debug)]
pub struct ChaosCampaign {
    config: ChaosCampaignConfig,
}

impl ChaosCampaign {
    /// Creates a campaign.
    pub fn new(config: ChaosCampaignConfig) -> Self {
        Self { config }
    }

    /// Runs the whole seed matrix and reports.
    pub fn run(&self) -> ChaosCampaignReport {
        let uplink_energy = Link::wifi_uplink();
        let downlink_energy = Link::wifi_downlink();
        let mut runs = Vec::with_capacity(self.config.seeds.len());
        let mut ledger = EnergyLedger::new();
        for (index, &seed) in self.config.seeds.iter().enumerate() {
            let report = Cluster::new(self.cluster_config(seed)).run();

            // Control-plane energy at WiFi link rates, split by direction.
            let control_joules = uplink_energy
                .transfer_energy_joules(report.control_bytes_up as usize)
                + downlink_energy.transfer_energy_joules(report.control_bytes_down as usize);
            ledger.charge(index, EnergyUse::Control, control_joules, "control frames");

            // Uploads buffered into rounds a crash recovery abandoned:
            // radio energy the fleet spent for nothing, billed as waste so
            // the campaign's re-planning sees the true cost of a crash.
            if report.coordinator.wasted_update_bytes > 0 {
                let wasted_joules = uplink_energy
                    .transfer_energy_joules(report.coordinator.wasted_update_bytes as usize);
                ledger.charge(index, EnergyUse::Wasted, wasted_joules, "pre-crash uploads");
            }

            runs.push(ChaosRun {
                seed,
                report,
                control_joules,
            });
        }
        ChaosCampaignReport { runs, ledger }
    }

    fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let mut participants: Vec<ParticipantConfig> = (0..self.config.fleet)
            .map(|client| ParticipantConfig::new(client, 3))
            .collect();
        for client in self.config.fleet..self.config.fleet + self.config.muted {
            participants.push(ParticipantConfig {
                mute_heartbeats: true,
                ..ParticipantConfig::new(client, 3)
            });
        }
        ClusterConfig {
            coordinator: self.config.coordinator.clone(),
            participants,
            uplink: ChaosConfig {
                seed: seed.wrapping_mul(2).wrapping_add(1),
                ..self.config.profile
            },
            downlink: ChaosConfig {
                seed: seed.wrapping_mul(2).wrapping_add(2),
                ..self.config.profile
            },
            target_rounds: self.config.rounds_per_seed,
            max_ticks: self.config.max_ticks,
            global_payload: vec![0xEE; 64],
            crashes: self.crash_schedule(seed),
        }
    }

    /// Derives one run's coordinator kill/restart schedule purely from its
    /// seed: crashes land in the busy early window (so they hit open
    /// rounds) with outages short enough for leases to survive recovery.
    fn crash_schedule(&self, seed: u64) -> Vec<CoordinatorCrash> {
        let mut rng = DetRng::new(seed).fork(CRASH_STREAM);
        let window = self.config.max_ticks.clamp(1, 200);
        (0..self.config.coordinator_crashes)
            .map(|_| CoordinatorCrash {
                at_tick: 10 + rng.next_below(window),
                down_ticks: 2 + rng.next_below(10),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_live_and_safe_across_the_matrix() {
        let report = ChaosCampaign::new(ChaosCampaignConfig::default_matrix(vec![1, 2, 3])).run();
        assert!(report.liveness_ok(), "liveness failed: {report:?}");
        assert!(report.safety_ok(), "safety failed: {report:?}");
        assert_eq!(report.total_committed() + report.total_aborted(), 15);
        assert!(report.ledger.control_joules() > 0.0);
        assert_eq!(report.ledger.entries().len(), 3);
    }

    #[test]
    fn campaign_replays_bit_identically_per_seed() {
        let config = ChaosCampaignConfig::default_matrix(vec![7, 8]);
        let a = ChaosCampaign::new(config.clone()).run();
        let b = ChaosCampaign::new(config).run();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_campaign_recovers_and_bills_wasted_work() {
        let config = ChaosCampaignConfig::default_matrix(vec![1, 2, 3]).with_coordinator_crashes(2);
        let report = ChaosCampaign::new(config.clone()).run();
        assert!(report.liveness_ok(), "liveness failed: {report:?}");
        assert!(report.safety_ok(), "safety failed: {report:?}");
        assert!(report.recovery_ok(), "recovery failed: {report:?}");
        assert!(report.total_crashes() > 0, "no crash ever executed");
        // Crash schedules are pure in the seed: replays stay bit-identical.
        let again = ChaosCampaign::new(config).run();
        assert_eq!(report, again);
        // Any round abandoned by recovery had its pre-crash uploads billed
        // as wasted energy.
        let abandoned: u64 = report
            .runs
            .iter()
            .map(|r| r.report.coordinator.aborts.coordinator_crash)
            .sum();
        let wasted: u64 = report
            .runs
            .iter()
            .map(|r| r.report.coordinator.wasted_update_bytes)
            .sum();
        if wasted > 0 {
            assert!(report.ledger.wasted_joules() > 0.0, "{report:?}");
        }
        assert!(
            abandoned > 0 || wasted == 0,
            "wasted bytes without an abandoned round: {report:?}"
        );
    }
}
