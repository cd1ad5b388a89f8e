//! Fault-injected campaigns with energy attribution and live re-planning.
//!
//! The paper's measurements assume a cooperative fleet: every selected Pi
//! answers every round. [`FaultCampaign`] replays the same training under a
//! seeded [`FaultSpec`] and accounts for where the energy actually went:
//!
//! * **useful** joules — rounds that committed and moved the global model;
//! * **wasted** joules — abandoned rounds and devices that trained but never
//!   delivered (crash recovery, exhausted retries, deadline misses);
//! * **retransmit** joules — extra upload airtime burned re-sending lost or
//!   corrupted frames;
//! * **poisoned** joules — spend by compromised devices
//!   ([`FaultCampaign::with_adversary`]) and on honest updates the
//!   coordinator's screen rejected ([`FaultCampaign::with_defense`]).
//!
//! With a planner attached ([`FaultCampaign::with_replanning`]), the
//! coordinator reacts to permanent crashes: when the live fleet falls below
//! the current `K`, it re-runs ACS against the survivors and continues
//! training at the fresh `(K*, E*)` without restarting — the paper's
//! optimization loop made crash-aware.

use fei_core::ledger::{EnergyLedger, EnergyUse};
use fei_core::planner::EeFeiPlanner;
use fei_fl::{
    Adversary, AdversarySpec, DefenseConfig, FaultInjector, FaultSpec, FlError, RoundRecord,
    StopCondition, ToleranceConfig, TrainingHistory,
};
use fei_net::link::Link;

use crate::fl::FlExperiment;
use crate::testbed::Testbed;

/// One live re-planning decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanEvent {
    /// Round at which the re-plan was applied.
    pub round: usize,
    /// Devices still up when it triggered.
    pub surviving: usize,
    /// The fresh `K*`.
    pub k: usize,
    /// The fresh `E*`.
    pub e: usize,
}

/// Everything a fault campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignReport {
    /// Per-round training records (outcomes and fault stats included).
    pub history: TrainingHistory,
    /// Where the energy went.
    pub ledger: EnergyLedger,
    /// Re-planning decisions, in order.
    pub replans: Vec<ReplanEvent>,
    /// `(K, E)` in force when the campaign ended.
    pub final_k: usize,
    /// See `final_k`.
    pub final_e: usize,
    /// Terminal error, when the fleet fell below quorum and no re-plan could
    /// save the campaign.
    pub aborted: Option<FlError>,
}

impl FaultCampaignReport {
    /// Rounds until `target` test accuracy, if ever reached.
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.history.rounds_to_accuracy(target)
    }
}

/// A fault-injected FL campaign over the simulated prototype.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    experiment: FlExperiment,
    testbed: Testbed,
    spec: FaultSpec,
    tolerance: ToleranceConfig,
    planner: Option<EeFeiPlanner>,
    adversary: Option<AdversarySpec>,
    defense: Option<DefenseConfig>,
}

impl FaultCampaign {
    /// Builds a campaign from a prepared experiment, the energy testbed, a
    /// fault schedule, and the coordinator's tolerance settings.
    pub fn new(
        experiment: FlExperiment,
        testbed: Testbed,
        spec: FaultSpec,
        tolerance: ToleranceConfig,
    ) -> Self {
        Self {
            experiment,
            testbed,
            spec,
            tolerance,
            planner: None,
            adversary: None,
            defense: None,
        }
    }

    /// Attaches a planner for live re-planning: whenever the live fleet
    /// falls below the current `K`, ACS is re-run against the survivors and
    /// training continues at the fresh `(K*, E*)`. With an adversary also
    /// attached, re-planning prices in the expected screening loss via
    /// [`EeFeiPlanner::replan_for_fleet_under_attack`].
    pub fn with_replanning(mut self, planner: EeFeiPlanner) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Compromises a seeded fraction of the fleet: those devices run
    /// `spec.behavior` every round, and their spend is charged to the
    /// ledger's poisoned category.
    pub fn with_adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = Some(spec);
        self
    }

    /// Arms the coordinator's defense: every arriving update is screened
    /// and the survivors are combined with the configured robust rule.
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = Some(defense);
        self
    }

    /// Runs the campaign from `(k, e)` until `stop`, charging every joule to
    /// the ledger as it is spent.
    ///
    /// # Panics
    ///
    /// Panics on an invalid `(k, e)` for the experiment's fleet.
    pub fn run(&self, k: usize, e: usize, stop: StopCondition) -> FaultCampaignReport {
        let injector = FaultInjector::new(self.spec.clone());
        let mut engine = self.experiment.byzantine_engine(
            k,
            e,
            self.tolerance.clone(),
            Some(injector),
            self.adversary,
            self.defense,
        );
        let mut history = TrainingHistory::new();
        let mut ledger = EnergyLedger::new();
        let mut replans = Vec::new();
        let (mut k, mut e) = (k, e);
        let mut reached = false;
        let mut aborted = None;

        while history.len() < stop.max_rounds {
            if let Some(planner) = &self.planner {
                let alive = engine.live_fleet().len();
                if alive > 0 && alive < k {
                    // Under attack, the expected screening loss shrinks the
                    // effective fleet below the survivor count.
                    let replanned = match &self.adversary {
                        Some(spec) => planner.replan_for_fleet_under_attack(alive, spec.fraction),
                        None => planner.replan_for_fleet(alive),
                    };
                    if let Ok(plan) = replanned {
                        let new_k = plan.solution.k.clamp(1, alive);
                        let new_e = plan.solution.e.max(1);
                        if (new_k, new_e) != (k, e) {
                            engine.set_participation(new_k, new_e);
                            (k, e) = (new_k, new_e);
                            replans.push(ReplanEvent {
                                round: engine.rounds_completed(),
                                surviving: alive,
                                k,
                                e,
                            });
                        }
                    }
                }
            }
            match engine.try_run_round() {
                Ok(record) => {
                    self.charge_round(&mut ledger, &record, e, k, engine.adversary());
                    if let (Some(target), Some(eval)) = (stop.target_accuracy, &record.test_eval) {
                        reached = eval.accuracy >= target;
                    }
                    history.push(record);
                    if reached {
                        break;
                    }
                }
                Err(err) => {
                    aborted = Some(err);
                    break;
                }
            }
        }
        if let (Some(target), false) = (stop.target_accuracy, reached) {
            history.record_missed_target(target);
        }
        FaultCampaignReport {
            history,
            ledger,
            replans,
            final_k: k,
            final_e: e,
            aborted,
        }
    }

    /// `(download, training, upload)` joules of one selected device's round
    /// at the current `(E, K)`, from the testbed's calibrated plateaus.
    fn device_joules(&self, epochs: usize, k_concurrent: usize) -> (f64, f64, f64) {
        let profile = self.testbed.pi().profile();
        let samples = self.testbed.config().samples_per_device;
        let download = profile.downloading_w * self.testbed.download_duration().as_secs_f64();
        let training = profile.training_w
            * self
                .testbed
                .pi()
                .training_duration(epochs, samples)
                .as_secs_f64();
        let upload = profile.uploading_w * self.testbed.upload_duration(k_concurrent).as_secs_f64();
        (download, training, upload)
    }

    fn charge_round(
        &self,
        ledger: &mut EnergyLedger,
        record: &RoundRecord,
        epochs: usize,
        k_concurrent: usize,
        adversary: Option<&Adversary>,
    ) {
        let (download_j, training_j, upload_j) = self.device_joules(epochs, k_concurrent);
        let device_j = download_j + training_j + upload_j;

        // Split the responders three ways: compromised devices (their spend
        // served the attack), honest devices whose update the screen
        // rejected anyway (a false positive — spent, delivered, discarded),
        // and productive devices whose update reached aggregation.
        let responders = record.responded.len();
        let compromised = adversary
            .map(|adv| {
                record
                    .responded
                    .iter()
                    .filter(|&&device| adv.is_malicious(device))
                    .count()
            })
            .unwrap_or(0);
        let honest_screened = record
            .faults
            .screened_updates
            .saturating_sub(compromised)
            .min(responders - compromised);
        let productive = responders - compromised - honest_screened;

        // Productive spend: useful on a committed round, pure waste on an
        // abandoned one.
        let usage = if record.outcome.committed() {
            EnergyUse::Useful
        } else {
            EnergyUse::Wasted
        };
        if productive > 0 {
            ledger.charge(
                record.round,
                usage,
                productive as f64 * device_j,
                "device rounds",
            );
        }
        if compromised > 0 {
            ledger.charge(
                record.round,
                EnergyUse::Poisoned,
                compromised as f64 * device_j,
                "compromised device rounds",
            );
        }
        if honest_screened > 0 {
            ledger.charge(
                record.round,
                EnergyUse::Poisoned,
                honest_screened as f64 * device_j,
                "screened-out updates",
            );
        }

        // Selected devices that were up but never made the aggregate —
        // exhausted retries, deadline misses, over-selection surplus. They
        // trained and uploaded for nothing. Crashed devices spend nothing.
        let silent = record
            .selected
            .len()
            .saturating_sub(responders + record.faults.crashed);
        if silent > 0 {
            ledger.charge(
                record.round,
                EnergyUse::Wasted,
                silent as f64 * device_j,
                "undelivered updates",
            );
        }

        // Every retried upload attempt is extra airtime at upload power.
        if record.faults.upload_retries > 0 {
            ledger.charge(
                record.round,
                EnergyUse::Retransmit,
                record.faults.upload_retries as f64 * upload_j,
                "upload retries",
            );
        }

        // Coordinator-protocol control frames: selection notices and the
        // round verdict ride the downlink, heartbeats the uplink. The
        // byte counts mirror exactly what the engines charge to
        // `TransportStats::bytes_control`.
        let selected = record.selected.len();
        let heartbeats = selected.saturating_sub(record.faults.crashed);
        let close = if record.outcome.committed() {
            fei_proto::frames::commit_frame_len(record.responded.len())
        } else {
            fei_proto::frames::abort_frame_len()
        };
        let down_bytes = selected * (fei_proto::frames::select_frame_len(0) + close);
        let up_bytes = heartbeats * fei_proto::frames::heartbeat_frame_len();
        let control_j = Link::wifi_downlink().transfer_energy_joules(down_bytes)
            + Link::wifi_uplink().transfer_energy_joules(up_bytes);
        if control_j > 0.0 {
            ledger.charge(
                record.round,
                EnergyUse::Control,
                control_j,
                "control frames",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use fei_core::ConvergenceBound;
    use fei_data::SyntheticMnistConfig;
    use fei_fl::RoundOutcome;

    use crate::fl::FlExperimentConfig;
    use crate::testbed::TestbedConfig;
    use crate::RaspberryPi;

    use super::*;

    fn small_experiment() -> FlExperiment {
        FlExperiment::prepare(FlExperimentConfig {
            num_devices: 5,
            scale: 0.01,
            test_scale: 0.01,
            data: SyntheticMnistConfig {
                pixel_noise_std: 0.2,
                label_flip_prob: 0.0,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn small_testbed() -> Testbed {
        let config = TestbedConfig {
            num_devices: 5,
            ..Default::default()
        };
        Testbed::new(config, RaspberryPi::paper_calibrated())
    }

    fn planner(testbed: &Testbed) -> EeFeiPlanner {
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        EeFeiPlanner::new(testbed.energy_model(), bound, 0.1, 5).unwrap()
    }

    #[test]
    fn clean_campaign_matches_faultless_run_and_wastes_nothing() {
        let exp = small_experiment();
        let campaign = FaultCampaign::new(
            exp.clone(),
            small_testbed(),
            FaultSpec::default(),
            ToleranceConfig::default(),
        );
        let report = campaign.run(3, 2, StopCondition::rounds(4));
        assert_eq!(report.history.records(), exp.run_rounds(3, 2, 4).records());
        assert_eq!(report.ledger.wasted_joules(), 0.0);
        assert_eq!(report.ledger.retransmit_joules(), 0.0);
        assert_eq!(report.ledger.poisoned_joules(), 0.0);
        assert!(report.ledger.useful_joules() > 0.0);
        assert!(report.replans.is_empty());
        assert!(report.aborted.is_none());
    }

    #[test]
    fn campaigns_are_deterministic() {
        let spec = FaultSpec {
            crash_prob: 0.05,
            upload_loss_prob: 0.2,
            straggler_prob: 0.2,
            ..Default::default()
        };
        let make = || {
            FaultCampaign::new(
                small_experiment(),
                small_testbed(),
                spec.clone(),
                ToleranceConfig::default(),
            )
            .run(3, 2, StopCondition::rounds(6))
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn lossy_uplinks_charge_retransmit_energy() {
        let spec = FaultSpec {
            upload_loss_prob: 0.4,
            ..Default::default()
        };
        let campaign = FaultCampaign::new(
            small_experiment(),
            small_testbed(),
            spec,
            ToleranceConfig::default(),
        );
        let report = campaign.run(4, 2, StopCondition::rounds(8));
        assert!(
            report.ledger.retransmit_joules() > 0.0,
            "{:?}",
            report.ledger
        );
        let retries: usize = report
            .history
            .records()
            .iter()
            .map(|r| r.faults.upload_retries)
            .sum();
        assert!(retries > 0);
    }

    #[test]
    fn quorum_misses_waste_the_round() {
        // Lossy enough that some round misses a full-fleet quorum.
        let spec = FaultSpec {
            upload_loss_prob: 0.6,
            ..Default::default()
        };
        let tolerance = ToleranceConfig {
            quorum: Some(4),
            ..Default::default()
        };
        let campaign = FaultCampaign::new(small_experiment(), small_testbed(), spec, tolerance);
        let report = campaign.run(4, 1, StopCondition::rounds(10));
        let abandoned = report
            .history
            .records()
            .iter()
            .filter(|r| r.outcome == RoundOutcome::Abandoned)
            .count();
        assert!(abandoned > 0, "expected at least one abandoned round");
        assert!(report.ledger.wasted_joules() > 0.0);
    }

    #[test]
    fn permanent_crashes_trigger_replanning() {
        let spec = FaultSpec {
            crash_prob: 0.15,
            restart_rounds: 0, // permanent
            ..Default::default()
        };
        let testbed = small_testbed();
        let planner = planner(&testbed);
        let campaign = FaultCampaign::new(
            small_experiment(),
            testbed,
            spec,
            ToleranceConfig::default(),
        )
        .with_replanning(planner);
        let report = campaign.run(5, 2, StopCondition::rounds(20));
        assert!(
            !report.replans.is_empty(),
            "fleet attrition should force a re-plan"
        );
        assert!(report.final_k < 5, "K must shrink with the fleet");
        for event in &report.replans {
            assert!(event.k <= event.surviving);
        }
    }

    #[test]
    fn adversarial_campaign_charges_poisoned_energy() {
        use fei_fl::{DefenseConfig, RobustRule};
        let campaign = FaultCampaign::new(
            small_experiment(),
            small_testbed(),
            FaultSpec::default(),
            ToleranceConfig::default(),
        )
        .with_adversary(AdversarySpec::sign_flip(0.4))
        .with_defense(DefenseConfig::with_rule(RobustRule::CoordinateMedian {
            assumed_byzantine: 2,
        }));
        let report = campaign.run(5, 2, StopCondition::rounds(4));
        // ⌊0.4 · 5⌋ = 2 compromised devices respond every full-fleet round.
        assert!(report.ledger.poisoned_joules() > 0.0, "{:?}", report.ledger);
        // Poisoned spend counts toward overhead, never toward useful.
        assert!(report.ledger.overhead_fraction() > 0.0);
        assert!(report.ledger.useful_joules() > 0.0);
    }

    #[test]
    fn adversarial_campaigns_are_deterministic() {
        use fei_fl::{DefenseConfig, RobustRule};
        let make = || {
            FaultCampaign::new(
                small_experiment(),
                small_testbed(),
                FaultSpec {
                    upload_loss_prob: 0.2,
                    ..Default::default()
                },
                ToleranceConfig::default(),
            )
            .with_adversary(AdversarySpec::sign_flip(0.4))
            .with_defense(DefenseConfig::with_rule(RobustRule::MultiKrum {
                assumed_byzantine: 2,
            }))
            .run(4, 2, StopCondition::rounds(5))
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn replanning_under_attack_prices_in_the_attacker_fraction() {
        let spec = FaultSpec {
            crash_prob: 0.15,
            restart_rounds: 0, // permanent
            ..Default::default()
        };
        let testbed = small_testbed();
        let planner = planner(&testbed);
        let campaign = FaultCampaign::new(
            small_experiment(),
            testbed,
            spec,
            ToleranceConfig::default(),
        )
        .with_adversary(AdversarySpec::sign_flip(0.2))
        .with_replanning(planner);
        let report = campaign.run(5, 2, StopCondition::rounds(20));
        // Whenever attrition forces a re-plan, the fresh K* must fit the
        // honest core of the survivors, not the full survivor count.
        for event in &report.replans {
            let honest = (event.surviving as f64 * 0.8).floor() as usize;
            assert!(
                event.k <= honest.max(1),
                "K* = {} exceeds honest core {honest} of {} survivors",
                event.k,
                event.surviving
            );
        }
    }

    #[test]
    fn missed_target_is_recorded() {
        let campaign = FaultCampaign::new(
            small_experiment(),
            small_testbed(),
            FaultSpec::default(),
            ToleranceConfig::default(),
        );
        let report = campaign.run(3, 1, StopCondition::accuracy(0.999, 3));
        assert_eq!(report.history.missed_target(), Some(0.999));
        assert_eq!(report.rounds_to_accuracy(0.999), None);
    }
}
