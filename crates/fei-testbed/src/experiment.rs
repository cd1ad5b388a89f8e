//! Measurement artifacts and campaign helpers.

use fei_core::calibration::GapObservation;
use fei_fl::TrainingHistory;
use fei_sim::SimDuration;

/// Energy attribution across the paper's steps, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// IoT data collection (Eq. 4).
    pub collection_j: f64,
    /// Idle/waiting draw of measured devices.
    pub waiting_j: f64,
    /// Global-model download (step 2).
    pub download_j: f64,
    /// Local training (step 3).
    pub training_j: f64,
    /// Model upload (step 4).
    pub upload_j: f64,
}

impl EnergyBreakdown {
    /// Total energy across all components.
    pub(crate) fn total_joules(&self) -> f64 {
        self.collection_j + self.waiting_j + self.download_j + self.training_j + self.upload_j
    }
}

/// Result of one `(K, E, T)` testbed experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentRun {
    /// Participants per round.
    pub k: usize,
    /// Local epochs per round.
    pub e: usize,
    /// Global rounds executed.
    pub rounds: usize,
    /// Measured energy attribution.
    pub breakdown: EnergyBreakdown,
    /// Wall-clock span of the experiment (sum of round spans).
    pub wall_clock: SimDuration,
}

impl ExperimentRun {
    /// Total measured energy, joules.
    pub fn total_joules(&self) -> f64 {
        self.breakdown.total_joules()
    }

    /// Mean power over the experiment, watts.
    pub fn mean_power_watts(&self) -> f64 {
        let secs = self.wall_clock.as_secs_f64();
        // fei-lint: allow(float-eq, reason = "zero-duration division guard: an empty experiment has exactly zero wall clock")
        if secs == 0.0 {
            0.0
        } else {
            self.total_joules() / secs
        }
    }
}

/// Extracts convergence-bound calibration observations from a training
/// history: one gap measurement per evaluated round, using `f_star` as the
/// estimate of the minimal loss `F(ω*)`.
///
/// Rounds with loss at or below `f_star` are skipped (they would produce
/// non-positive gaps that the Eq. 10 model cannot represent). `burn_in`
/// initial rounds are skipped too — the bound describes asymptotic
/// behaviour, and the first rounds of zero-initialized training are far from
/// its regime.
pub fn gap_observations(
    history: &TrainingHistory,
    epochs: usize,
    clients: usize,
    f_star: f64,
    burn_in: usize,
) -> Vec<GapObservation> {
    history
        .records()
        .iter()
        .filter(|r| r.round >= burn_in)
        .filter_map(|r| {
            let loss = r.global_train_loss?;
            let gap = loss - f_star;
            (gap > 0.0).then_some(GapObservation {
                rounds: r.round + 1,
                epochs,
                clients,
                gap,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use fei_fl::RoundRecord;
    use fei_ml::Evaluation;

    use super::*;

    fn record(round: usize, loss: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            selected: vec![0],
            responded: vec![0],
            local_stats: vec![],
            global_train_loss: loss,
            test_eval: loss.map(|l| Evaluation {
                loss: l,
                accuracy: 0.5,
            }),
            outcome: fei_fl::RoundOutcome::Full,
            faults: fei_fl::RoundFaultStats::default(),
        }
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = EnergyBreakdown {
            collection_j: 1.0,
            waiting_j: 2.0,
            download_j: 3.0,
            training_j: 4.0,
            upload_j: 5.0,
        };
        assert_eq!(b.total_joules(), 15.0);
        assert_eq!(EnergyBreakdown::default().total_joules(), 0.0);
    }

    #[test]
    fn mean_power_is_energy_over_time() {
        let run = ExperimentRun {
            k: 1,
            e: 1,
            rounds: 1,
            breakdown: EnergyBreakdown {
                training_j: 10.0,
                ..Default::default()
            },
            wall_clock: SimDuration::from_secs(2),
        };
        assert_eq!(run.mean_power_watts(), 5.0);
        let zero = ExperimentRun {
            wall_clock: SimDuration::ZERO,
            ..run
        };
        assert_eq!(zero.mean_power_watts(), 0.0);
    }

    #[test]
    fn gap_observations_skip_burn_in_and_nonpositive() {
        let mut history = TrainingHistory::new();
        history.push(record(0, Some(2.0)));
        history.push(record(1, Some(1.0)));
        history.push(record(2, Some(0.5)));
        history.push(record(3, None));
        history.push(record(4, Some(0.299))); // below f_star -> skipped
        let obs = gap_observations(&history, 5, 3, 0.3, 1);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].rounds, 2);
        assert!((obs[0].gap - 0.7).abs() < 1e-12);
        assert_eq!(obs[0].epochs, 5);
        assert_eq!(obs[0].clients, 3);
        assert_eq!(obs[1].rounds, 3);
    }

    #[test]
    fn gap_observations_empty_history() {
        let history = TrainingHistory::new();
        assert!(gap_observations(&history, 1, 1, 0.0, 0).is_empty());
    }
}
