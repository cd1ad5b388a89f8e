//! Training histories: the raw material of Fig. 4's convergence curves.

use crate::fedavg::RoundRecord;

/// An ordered collection of [`RoundRecord`]s from one FedAvg run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    records: Vec<RoundRecord>,
    /// Accuracy target the run was asked to reach but did not before its
    /// round cap expired.
    missed_target: Option<f64>,
}

impl TrainingHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// All records, in round order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of rounds recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    /// Marks this run as having missed `target` accuracy within its round
    /// cap. Set by `run_until` when the stop condition's target was never
    /// reached.
    pub fn record_missed_target(&mut self, target: f64) {
        self.missed_target = Some(target);
    }

    /// The accuracy target this run failed to reach, if any. `None` means
    /// the run either had no target or reached it.
    pub fn missed_target(&self) -> Option<f64> {
        self.missed_target
    }

    /// Rounds that committed an aggregate (fully or partially).
    pub(crate) fn committed_rounds(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.committed())
            .count()
    }

    /// Rounds abandoned for missing quorum — training time and energy spent
    /// for no model progress.
    pub fn abandoned_rounds(&self) -> usize {
        self.records.len() - self.committed_rounds()
    }

    /// The first round (1-based count of rounds run) at which test accuracy
    /// reached `target`, or `None` if it never did. This is the paper's
    /// `T(target)` — the required number of global coordinations.
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.test_eval.is_some_and(|e| e.accuracy >= target))
            .map(|r| r.round + 1)
    }

    /// Test-accuracy curve as `(round, accuracy)` points (evaluation rounds
    /// only).
    pub fn accuracy_curve(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.test_eval.map(|e| (r.round, e.accuracy)))
            .collect()
    }

    /// Global-train-loss curve as `(round, loss)` points (evaluation rounds
    /// only).
    pub fn loss_curve(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.global_train_loss.map(|l| (r.round, l)))
            .collect()
    }

    /// Total local epochs executed across all servers and rounds
    /// (`≈ E · K · T`, the paper's total-gradient-rounds accounting).
    pub fn total_local_epochs(&self) -> usize {
        self.records
            .iter()
            .flat_map(|r| &r.local_stats)
            .map(|s| s.epochs_run)
            .sum()
    }

    /// Whether the global-train-loss curve is non-increasing within
    /// `tolerance` — the monotone-improvement assumption of the paper's
    /// Proposition 2.
    pub fn is_loss_monotone(&self, tolerance: f64) -> bool {
        self.loss_curve()
            .windows(2)
            .all(|w| w[1].1 <= w[0].1 + tolerance)
    }

    /// Mean global train loss over evaluated rounds — `F(ω̄_T)`'s empirical
    /// counterpart. Proposition 2: under monotone improvement this average
    /// dominates the final loss, so a bound on the average bounds the final
    /// model too. Returns `None` without evaluations.
    pub fn mean_loss(&self) -> Option<f64> {
        let curve = self.loss_curve();
        if curve.is_empty() {
            return None;
        }
        Some(curve.iter().map(|&(_, l)| l).sum::<f64>() / curve.len() as f64)
    }

    /// Final global train loss, if evaluated.
    pub fn final_loss(&self) -> Option<f64> {
        self.loss_curve().last().map(|&(_, l)| l)
    }
}

impl FromIterator<RoundRecord> for TrainingHistory {
    fn from_iter<I: IntoIterator<Item = RoundRecord>>(iter: I) -> Self {
        Self {
            records: iter.into_iter().collect(),
            missed_target: None,
        }
    }
}

impl Extend<RoundRecord> for TrainingHistory {
    fn extend<I: IntoIterator<Item = RoundRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use fei_ml::Evaluation;

    use super::*;

    fn record(round: usize, acc: Option<f64>, loss: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            selected: vec![0],
            responded: vec![0],
            local_stats: vec![fei_ml::TrainStats {
                epochs_run: 2,
                gradient_steps: 2,
                initial_loss: 1.0,
                samples: 10,
            }],
            global_train_loss: loss,
            test_eval: acc.map(|a| Evaluation {
                loss: loss.unwrap_or(1.0),
                accuracy: a,
            }),
            outcome: crate::fedavg::RoundOutcome::Full,
            faults: crate::fedavg::RoundFaultStats::default(),
        }
    }

    #[test]
    fn rounds_to_accuracy_finds_first_crossing() {
        let h: TrainingHistory = vec![
            record(0, Some(0.5), Some(1.0)),
            record(1, Some(0.85), Some(0.6)),
            record(2, Some(0.91), Some(0.4)),
            record(3, Some(0.89), Some(0.45)),
        ]
        .into_iter()
        .collect();
        assert_eq!(h.rounds_to_accuracy(0.9), Some(3));
        assert_eq!(h.rounds_to_accuracy(0.5), Some(1));
        assert_eq!(h.rounds_to_accuracy(0.99), None);
    }

    #[test]
    fn curves_skip_unevaluated_rounds() {
        let h: TrainingHistory = vec![
            record(0, None, None),
            record(1, Some(0.7), Some(0.8)),
            record(2, None, None),
            record(3, Some(0.8), Some(0.6)),
        ]
        .into_iter()
        .collect();
        assert_eq!(h.accuracy_curve(), vec![(1, 0.7), (3, 0.8)]);
        assert_eq!(h.loss_curve(), vec![(1, 0.8), (3, 0.6)]);
    }

    #[test]
    fn epoch_accounting() {
        let h: TrainingHistory = vec![record(0, None, None), record(1, None, None)]
            .into_iter()
            .collect();
        assert_eq!(h.total_local_epochs(), 4);
    }

    #[test]
    fn proposition2_mean_dominates_final_on_monotone_history() {
        let h: TrainingHistory = vec![
            record(0, None, Some(2.0)),
            record(1, None, Some(1.5)),
            record(2, None, Some(1.0)),
        ]
        .into_iter()
        .collect();
        assert!(h.is_loss_monotone(0.0));
        let mean = h.mean_loss().unwrap();
        let last = h.final_loss().unwrap();
        assert!(mean >= last, "Proposition 2: {mean} >= {last}");
        assert!((mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn monotonicity_respects_tolerance() {
        let h: TrainingHistory = vec![record(0, None, Some(1.0)), record(1, None, Some(1.05))]
            .into_iter()
            .collect();
        assert!(!h.is_loss_monotone(0.0));
        assert!(h.is_loss_monotone(0.1));
    }

    #[test]
    fn loss_helpers_on_unevaluated_history() {
        let h: TrainingHistory = vec![record(0, None, None)].into_iter().collect();
        assert!(h.mean_loss().is_none());
        assert!(h.final_loss().is_none());
        assert!(h.is_loss_monotone(0.0));
    }

    #[test]
    fn empty_history_behaviour() {
        let h = TrainingHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert!(h.last().is_none());
        assert_eq!(h.rounds_to_accuracy(0.1), None);
        assert!(h.accuracy_curve().is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut h = TrainingHistory::new();
        h.extend(vec![record(0, None, None)]);
        h.push(record(1, None, None));
        assert_eq!(h.len(), 2);
        assert_eq!(h.last().unwrap().round, 1);
    }
}
