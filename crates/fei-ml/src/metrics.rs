//! Model-quality metrics: accuracy and loss over a dataset.

use fei_data::Dataset;

use crate::scratch::GradScratch;
use crate::traits::Model;

/// Classification accuracy of `model` on `data`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `data` is empty or shapes mismatch.
///
/// # Example
///
/// ```
/// use fei_data::Dataset;
/// use fei_ml::{accuracy, LogisticRegression};
///
/// let data = Dataset::from_parts(1, vec![0.0, 1.0], vec![0, 1], 2);
/// let model = LogisticRegression::from_flat(1, 2, vec![-4.0, 4.0, 0.0, 0.0]);
/// assert_eq!(accuracy(&model, &data), 1.0);
/// ```
pub fn accuracy<M: Model>(model: &M, data: &Dataset) -> f64 {
    Evaluation::of(model, data).accuracy
}

/// A paired loss/accuracy measurement of a model on a dataset — one point of
/// the convergence curves in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Classification accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl Evaluation {
    /// Evaluates `model` on `data` ([`Model::evaluate_with`] against a
    /// throwaway workspace; callers in a loop hold a [`GradScratch`]).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or shapes mismatch.
    pub fn of<M: Model>(model: &M, data: &Dataset) -> Self {
        model.evaluate_with(data, &mut GradScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LogisticRegression;

    fn two_point_data() -> Dataset {
        Dataset::from_parts(1, vec![-1.0, 1.0], vec![0, 1], 2)
    }

    #[test]
    fn perfect_and_inverted_classifiers() {
        let data = two_point_data();
        // Class-1 weight positive: x=1 -> class 1.
        let good = LogisticRegression::from_flat(1, 2, vec![-3.0, 3.0, 0.0, 0.0]);
        assert_eq!(accuracy(&good, &data), 1.0);
        let bad = LogisticRegression::from_flat(1, 2, vec![3.0, -3.0, 0.0, 0.0]);
        assert_eq!(accuracy(&bad, &data), 0.0);
    }

    #[test]
    fn zero_model_accuracy_is_first_class_rate() {
        // Uniform probabilities -> argmax ties resolve to class 0.
        let data = two_point_data();
        let model = LogisticRegression::zeros(1, 2);
        assert_eq!(accuracy(&model, &data), 0.5);
    }

    #[test]
    fn evaluation_pairs_loss_and_accuracy() {
        let data = two_point_data();
        let model = LogisticRegression::zeros(1, 2);
        let eval = Evaluation::of(&model, &data);
        assert!((eval.loss - (2.0f64).ln()).abs() < 1e-12);
        assert_eq!(eval.accuracy, 0.5);
    }

    #[test]
    fn models_without_a_single_pass_are_evaluated_by_the_two_calls() {
        // The Mlp takes the trait's default: `loss`, then `predict` per
        // sample.
        let data = Dataset::from_parts(
            2,
            vec![0.0, 0.1, 0.9, 1.0, 0.2, 0.8, 1.0, 0.0, 0.4, 0.6],
            vec![0, 1, 1, 0, 1],
            2,
        );
        let mlp = crate::Mlp::new(2, 4, 2, 11);
        let correct = data.iter().filter(|(x, y)| mlp.predict(x) == *y).count();
        let eval = Evaluation::of(&mlp, &data);
        assert_eq!(eval.loss.to_bits(), mlp.loss(&data).to_bits());
        assert_eq!(eval.accuracy.to_bits(), (correct as f64 / 5.0).to_bits());
        assert_eq!(accuracy(&mlp, &data).to_bits(), eval.accuracy.to_bits());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn accuracy_rejects_empty() {
        let model = LogisticRegression::zeros(1, 2);
        let _ = accuracy(&model, &Dataset::empty(1, 2));
    }
}
