//! The [`Model`] abstraction: anything FedAvg can train.
//!
//! The paper evaluates multinomial logistic regression, but its framework is
//! model-agnostic — FedAvg only needs flat parameters to average and a
//! gradient oracle to descend. This trait captures exactly that surface, so
//! the runtime in `fei-fl` trains [`crate::LogisticRegression`] and
//! [`crate::Mlp`] (and any future model) through one code path.

use fei_data::Dataset;

use crate::metrics::Evaluation;
use crate::scratch::GradScratch;

/// A trainable classification model with flat-vector parameters.
///
/// The flat representation is the unit of FedAvg aggregation (Eq. 2) and of
/// network transfer, so implementations must keep it stable: `set_flat(
/// to_flat() )` is the identity, and two models of the same architecture
/// have equal [`Model::num_params`].
pub trait Model: Clone + Send + 'static {
    /// Input feature dimension.
    fn dim(&self) -> usize;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Total number of parameters.
    fn num_params(&self) -> usize;

    /// Borrows the flat parameter vector.
    fn to_flat(&self) -> &[f64];

    /// Replaces the parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    fn set_flat(&mut self, flat: &[f64]);

    /// Most likely class for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn predict(&self, x: &[f64]) -> usize;

    /// Mean loss over a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or shapes mismatch.
    fn loss(&self, data: &Dataset) -> f64;

    /// Mean loss and flat gradient over the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds, or shapes mismatch.
    fn loss_and_gradient(&self, data: &Dataset, indices: &[usize]) -> (f64, Vec<f64>);

    /// Applies `params -= step * gradient`.
    ///
    /// # Panics
    ///
    /// Panics on gradient length mismatch.
    fn apply_gradient(&mut self, gradient: &[f64], step: f64);

    /// Applies L2 weight decay to the weight parameters (implementations
    /// decide which parameters count as weights vs biases).
    fn apply_weight_decay(&mut self, step: f64, decay: f64);

    /// Mean loss over the given sample indices with the gradient written
    /// into a reused workspace (`scratch.grad()` afterwards).
    ///
    /// Models with a fused kernel override this to run allocation-free on
    /// the calling thread. The default falls back to
    /// [`Model::loss_and_gradient`] and stores the allocated gradient
    /// (counted by the scratch's allocation counter, which is how the perf
    /// harness tells fused from fallback paths).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds, or shapes mismatch.
    fn loss_and_gradient_into(
        &self,
        data: &Dataset,
        indices: &[usize],
        scratch: &mut GradScratch,
    ) -> f64 {
        let (loss, grad) = self.loss_and_gradient(data, indices);
        scratch.store_allocated_grad(grad);
        loss
    }

    /// Mean loss over a dataset against a reused workspace. Must be
    /// **bit-identical** to [`Model::loss`]; implementations override it
    /// only to avoid per-sample allocations on the fast path. The default
    /// simply delegates.
    fn loss_with(&self, data: &Dataset, _scratch: &mut GradScratch) -> f64 {
        self.loss(data)
    }

    /// Loss and accuracy over a dataset against a reused workspace — what
    /// [`Evaluation::of`] and [`crate::accuracy`] measure. The loss must be
    /// bit-identical to [`Model::loss`] and the accuracy must count the
    /// samples [`Model::predict`] gets right. The default makes those two
    /// passes; a model that can score a sample from the logits it already
    /// has (the logistic regression) overrides it with a single pass.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or shapes mismatch.
    fn evaluate_with(&self, data: &Dataset, scratch: &mut GradScratch) -> Evaluation {
        let loss = self.loss_with(data, scratch);
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        Evaluation {
            loss,
            accuracy: correct as f64 / data.len() as f64,
        }
    }

    /// Gradient step fused with weight decay: equivalent to
    /// [`Model::apply_gradient`] followed by [`Model::apply_weight_decay`]
    /// when `decay > 0`, and to the plain step when `decay == 0`.
    /// Implementations may override with a single-pass kernel.
    fn apply_gradient_decayed(&mut self, gradient: &[f64], step: f64, decay: f64) {
        self.apply_gradient(gradient, step);
        if decay > 0.0 {
            self.apply_weight_decay(step, decay);
        }
    }

    /// Size in bytes of the flat `f64` parameter block — the model-upload
    /// payload of the paper's step (3).
    fn payload_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogisticRegression;

    // Generic helpers compile against the trait — the real test is that the
    // trait surface is sufficient for a FedAvg-style loop.
    fn one_sgd_step<M: Model>(model: &mut M, data: &Dataset, lr: f64) -> f64 {
        let all: Vec<usize> = (0..data.len()).collect();
        let (loss, grad) = model.loss_and_gradient(data, &all);
        model.apply_gradient(&grad, lr);
        loss
    }

    #[test]
    fn logistic_regression_satisfies_the_trait() {
        let data = Dataset::from_parts(2, vec![0.0, 0.0, 1.0, 1.0], vec![0, 1], 2);
        let mut model = LogisticRegression::zeros(2, 2);
        let before = one_sgd_step(&mut model, &data, 0.5);
        let after = Model::loss(&model, &data);
        assert!(after < before);
        assert_eq!(Model::num_params(&model), 6);
        assert_eq!(Model::payload_bytes(&model), 48);
    }

    #[test]
    fn flat_round_trip_through_the_trait() {
        let mut a = LogisticRegression::zeros(2, 2);
        let mut b = LogisticRegression::zeros(2, 2);
        Model::set_flat(&mut a, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        Model::set_flat(&mut b, Model::to_flat(&a));
        assert_eq!(a, b);
    }
}
