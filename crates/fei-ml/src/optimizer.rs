//! SGD configuration matching the paper's Table II.

use serde::{Deserialize, Serialize};

/// How the trainer computes each batch gradient.
///
/// All three variants compute the same mathematical gradient; they differ in
/// arithmetic order (and therefore in the low bits) and in speed. The fused
/// variants share one arithmetic definition — fixed
/// `crate::model::GRAD_CHUNK`-sample chunks combined by a fixed pairwise
/// tree — so [`GradReduction::FusedSerial`] and
/// [`GradReduction::FusedParallel`] are bit-identical for every thread
/// count. See DESIGN.md §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GradReduction {
    /// The pre-fast-path reference kernel: per-sample logit allocation and a
    /// single serial accumulator. Kept as the baseline the perf harness
    /// measures `speedup_vs_naive` against.
    Naive,
    /// Fused single-pass kernel (logits → softmax → accumulate, no per-sample
    /// allocation) over fixed chunks, reduced by a fixed pairwise tree into a
    /// reused scratch workspace. The default.
    #[default]
    FusedSerial,
    /// Same arithmetic as [`GradReduction::FusedSerial`] with chunk bands
    /// computed on a persistent [`crate::WorkerPool`] — bit-identical by
    /// construction for every pool size.
    FusedParallel {
        /// Pool size the engines build; `0` and `1` run on the calling
        /// thread.
        threads: usize,
    },
}

/// Stochastic-gradient-descent hyper-parameters.
///
/// The paper trains with learning rate 0.01, a fixed multiplicative decay of
/// 0.99 applied per *global* round, and full-batch gradients
/// (`batch_size = None`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Initial learning rate `γ`.
    pub learning_rate: f64,
    /// Multiplicative decay applied once per global coordination round.
    pub decay_per_round: f64,
    /// Mini-batch size; `None` uses the full local dataset each step, as in
    /// the paper's prototype.
    pub batch_size: Option<usize>,
    /// L2 weight-decay coefficient applied to the weights (not biases) at
    /// every step; `0.0` (the paper's setting) disables it.
    pub weight_decay: f64,
    /// Which gradient kernel the trainer dispatches to.
    pub grad: GradReduction,
}

impl SgdConfig {
    /// The paper's configuration: lr 0.01, decay 0.99, full batch, no
    /// weight decay.
    pub fn paper_default() -> Self {
        Self {
            learning_rate: 0.01,
            decay_per_round: 0.99,
            batch_size: None,
            weight_decay: 0.0,
            grad: GradReduction::default(),
        }
    }

    /// Creates a config with explicit values.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0`, `decay_per_round` is outside `(0, 1]`,
    /// or `batch_size == Some(0)`.
    pub fn new(learning_rate: f64, decay_per_round: f64, batch_size: Option<usize>) -> Self {
        let config = Self {
            learning_rate,
            decay_per_round,
            batch_size,
            ..Self::paper_default()
        };
        config.validate();
        config
    }

    /// The first rule the configuration breaks, if any. The fields are
    /// public, so every engine checks the config it is given through this.
    pub fn violation(&self) -> Option<&'static str> {
        let (decay, weight_decay) = (self.decay_per_round, self.weight_decay);
        [
            (self.learning_rate > 0.0, "learning rate must be positive"),
            (decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]"),
            (self.batch_size != Some(0), "batch size must be non-zero"),
            (
                weight_decay.is_finite() && weight_decay >= 0.0,
                "weight decay must be finite and non-negative",
            ),
        ]
        .into_iter()
        .find_map(|(holds, message)| (!holds).then_some(message))
    }

    /// Panics with [`SgdConfig::violation`]'s message, if there is one.
    pub fn validate(&self) {
        let broken = self.violation();
        assert!(broken.is_none(), "{}", broken.unwrap_or_default());
    }

    /// Returns a copy dispatching to the given gradient kernel.
    pub fn with_grad_reduction(mut self, grad: GradReduction) -> Self {
        self.grad = grad;
        self
    }

    /// Learning rate in effect during global round `round` (0-based):
    /// `lr · decay^round`.
    pub fn lr_for_round(&self, round: usize) -> f64 {
        self.learning_rate * self.decay_per_round.powi(round as i32)
    }

    /// Gradient steps that `epochs` local epochs over `samples` samples
    /// take: one per epoch full-batch, one per (possibly short) batch
    /// otherwise. The trainer reports this count, and a coordinator that
    /// only sees `(epochs, samples)` on the wire derives the same one.
    pub fn gradient_steps(&self, epochs: usize, samples: usize) -> usize {
        epochs * self.batch_size.map_or(1, |batch| samples.div_ceil(batch))
    }
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SgdConfig::paper_default();
        assert_eq!(c.learning_rate, 0.01);
        assert_eq!(c.decay_per_round, 0.99);
        assert_eq!(c.batch_size, None);
        assert_eq!(c.grad, GradReduction::FusedSerial);
        assert_eq!(SgdConfig::default(), c);
    }

    #[test]
    fn grad_reduction_builder() {
        let c = SgdConfig::paper_default()
            .with_grad_reduction(GradReduction::FusedParallel { threads: 4 });
        assert_eq!(c.grad, GradReduction::FusedParallel { threads: 4 });
        assert_eq!(SgdConfig::paper_default().grad, GradReduction::FusedSerial);
    }

    #[test]
    #[should_panic(expected = "weight decay")]
    fn rejects_negative_weight_decay() {
        SgdConfig {
            weight_decay: -1.0,
            ..SgdConfig::paper_default()
        }
        .validate();
    }

    #[test]
    fn decay_schedule() {
        let c = SgdConfig::paper_default();
        assert_eq!(c.lr_for_round(0), 0.01);
        assert!((c.lr_for_round(1) - 0.0099).abs() < 1e-12);
        assert!((c.lr_for_round(100) - 0.01 * 0.99f64.powi(100)).abs() < 1e-15);
    }

    #[test]
    fn decay_of_one_is_constant() {
        let c = SgdConfig::new(0.1, 1.0, Some(32));
        assert_eq!(c.lr_for_round(50), 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_lr() {
        let _ = SgdConfig::new(0.0, 0.99, None);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn rejects_bad_decay() {
        let _ = SgdConfig::new(0.01, 1.5, None);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn rejects_zero_batch() {
        let _ = SgdConfig::new(0.01, 0.99, Some(0));
    }

    #[test]
    fn violation_checks_configs_built_field_by_field() {
        let paper = SgdConfig::paper_default();
        assert_eq!(paper.violation(), None);
        let zero_batch = SgdConfig {
            batch_size: Some(0),
            ..paper.clone()
        };
        assert_eq!(zero_batch.violation(), Some("batch size must be non-zero"));
        let nan_lr = SgdConfig {
            learning_rate: f64::NAN,
            ..paper
        };
        assert_eq!(nan_lr.violation(), Some("learning rate must be positive"));
    }
}
