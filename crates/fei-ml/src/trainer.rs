//! Local training: `E` epochs of SGD on one edge server's dataset.

use std::sync::Arc;

use fei_data::Dataset;
use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

use crate::optimizer::{GradReduction, SgdConfig};
use crate::pool::WorkerPool;
use crate::scratch::GradScratch;
use crate::traits::Model;

/// Statistics from one local-training invocation (one edge server, one global
/// round).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// Number of local epochs executed (`E`).
    pub epochs_run: usize,
    /// Number of gradient steps taken (epochs × batches-per-epoch).
    pub gradient_steps: usize,
    /// Training loss measured before the first step.
    pub initial_loss: f64,
    /// Training loss measured after the last step.
    pub final_loss: f64,
    /// Number of samples in the local dataset (`n_k`).
    pub samples: usize,
}

/// Runs local SGD epochs with a fixed configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalTrainer {
    config: SgdConfig,
}

impl LocalTrainer {
    /// Creates a trainer with the given SGD configuration.
    pub fn new(config: SgdConfig) -> Self {
        Self { config }
    }

    /// The trainer's SGD configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Trains `model` in place for `epochs` epochs on `data`, using the
    /// learning rate scheduled for global round `round`.
    ///
    /// Convenience wrapper over [`LocalTrainer::train_with`] that allocates a
    /// throwaway workspace. Callers in a loop (the federated engines) should
    /// hold a [`GradScratch`] and call `train_with` so the workspace — and
    /// its zero-allocations-per-epoch steady state — survives across rounds.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or shapes mismatch.
    pub fn train<M: Model>(
        &self,
        model: &mut M,
        data: &Dataset,
        epochs: usize,
        round: usize,
    ) -> TrainStats {
        let mut scratch = GradScratch::new();
        self.train_with(model, data, epochs, round, &mut scratch)
    }

    /// [`LocalTrainer::train`] with an explicit reusable workspace.
    ///
    /// Full-batch mode (the paper's setting) performs one gradient step per
    /// epoch over the whole dataset; mini-batch mode shuffles deterministic
    /// batches via an internal generator seeded from `(round, data length)`.
    /// The gradient kernel is selected by [`SgdConfig::grad`]; the fused
    /// variants run against `scratch` without per-epoch heap allocations.
    /// Without a pool, [`GradReduction::FusedParallel`] runs the same chunked
    /// kernel as [`GradReduction::FusedSerial`] on the calling thread
    /// (see DESIGN.md §10).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or shapes mismatch.
    pub fn train_with<M: Model>(
        &self,
        model: &mut M,
        data: &Dataset,
        epochs: usize,
        round: usize,
        scratch: &mut GradScratch,
    ) -> TrainStats {
        self.run(model, data, None, epochs, round, scratch)
    }

    /// [`LocalTrainer::train_with`] with [`GradReduction::FusedParallel`]
    /// gradient steps executed on a persistent [`WorkerPool`]. Bit-identical
    /// to `train_with` for every pool size: the pooled kernel deals the same
    /// fixed chunks to workers and combines them by the same pairwise tree.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or shapes mismatch.
    pub fn train_with_pool<M: Model>(
        &self,
        model: &mut M,
        data: &Arc<Dataset>,
        epochs: usize,
        round: usize,
        scratch: &mut GradScratch,
        pool: &WorkerPool,
    ) -> TrainStats {
        self.run(model, data, Some((data, pool)), epochs, round, scratch)
    }

    /// The one epoch / mini-batch loop behind every `train*` entry point.
    /// `pooled` carries the shared dataset handle and pool for the parallel
    /// reduction; `None` keeps every step on the calling thread.
    fn run<M: Model>(
        &self,
        model: &mut M,
        data: &Dataset,
        pooled: Option<(&Arc<Dataset>, &WorkerPool)>,
        epochs: usize,
        round: usize,
        scratch: &mut GradScratch,
    ) -> TrainStats {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let lr = self.config.lr_for_round(round);
        let initial_loss = self.eval_loss(model, data, scratch);
        let mut order: Vec<usize> = (0..data.len()).collect();

        match self.config.batch_size {
            None => {
                for _ in 0..epochs {
                    self.step(model, data, pooled, &order, lr, scratch);
                }
            }
            Some(batch) => {
                let mut rng = DetRng::new(0xBA7C_0000 ^ round as u64).fork(data.len() as u64);
                for _ in 0..epochs {
                    rng.shuffle(&mut order);
                    for chunk in order.chunks(batch) {
                        self.step(model, data, pooled, chunk, lr, scratch);
                    }
                }
            }
        }

        TrainStats {
            epochs_run: epochs,
            gradient_steps: self.config.gradient_steps(epochs, data.len()),
            initial_loss,
            final_loss: self.eval_loss(model, data, scratch),
            samples: data.len(),
        }
    }

    /// The before/after loss measurement for [`TrainStats`]: the naive
    /// reduction keeps the historical allocating pass, the fused reductions
    /// use the buffer-reusing (bit-identical) one.
    fn eval_loss<M: Model>(&self, model: &M, data: &Dataset, scratch: &mut GradScratch) -> f64 {
        match self.config.grad {
            GradReduction::Naive => model.loss(data),
            GradReduction::FusedSerial | GradReduction::FusedParallel { .. } => {
                model.loss_with(data, scratch)
            }
        }
    }

    /// One gradient step on `batch`, dispatched by [`SgdConfig::grad`].
    fn step<M: Model>(
        &self,
        model: &mut M,
        data: &Dataset,
        pooled: Option<(&Arc<Dataset>, &WorkerPool)>,
        batch: &[usize],
        lr: f64,
        scratch: &mut GradScratch,
    ) {
        match (self.config.grad, pooled) {
            // The reference path reproduces the pre-fast-path arithmetic
            // exactly: allocating kernel, separate step and decay passes.
            (GradReduction::Naive, _) => {
                let (_, grad) = model.loss_and_gradient(data, batch);
                model.apply_gradient(&grad, lr);
                if self.config.weight_decay > 0.0 {
                    model.apply_weight_decay(lr, self.config.weight_decay);
                }
            }
            (GradReduction::FusedParallel { .. }, Some((shared, pool))) => {
                model.loss_and_gradient_pooled(shared, batch, scratch, pool);
                model.apply_gradient_decayed(scratch.grad(), lr, self.config.weight_decay);
            }
            (GradReduction::FusedSerial | GradReduction::FusedParallel { .. }, _) => {
                model.loss_and_gradient_into(data, batch, scratch);
                model.apply_gradient_decayed(scratch.grad(), lr, self.config.weight_decay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fei_data::{SyntheticMnist, SyntheticMnistConfig};

    use super::*;
    use crate::model::LogisticRegression;

    fn clean_data(n: usize) -> Dataset {
        SyntheticMnist::new(SyntheticMnistConfig {
            label_flip_prob: 0.0,
            pixel_noise_std: 0.15,
            ..Default::default()
        })
        .generate(n, 0)
    }

    #[test]
    fn full_batch_one_step_per_epoch() {
        let data = clean_data(40);
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        let stats = LocalTrainer::new(SgdConfig::paper_default()).train(&mut model, &data, 7, 0);
        assert_eq!(stats.epochs_run, 7);
        assert_eq!(stats.gradient_steps, 7);
        assert_eq!(stats.samples, 40);
    }

    #[test]
    fn training_reduces_loss() {
        let data = clean_data(60);
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        let stats =
            LocalTrainer::new(SgdConfig::new(0.5, 1.0, None)).train(&mut model, &data, 30, 0);
        assert!(
            stats.final_loss < stats.initial_loss * 0.8,
            "loss {} -> {}",
            stats.initial_loss,
            stats.final_loss
        );
    }

    #[test]
    fn minibatch_counts_steps() {
        let data = clean_data(50);
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        let trainer = LocalTrainer::new(SgdConfig::new(0.1, 0.99, Some(16)));
        let stats = trainer.train(&mut model, &data, 3, 0);
        // 50 samples in batches of 16 -> 4 batches per epoch.
        assert_eq!(stats.gradient_steps, 12);
    }

    #[test]
    fn minibatch_training_is_deterministic() {
        let data = clean_data(30);
        let trainer = LocalTrainer::new(SgdConfig::new(0.1, 0.99, Some(8)));
        let mut a = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut b = LogisticRegression::zeros(data.dim(), data.num_classes());
        trainer.train(&mut a, &data, 2, 5);
        trainer.train(&mut b, &data, 2, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn later_rounds_use_decayed_rate() {
        let data = clean_data(20);
        let trainer = LocalTrainer::new(SgdConfig::paper_default());
        let mut early = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut late = LogisticRegression::zeros(data.dim(), data.num_classes());
        trainer.train(&mut early, &data, 1, 0);
        trainer.train(&mut late, &data, 1, 200);
        // Same start, same data, smaller step at round 200: the late model
        // moves strictly less far from the origin.
        let origin = LogisticRegression::zeros(data.dim(), data.num_classes());
        assert!(late.param_distance_sq(&origin) < early.param_distance_sq(&origin));
    }

    #[test]
    fn zero_epochs_is_identity() {
        let data = clean_data(10);
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        let before = model.clone();
        let stats = LocalTrainer::default().train(&mut model, &data, 0, 0);
        assert_eq!(model, before);
        assert_eq!(stats.gradient_steps, 0);
        assert_eq!(stats.initial_loss, stats.final_loss);
    }

    #[test]
    fn weight_decay_keeps_parameters_smaller() {
        let data = clean_data(40);
        let plain = LocalTrainer::new(SgdConfig::new(0.2, 1.0, None));
        let decayed = LocalTrainer::new(SgdConfig::new(0.2, 1.0, None).with_weight_decay(0.05));
        let mut a = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut b = LogisticRegression::zeros(data.dim(), data.num_classes());
        plain.train(&mut a, &data, 20, 0);
        decayed.train(&mut b, &data, 20, 0);
        let norm = |m: &LogisticRegression| m.to_flat().iter().map(|x| x * x).sum::<f64>();
        assert!(norm(&b) < norm(&a), "decay should shrink the solution norm");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let data = Dataset::empty(784, 10);
        let mut model = LogisticRegression::zeros(784, 10);
        let _ = LocalTrainer::default().train(&mut model, &data, 1, 0);
    }

    #[test]
    fn fused_parallel_training_bit_identical_to_serial() {
        let data = Arc::new(clean_data(130));
        let serial = LocalTrainer::new(
            SgdConfig::new(0.1, 0.99, None).with_grad_reduction(GradReduction::FusedSerial),
        );
        let parallel = LocalTrainer::new(
            SgdConfig::new(0.1, 0.99, None)
                .with_grad_reduction(GradReduction::FusedParallel { threads: 4 }),
        );
        let pool = WorkerPool::new(4);
        let mut a = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut b = LogisticRegression::zeros(data.dim(), data.num_classes());
        let sa = serial.train(&mut a, &data, 3, 2);
        let sb = parallel.train_with_pool(&mut b, &data, 3, 2, &mut GradScratch::new(), &pool);
        assert_eq!(a, b, "parallel gradient must not change the trained bits");
        assert_eq!(sa, sb);
    }

    #[test]
    fn fused_and_naive_reach_similar_loss() {
        let data = clean_data(80);
        let fused = LocalTrainer::new(SgdConfig::new(0.2, 1.0, None));
        let naive = LocalTrainer::new(
            SgdConfig::new(0.2, 1.0, None).with_grad_reduction(GradReduction::Naive),
        );
        let mut a = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut b = LogisticRegression::zeros(data.dim(), data.num_classes());
        let sa = fused.train(&mut a, &data, 10, 0);
        let sb = naive.train(&mut b, &data, 10, 0);
        assert!(
            (sa.final_loss - sb.final_loss).abs() < 1e-9,
            "{} vs {}",
            sa.final_loss,
            sb.final_loss
        );
    }

    #[test]
    fn reused_scratch_stops_allocating_after_first_round() {
        let data = clean_data(60);
        let trainer = LocalTrainer::new(SgdConfig::paper_default());
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut scratch = GradScratch::new();
        trainer.train_with(&mut model, &data, 2, 0, &mut scratch);
        let warm = scratch.allocations();
        for round in 1..5 {
            trainer.train_with(&mut model, &data, 2, round, &mut scratch);
        }
        assert_eq!(
            scratch.allocations(),
            warm,
            "steady-state training must not grow the workspace"
        );
    }
}
