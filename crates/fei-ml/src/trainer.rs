//! Local training: `E` epochs of SGD on one edge server's dataset.

use fei_data::Dataset;
use fei_sim::DetRng;

use crate::optimizer::{GradReduction, SgdConfig};
use crate::scratch::GradScratch;
use crate::traits::Model;

/// Statistics from one local-training invocation (one edge server, one global
/// round).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Number of local epochs executed (`E`).
    pub epochs_run: usize,
    /// Number of gradient steps taken (epochs × batches-per-epoch).
    pub gradient_steps: usize,
    /// Training loss measured before the first step.
    pub initial_loss: f64,
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

    /// [`LocalTrainer::train`] with an explicit reusable workspace: the one
    /// epoch / mini-batch loop, every step on the calling thread.
    ///
    /// Full-batch mode (the paper's setting) performs one gradient step per
    /// epoch over the whole dataset; mini-batch mode shuffles deterministic
    /// batches via an internal generator seeded from `(round, data length)`.
    /// The gradient kernel is selected by [`SgdConfig::grad`];
    /// [`GradReduction::FusedSerial`] runs against `scratch` without
    /// per-epoch heap allocations (see DESIGN.md §10).
    ///
    /// `initial_loss` is settled at the job's first step, between computing
    /// the gradient and applying it, while `model` is still the untrained
    /// one. When the kernel recorded a loss term for every sample of a
    /// batch that is the whole dataset in dataset order, the mean it
    /// returned *is* [`Model::loss_with`] of that model — same terms, same
    /// single accumulator, same order, same bits — and is taken as is, so
    /// `E` full-batch epochs forward the data exactly `E` times, the passes
    /// Eq. 5 bills. Otherwise (a mini-batch, the naive kernel, a model
    /// whose kernel records no terms, `epochs == 0`) the loss is measured by
    /// an explicit pass. Nothing is measured after the last step.
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
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let lr = self.config.lr_for_round(round);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut initial_loss = None;
        let mut step = |model: &mut M, batch: &[usize], scratch: &mut GradScratch| {
            let batch_loss = self.gradient(model, data, batch, scratch);
            if initial_loss.is_none() {
                let whole_dataset_in_order = batch.iter().copied().eq(0..data.len())
                    && scratch.sample_losses().len() == batch.len();
                initial_loss = Some(if whole_dataset_in_order {
                    batch_loss
                } else {
                    // Reads the workspace's logits row only; the gradient
                    // stays in place for the update below.
                    model.loss_with(data, scratch)
                });
            }
            self.apply(model, lr, scratch);
        };

        match self.config.batch_size {
            None => {
                for _ in 0..epochs {
                    step(model, &order, scratch);
                }
            }
            Some(batch) => {
                let mut rng = DetRng::new(0xBA7C_0000 ^ round as u64).fork(data.len() as u64);
                for _ in 0..epochs {
                    rng.shuffle(&mut order);
                    for chunk in order.chunks(batch) {
                        step(model, chunk, scratch);
                    }
                }
            }
        }

        TrainStats {
            epochs_run: epochs,
            gradient_steps: self.config.gradient_steps(epochs, data.len()),
            // No step ran (`epochs == 0`): the model is the one passed in.
            initial_loss: initial_loss.unwrap_or_else(|| model.loss_with(data, scratch)),
            samples: data.len(),
        }
    }

    /// The mean loss and gradient of `batch` under `model`, by the kernel
    /// [`SgdConfig::grad`] selects; the gradient is left in `scratch.grad()`.
    fn gradient<M: Model>(
        &self,
        model: &M,
        data: &Dataset,
        batch: &[usize],
        scratch: &mut GradScratch,
    ) -> f64 {
        match self.config.grad {
            // The reference path reproduces the pre-fast-path arithmetic
            // exactly: the allocating kernel.
            GradReduction::Naive => {
                let (loss, grad) = model.loss_and_gradient(data, batch);
                scratch.store_allocated_grad(grad);
                loss
            }
            GradReduction::FusedSerial => model.loss_and_gradient_into(data, batch, scratch),
        }
    }

    /// Descends along `scratch.grad()`: separate step and decay passes on
    /// the reference path, the fused update otherwise.
    fn apply<M: Model>(&self, model: &mut M, lr: f64, scratch: &GradScratch) {
        if self.config.grad == GradReduction::Naive {
            model.apply_gradient(scratch.grad(), lr);
            if self.config.weight_decay > 0.0 {
                model.apply_weight_decay(lr, self.config.weight_decay);
            }
        } else {
            model.apply_gradient_decayed(scratch.grad(), lr, self.config.weight_decay);
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
        let trained = model.loss(&data);
        assert!(
            trained < stats.initial_loss * 0.8,
            "loss {} -> {trained}",
            stats.initial_loss,
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
        assert_eq!(stats.initial_loss.to_bits(), model.loss(&data).to_bits());
    }

    #[test]
    fn weight_decay_keeps_parameters_smaller() {
        let data = clean_data(40);
        let plain = LocalTrainer::new(SgdConfig::new(0.2, 1.0, None));
        let decayed = LocalTrainer::new(SgdConfig {
            weight_decay: 0.05,
            ..SgdConfig::new(0.2, 1.0, None)
        });
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
    fn fused_and_naive_reach_similar_loss() {
        let data = clean_data(80);
        let fused = LocalTrainer::new(SgdConfig::new(0.2, 1.0, None));
        let naive = LocalTrainer::new(
            SgdConfig::new(0.2, 1.0, None).with_grad_reduction(GradReduction::Naive),
        );
        let mut a = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut b = LogisticRegression::zeros(data.dim(), data.num_classes());
        fused.train(&mut a, &data, 10, 0);
        naive.train(&mut b, &data, 10, 0);
        let (la, lb) = (a.loss(&data), b.loss(&data));
        assert!((la - lb).abs() < 1e-9, "{la} vs {lb}");
    }

    /// A small deterministic dataset (`dim` 6, 3 classes) for the
    /// bit-identity sweeps, where synthetic MNIST's 784 columns buy nothing.
    fn small_data(n: usize) -> Dataset {
        let mut rng = DetRng::new(0x1055 ^ n as u64);
        let xs = (0..n * 6).map(|_| rng.gaussian_with(0.0, 1.0)).collect();
        Dataset::from_parts(6, xs, (0..n).map(|i| i % 3).collect(), 3)
    }

    /// Trains a fresh model and checks `TrainStats::initial_loss` against an
    /// explicit pass over the model before training.
    fn check_initial_loss(trainer: &LocalTrainer, data: &Dataset, epochs: usize, what: &str) {
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        // Not the zero model: a uniform softmax would hide ordering bugs.
        LocalTrainer::default().train(&mut model, data, 2, 0);
        let before = model.loss(data);
        let stats = trainer.train_with(&mut model, data, epochs, 3, &mut GradScratch::new());
        assert_eq!(stats.initial_loss.to_bits(), before.to_bits(), "{what}");
    }

    const EDGE_SIZES: [usize; 6] = [1, 63, 64, 65, 130, 333];

    #[test]
    fn derived_initial_loss_equals_an_explicit_pass_bit_for_bit() {
        let serial = LocalTrainer::new(SgdConfig::new(0.1, 0.99, None));
        for n in EDGE_SIZES {
            check_initial_loss(&serial, &small_data(n), 3, &format!("n = {n}"));
        }
        // The paper's shape, on the paper's data.
        check_initial_loss(&serial, &clean_data(150), 1, "synthetic MNIST, E = 1");
    }

    #[test]
    fn explicit_pass_fallbacks_report_the_same_losses() {
        let shuffled = LocalTrainer::new(SgdConfig::new(0.1, 0.99, Some(16)));
        // One batch spans the dataset, but in shuffled order.
        let one_shuffled_batch = LocalTrainer::new(SgdConfig::new(0.1, 0.99, Some(1000)));
        let naive = LocalTrainer::new(
            SgdConfig::new(0.1, 0.99, None).with_grad_reduction(GradReduction::Naive),
        );
        for n in EDGE_SIZES {
            let data = small_data(n);
            check_initial_loss(&shuffled, &data, 2, &format!("mini-batch, n = {n}"));
            let what = format!("one shuffled batch, n = {n}");
            check_initial_loss(&one_shuffled_batch, &data, 2, &what);
            check_initial_loss(&naive, &data, 2, &format!("naive, n = {n}"));
        }
    }

    #[test]
    fn models_without_sample_terms_keep_the_explicit_pass() {
        let data = small_data(70);
        let mut mlp = crate::Mlp::new(data.dim(), 5, data.num_classes(), 9);
        let before = Model::loss(&mlp, &data);
        let stats = LocalTrainer::new(SgdConfig::new(0.1, 0.99, None)).train(&mut mlp, &data, 2, 0);
        assert_eq!(stats.initial_loss.to_bits(), before.to_bits());
    }

    #[test]
    fn a_full_batch_job_forwards_the_data_e_times() {
        let n = 150u64;
        let data = small_data(n as usize);
        for epochs in [1u64, 2, 10] {
            let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
            let mut scratch = GradScratch::new();
            LocalTrainer::default().train_with(&mut model, &data, epochs as usize, 0, &mut scratch);
            assert_eq!(scratch.forward_passes(), epochs * n, "E = {epochs}");
        }
        // No step to read the initial loss off: one explicit pass.
        let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
        let mut scratch = GradScratch::new();
        LocalTrainer::default().train_with(&mut model, &data, 0, 0, &mut scratch);
        assert_eq!(scratch.forward_passes(), n);
        // Mini-batches cover the data once per epoch, and the initial loss
        // is an explicit pass.
        let mut scratch = GradScratch::new();
        LocalTrainer::new(SgdConfig::new(0.1, 0.99, Some(16))).train_with(
            &mut model,
            &data,
            2,
            0,
            &mut scratch,
        );
        assert_eq!(scratch.forward_passes(), (2 + 1) * n);
    }

    #[test]
    fn training_and_evaluation_share_a_warm_workspace_without_allocating() {
        let big = clean_data(150);
        let small = clean_data(90);
        let trainer = LocalTrainer::new(SgdConfig::paper_default());
        let mut model = LogisticRegression::zeros(big.dim(), big.num_classes());
        let mut scratch = GradScratch::new();
        trainer.train_with(&mut model, &big, 1, 0, &mut scratch);
        let warm = scratch.allocations();
        for round in 1..5 {
            // The term buffer was sized by the largest client; smaller
            // ones, evaluation and loss passes all fit inside it.
            let stats = trainer.train_with(&mut model, &small, 2, round, &mut scratch);
            assert_eq!(scratch.sample_losses().len(), small.len());
            trainer.train_with(&mut model, &big, 1, round, &mut scratch);
            let eval = model.evaluate_with(&small, &mut scratch);
            assert!(eval.loss.is_finite() && stats.initial_loss.is_finite());
        }
        assert_eq!(scratch.allocations(), warm);
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

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use crate::model::LogisticRegression;

    proptest! {
        /// Whatever the size, epoch count or batching,
        /// `TrainStats::initial_loss` is what an explicit pass over the
        /// model before training measures, to the bit.
        #[test]
        fn train_stats_initial_loss_equals_an_explicit_pass(
            n in 1usize..200,
            epochs in 0usize..4,
            batch in 0usize..80,
            seed in 0u64..1000,
        ) {
            let mut rng = DetRng::new(seed);
            let xs = (0..n * 4).map(|_| rng.gaussian_with(0.0, 1.0)).collect();
            let data = Dataset::from_parts(4, xs, (0..n).map(|i| i % 3).collect(), 3);
            // Batch size 0 draws the full-batch mode.
            let trainer = LocalTrainer::new(SgdConfig::new(0.2, 0.99, (batch > 0).then_some(batch)));
            let mut model = LogisticRegression::zeros(4, 3);
            trainer.train(&mut model, &data, 1, 0);
            let before = model.loss(&data);
            let stats = trainer.train_with(&mut model, &data, epochs, 1, &mut GradScratch::new());
            prop_assert_eq!(stats.initial_loss.to_bits(), before.to_bits());
        }
    }
}
