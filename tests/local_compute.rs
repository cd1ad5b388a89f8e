//! A device computes what the paper bills: a full-batch local job forwards
//! its `n_k` samples exactly `E` times — the `E·n_k` sample passes of
//! `e_P(E, n_k) = c0·E·n_k + c1·E` (Eq. 5) — on the serial path and on the
//! worker pool alike, while `TrainStats::initial_loss` stays equal to an
//! explicit loss pass over the untrained model, bit for bit.

use std::sync::Arc;

use ee_fei::core::ComputationModel;
use ee_fei::data::{Dataset, SyntheticMnist, SyntheticMnistConfig};
use ee_fei::ml::{
    GradReduction, GradScratch, LocalTrainer, LogisticRegression, SgdConfig, WorkerPool,
};

/// Client sizes: one that ends mid-chunk, and the paper's 150.
const SIZES: [usize; 2] = [65, 150];
const EPOCHS: [usize; 3] = [1, 2, 10];

fn client(n: usize) -> Arc<Dataset> {
    Arc::new(SyntheticMnist::new(SyntheticMnistConfig::default()).generate(n, 3))
}

/// A model some way into training, so its softmax is not uniform.
fn warm_model(data: &Dataset) -> LogisticRegression {
    let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
    LocalTrainer::default().train(&mut model, data, 2, 0);
    model
}

/// Sample passes Eq. 5 bills for `epochs` over `n` samples: the
/// computation model at one joule per sample pass and nothing per epoch.
fn billed_passes(epochs: usize, n: usize) -> u64 {
    let per_sample = ComputationModel::new(1.0, 0.0).expect("valid coefficients");
    per_sample.energy_joules(epochs, n) as u64
}

fn pooled_trainer(threads: usize) -> LocalTrainer {
    LocalTrainer::new(
        SgdConfig::paper_default().with_grad_reduction(GradReduction::FusedParallel { threads }),
    )
}

#[test]
fn a_full_batch_job_forwards_its_data_exactly_e_times() {
    for n in SIZES {
        let data = client(n);
        let start = warm_model(&data);
        for epochs in EPOCHS {
            let billed = billed_passes(epochs, n);
            assert_eq!(billed, (epochs * n) as u64);

            let mut model = start.clone();
            let mut scratch = GradScratch::new();
            let stats =
                LocalTrainer::default().train_with(&mut model, &data, epochs, 0, &mut scratch);
            assert_eq!(stats.gradient_steps, epochs);
            assert_eq!(
                scratch.forward_passes(),
                billed,
                "serial, n = {n}, E = {epochs}"
            );

            for size in 1..=4 {
                let pool = WorkerPool::new(size);
                let mut model = start.clone();
                let mut scratch = GradScratch::new();
                pooled_trainer(size).train_with_pool(
                    &mut model,
                    &data,
                    epochs,
                    0,
                    &mut scratch,
                    &pool,
                );
                assert_eq!(
                    scratch.forward_passes(),
                    billed,
                    "pool of {size}, n = {n}, E = {epochs}"
                );
            }
        }
    }
}

#[test]
fn a_full_batch_initial_loss_is_an_explicit_pass_bit_for_bit() {
    for n in SIZES {
        let data = client(n);
        let start = warm_model(&data);
        let explicit = start.loss(&data).to_bits();
        for epochs in EPOCHS {
            let mut model = start.clone();
            let stats = LocalTrainer::default().train(&mut model, &data, epochs, 0);
            assert_eq!(
                stats.initial_loss.to_bits(),
                explicit,
                "serial, n = {n}, E = {epochs}"
            );
            for size in 1..=4 {
                let pool = WorkerPool::new(size);
                let mut model = start.clone();
                let stats = pooled_trainer(size).train_with_pool(
                    &mut model,
                    &data,
                    epochs,
                    0,
                    &mut GradScratch::new(),
                    &pool,
                );
                assert_eq!(
                    stats.initial_loss.to_bits(),
                    explicit,
                    "pool of {size}, n = {n}, E = {epochs}"
                );
            }
        }
    }
}

#[test]
fn a_mini_batch_job_adds_one_explicit_initial_loss_pass() {
    let trainer = LocalTrainer::new(SgdConfig::new(0.01, 0.99, Some(16)));
    for n in SIZES {
        let data = client(n);
        let start = warm_model(&data);
        for epochs in EPOCHS {
            let mut model = start.clone();
            let mut scratch = GradScratch::new();
            let stats = trainer.train_with(&mut model, &data, epochs, 0, &mut scratch);
            assert_eq!(stats.gradient_steps, epochs * n.div_ceil(16));
            assert_eq!(
                scratch.forward_passes(),
                billed_passes(epochs, n) + n as u64,
                "n = {n}, E = {epochs}"
            );
            assert_eq!(
                stats.initial_loss.to_bits(),
                start.loss(&data).to_bits(),
                "n = {n}, E = {epochs}"
            );
        }
    }
}
