//! Criterion bench: local-training throughput — the simulated counterpart of
//! Table I's step-(3) timing grid. The wall-clock of one epoch should scale
//! linearly in `n_k`, the same law the paper fits (`time ≈ a·E·n_k + b·E`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fei_data::{SyntheticMnist, SyntheticMnistConfig};
use fei_ml::{LocalTrainer, LogisticRegression, SgdConfig};
use std::hint::black_box;

fn bench_epoch_scaling(c: &mut Criterion) {
    let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
    let mut group = c.benchmark_group("local_epoch");
    for n_k in [100usize, 500, 1000] {
        let data = gen.generate(n_k, 0);
        group.throughput(Throughput::Elements(n_k as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n_k), &data, |b, data| {
            let trainer = LocalTrainer::new(SgdConfig::paper_default());
            let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
            b.iter(|| {
                trainer.train(black_box(&mut model), black_box(data), 1, 0);
            });
        });
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
    let data = gen.generate(500, 0);
    let model = LogisticRegression::zeros(data.dim(), data.num_classes());
    c.bench_function("loss_eval_500", |b| {
        b.iter(|| black_box(&model).loss(black_box(&data)));
    });
    // Loss and accuracy from the one forward pass per sample.
    c.bench_function("evaluation_500", |b| {
        b.iter(|| fei_ml::Evaluation::of(black_box(&model), black_box(&data)));
    });
}

criterion_group!(benches, bench_epoch_scaling, bench_inference);
criterion_main!(benches);
