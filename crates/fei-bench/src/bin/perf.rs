//! Perf-regression harness: kernel microbenches + headline round timing.
//!
//! Times the deterministic fast-path kernels (lane-unrolled dot, packed
//! matmul / `matmul_tn`, fused axpy+shrink, fused gradient, slicing CRC32,
//! single-pass evaluation, the `E = 1` local job)
//! against the naive reference implementations they replaced, then times a full
//! headline-config federated round under both gradient paths
//! ([`GradReduction::Naive`] vs [`GradReduction::FusedSerial`]) with
//! evaluation disabled so the numbers isolate training arithmetic.
//!
//! Every measurement takes the *minimum* of N reps: on a shared core the
//! minimum is the least-contended observation of a deterministic
//! workload, while medians still carry scheduler noise. The two round
//! engines are timed in alternation so a slow phase of the host cannot
//! bill only one side of the ratio. Allocation counts come from the
//! [`GradScratch`] / [`MatScratch`] event counters.
//!
//! Results are printed as a table and written to `BENCH_perf.json`
//! (schema `BENCH_perf.v2`, documented in EXPERIMENTS.md; a `--smoke` run
//! writes `target/bench/BENCH_perf.json` and leaves the committed file
//! alone). Gates:
//! per-kernel speedup floors (matmul >= 2.0, matmul_tn >= 2.0,
//! axpy_shrink >= 1.6, crc32 >= 3.0, evaluate >= 1.6, local_job_e1 >= 1.8)
//! and zero steady-state scratch allocations are enforced in every mode;
//! the headline `round.speedup_vs_naive >= 1.5` gate applies to the full
//! configuration only (smoke rounds are too short to time reliably).
//! EXPERIMENTS.md records why the kernel floors
//! sit where they do — the bit-identity contract forbids FMA, which caps
//! the reachable speedup well below what a contraction-free kernel could
//! hit.
//!
//! Run: `cargo run --release -p fei-bench --bin perf`
//! CI smoke: append `-- --smoke` for a seconds-scale configuration.

use std::hint::black_box;
use std::time::Instant;

use fei_bench::{banner, section};
use fei_data::{Dataset, SyntheticMnist, SyntheticMnistConfig};
use fei_math::func::log_sum_exp;
use fei_math::pack::MatScratch;
use fei_math::{reduce, Matrix};
use fei_ml::{
    Evaluation, GradReduction, GradScratch, LocalTrainer, LogisticRegression, Model, SgdConfig,
};
use fei_net::codec::{crc32, crc32_reference};
use fei_testbed::{FlExperiment, FlExperimentConfig};

/// Sizing knobs for one harness run.
struct Sizes {
    /// Vector length for `dot`.
    vec_len: usize,
    /// Vector length for `axpy_shrink`: one 10x784 weight block, the shape
    /// the trainer actually updates. Small enough that heap placement and
    /// per-call resets dominate unless the harness controls them.
    axpy_len: usize,
    /// Square matrix side for `matmul` / `matmul_tn`.
    mat_dim: usize,
    /// Samples in the gradient-kernel dataset.
    grad_samples: usize,
    /// Repetitions per kernel measurement (minimum taken).
    kernel_reps: usize,
    /// Devices in the end-to-end fleet.
    devices: usize,
    /// Fraction of the paper's training set to generate.
    scale: f64,
    /// Participants per round (`K`).
    k: usize,
    /// Local epochs (`E`).
    e: usize,
    /// Timed rounds per engine (minimum taken, engines interleaved).
    rounds: usize,
}

/// Headline configuration: the paper-like campaign at `K = 10`, `E = 10`.
const FULL: Sizes = Sizes {
    vec_len: 1 << 16,
    axpy_len: 7840,
    mat_dim: 256,
    grad_samples: 2048,
    kernel_reps: 21,
    devices: 20,
    scale: 0.05,
    k: 10,
    e: 10,
    rounds: 5,
};

/// Seconds-scale configuration for the CI smoke step. A gated kernel keeps
/// the shape its floor was calibrated at: the axpy length is NOT scaled
/// down (microseconds-scale already, gated at the trainer's real update
/// shape), and neither is the matmul side — at 96 the packing overhead is
/// a larger share and the ratio has read as low as 1.88x on a CI-class VM,
/// under the 2.0x floor that 256 clears; both run in well under a second.
const SMOKE: Sizes = Sizes {
    vec_len: 1 << 12,
    axpy_len: 7840,
    mat_dim: 256,
    grad_samples: 256,
    kernel_reps: 11,
    devices: 5,
    scale: 0.01,
    k: 4,
    e: 2,
    rounds: 3,
};

/// One kernel comparison, also emitted as a JSON object.
struct KernelRow {
    name: &'static str,
    size: String,
    reps: usize,
    baseline_ns: f64,
    fast_ns: f64,
    /// Minimum acceptable speedup; `None` for informational rows.
    gate: Option<f64>,
    /// Work completed per second on the fast path.
    throughput: f64,
    throughput_unit: &'static str,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.fast_ns
    }
}

/// Warm + steady-state allocation counts for a reused scratch buffer.
struct ScratchCounters {
    warm: u64,
    steady_delta: u64,
}

/// End-to-end round timing under both gradient paths.
struct RoundResult {
    naive_ns: f64,
    fast_ns: f64,
    samples_per_round: usize,
    scratch: ScratchCounters,
}

impl RoundResult {
    fn speedup_vs_naive(&self) -> f64 {
        self.naive_ns / self.fast_ns
    }
}

/// Minimum wall-clock of `reps` invocations of `f`, in nanoseconds, after
/// one untimed warmup call. The minimum is the right statistic for a
/// deterministic kernel on a shared core: every upward excursion is
/// scheduler or cache interference, never the kernel.
fn min_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .fold(f64::INFINITY, f64::min)
}

/// Deterministic pseudo-random fill, so runs are comparable across hosts.
fn lcg_vec(len: usize, mut state: u64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, lcg_vec(rows * cols, seed))
}

fn bench_dot(sizes: &Sizes) -> KernelRow {
    let a = lcg_vec(sizes.vec_len, 0xD07);
    let b = lcg_vec(sizes.vec_len, 0xD08);
    let baseline_ns = min_ns(sizes.kernel_reps, || {
        black_box(reduce::dot_serial(black_box(&a), black_box(&b)));
    });
    let fast_ns = min_ns(sizes.kernel_reps, || {
        black_box(reduce::dot(black_box(&a), black_box(&b)));
    });
    KernelRow {
        name: "dot",
        size: format!("{}", sizes.vec_len),
        reps: sizes.kernel_reps,
        baseline_ns,
        fast_ns,
        gate: None,
        throughput: sizes.vec_len as f64 / (fast_ns * 1e-9),
        throughput_unit: "elem/s",
    }
}

fn bench_axpy_shrink(sizes: &Sizes) -> KernelRow {
    let n = sizes.axpy_len;
    // The kernel is a few microseconds at this size, so the measurement
    // must control everything that can vary run to run: `x` and `y` live
    // in ONE backing vector at a fixed 48-element gap (heap placement of
    // two separate Vecs varies per run and shifts cache-set aliasing),
    // and there is no per-call reset — both loops are in-place updates
    // whose cost is value-independent, and a reset inside the timed
    // closure would bill an extra full-vector copy to both sides,
    // compressing the measured ratio toward 1.
    // The kernel is also short enough that timer overhead is visible, so
    // each timing sample batches `INNER` calls and divides, and the two
    // variants are sampled in alternation so slow phases of the shared
    // core hit both equally.
    const INNER: usize = 100;

    /// The pre-fast-path two-pass update (step, then decay).
    #[inline(never)]
    fn two_pass(y: &mut [f64], alpha: f64, x: &[f64], shrink: f64) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
        for yi in y.iter_mut() {
            *yi -= shrink * *yi;
        }
    }

    // The backing buffer sits below glibc's mmap threshold, so the heap
    // hands back whatever 16-byte slot is free — skip ahead to the first
    // 64-byte-aligned element so vector loads never split cache lines.
    // `n` and the 48-element gap are both multiples of 8, so `x` and `y`
    // start cache-line aligned together.
    let mut raw = lcg_vec(2 * n + 48 + 8, 0xA11);
    let align_skip = (64 - (raw.as_ptr() as usize & 63)) / 8 % 8;
    let buf = &mut raw[align_skip..];
    let (xs, rest) = buf.split_at_mut(n);
    let x: &[f64] = xs;
    let y: &mut [f64] = &mut rest[48..48 + n];
    let reps = sizes.kernel_reps.max(31);
    let mut baseline_ns = f64::INFINITY;
    let mut fast_ns = f64::INFINITY;
    for _ in 0..reps {
        baseline_ns = baseline_ns.min(min_ns(3, || {
            for _ in 0..INNER {
                two_pass(black_box(&mut *y), 0.01, black_box(x), 1e-4);
            }
        }));
        fast_ns = fast_ns.min(min_ns(3, || {
            for _ in 0..INNER {
                reduce::fused_axpy_shrink(black_box(&mut *y), 0.01, black_box(x), 1e-4);
            }
        }));
    }
    baseline_ns /= INNER as f64;
    fast_ns /= INNER as f64;
    KernelRow {
        name: "axpy_shrink",
        size: format!("{n}"),
        reps,
        baseline_ns,
        fast_ns,
        // The two-pass baseline moves 5 cache-line streams per element
        // block to the fused kernel's 3, and both saturate core-private
        // bandwidth at this size, so the physical ceiling is 5/3 = 1.67x
        // plus second-order effects (measured steady ratio 1.72x). The
        // gate sits at 1.6x: tight enough to catch any regression to the
        // pre-fix 1.34x reading, below the bandwidth asymptote.
        gate: Some(1.6),
        throughput: n as f64 / (fast_ns * 1e-9),
        throughput_unit: "elem/s",
    }
}

fn bench_matmul(sizes: &Sizes, pack: &mut MatScratch) -> KernelRow {
    let n = sizes.mat_dim;
    let a = lcg_matrix(n, n, 0x3A7);
    let b = lcg_matrix(n, n, 0x3A8);
    let baseline_ns = min_ns(sizes.kernel_reps, || {
        black_box(black_box(&a).matmul_reference(black_box(&b)));
    });
    let fast_ns = min_ns(sizes.kernel_reps, || {
        black_box(black_box(&a).matmul_with(black_box(&b), pack));
    });
    KernelRow {
        name: "matmul",
        size: format!("{n}x{n}x{n}"),
        reps: sizes.kernel_reps,
        baseline_ns,
        fast_ns,
        gate: Some(2.0),
        throughput: (2 * n * n * n) as f64 / (fast_ns * 1e-9),
        throughput_unit: "flop/s",
    }
}

fn bench_matmul_tn(sizes: &Sizes, pack: &mut MatScratch) -> KernelRow {
    let n = sizes.mat_dim;
    let a = lcg_matrix(n, n, 0x7A7);
    let b = lcg_matrix(n, n, 0x7A8);
    // Baseline: materialize the transpose, then multiply (the pre-fast-path
    // normal-equations idiom).
    let baseline_ns = min_ns(sizes.kernel_reps, || {
        black_box(black_box(&a).transpose().matmul_reference(black_box(&b)));
    });
    let fast_ns = min_ns(sizes.kernel_reps, || {
        black_box(black_box(&a).matmul_tn_with(black_box(&b), pack));
    });
    KernelRow {
        name: "matmul_tn",
        size: format!("{n}x{n}x{n}"),
        reps: sizes.kernel_reps,
        baseline_ns,
        fast_ns,
        gate: Some(2.0),
        throughput: (2 * n * n * n) as f64 / (fast_ns * 1e-9),
        throughput_unit: "flop/s",
    }
}

/// The frame checksum over one model frame: byte-at-a-time reference vs the
/// slicing kernel every frame, journal record and trace event goes through.
fn bench_crc32() -> KernelRow {
    // The f64 wire frame of the 7 850-parameter model — the size the
    // daemon checksums per hop, whatever the harness configuration.
    const FRAME_BYTES: usize = 62_807;
    const REPS: usize = 101;
    let frame: Vec<u8> = lcg_vec(FRAME_BYTES, 0xC3C)
        .iter()
        .map(|v| v.to_bits().to_le_bytes()[5])
        .collect();
    assert_eq!(crc32(&frame), crc32_reference(&frame));
    let baseline_ns = min_ns(REPS, || {
        black_box(crc32_reference(black_box(&frame)));
    });
    let fast_ns = min_ns(REPS, || {
        black_box(crc32(black_box(&frame)));
    });
    KernelRow {
        name: "crc32",
        size: format!("{FRAME_BYTES} B"),
        reps: REPS,
        baseline_ns,
        fast_ns,
        // Sixteen independent table lookups per step against one dependent
        // lookup per byte: measured 5.5x on the 2-core VM (150 us -> 27 us).
        // 3.0x catches a fall back to a narrower or bytewise loop.
        gate: Some(3.0),
        throughput: FRAME_BYTES as f64 / (fast_ns * 1e-9),
        throughput_unit: "B/s",
    }
}

/// Full-batch gradient step on a synthetic-MNIST batch: allocating reference
/// kernel vs the fused scratch-backed kernel.
fn bench_gradient(sizes: &Sizes) -> (KernelRow, ScratchCounters) {
    let data: Dataset =
        SyntheticMnist::new(SyntheticMnistConfig::default()).generate(sizes.grad_samples, 7);
    let model = LogisticRegression::zeros(data.dim(), data.num_classes());
    let indices: Vec<usize> = (0..data.len()).collect();
    let mut scratch = GradScratch::new();
    let baseline_ns = min_ns(sizes.kernel_reps, || {
        black_box(model.loss_and_gradient(black_box(&data), black_box(&indices)));
    });
    let fast_ns = min_ns(sizes.kernel_reps, || {
        black_box(model.loss_and_gradient_into(
            black_box(&data),
            black_box(&indices),
            &mut scratch,
        ));
    });
    let warm = scratch.allocations();
    // Steady state: further timed reps must not grow the workspace (this
    // includes the pack buffers inside the gradient's GEMM phase).
    let _ = min_ns(sizes.kernel_reps, || {
        black_box(model.loss_and_gradient_into(&data, &indices, &mut scratch));
    });
    let steady_delta = scratch.allocations() - warm;
    let row = KernelRow {
        name: "grad_step",
        size: format!("{} samples", sizes.grad_samples),
        reps: sizes.kernel_reps,
        baseline_ns,
        fast_ns,
        gate: None,
        throughput: sizes.grad_samples as f64 / (fast_ns * 1e-9),
        throughput_unit: "sample/s",
    };
    (row, ScratchCounters { warm, steady_delta })
}

/// A 784 -> 10 model a few epochs into training on `data`: real logits,
/// not the zero model's uniform softmax.
fn trained_model(data: &Dataset) -> LogisticRegression {
    let mut model = LogisticRegression::zeros(data.dim(), data.num_classes());
    LocalTrainer::new(SgdConfig::paper_default()).train(&mut model, data, 3, 0);
    model
}

/// Loss and accuracy of the global model on the headline test set
/// (2 000 x 784, the same in smoke mode — the gate is calibrated there):
/// the pre-single-pass two calls, rebuilt from the single-sample API (an
/// allocating `logits` pass for the loss, a `predict` pass for the
/// accuracy), vs `Evaluation::of`'s one buffer-reusing pass.
fn bench_evaluate(sizes: &Sizes) -> KernelRow {
    const TEST_SAMPLES: usize = 2000;
    fn two_calls(model: &LogisticRegression, data: &Dataset) -> Evaluation {
        let mut total = 0.0;
        for (x, y) in data.iter() {
            let logits = model.logits(x);
            total += log_sum_exp(&logits) - logits[y];
        }
        let correct = data.iter().filter(|(x, y)| model.predict(x) == *y).count();
        Evaluation {
            loss: total / data.len() as f64,
            accuracy: correct as f64 / data.len() as f64,
        }
    }

    let data = SyntheticMnist::new(SyntheticMnistConfig::default()).generate(TEST_SAMPLES, 1);
    let model = trained_model(&data);
    let (reference, single) = (two_calls(&model, &data), Evaluation::of(&model, &data));
    assert_eq!(
        (reference.loss.to_bits(), reference.accuracy.to_bits()),
        (single.loss.to_bits(), single.accuracy.to_bits()),
        "single-pass evaluation must reproduce the two calls bit for bit"
    );
    let baseline_ns = min_ns(sizes.kernel_reps, || {
        black_box(two_calls(black_box(&model), black_box(&data)));
    });
    let fast_ns = min_ns(sizes.kernel_reps, || {
        black_box(Evaluation::of(black_box(&model), black_box(&data)));
    });
    KernelRow {
        name: "evaluate",
        size: format!("{TEST_SAMPLES} samples"),
        reps: sizes.kernel_reps,
        baseline_ns,
        fast_ns,
        // Half the forward passes, each a little cheaper (paired striped
        // dots into a reused row vs one allocating dot per class):
        // measured 2.4-2.6x on the 2-core VM. 1.6x catches the return of
        // the second pass.
        gate: Some(1.6),
        throughput: TEST_SAMPLES as f64 / (fast_ns * 1e-9),
        throughput_unit: "sample/s",
    }
}

/// One `E = 1` local job on a headline-sized client (150 x 784, the same in
/// smoke mode): the pre-derivation composition — loss pass, gradient step,
/// loss pass — vs `train_with`, which reads the initial loss off the step
/// and measures nothing after it. The job is the planner's small-`E`
/// corner; the ratio it can reach is bounded by 3 forwards + 1 backward
/// over 1 + 1.
fn bench_local_job(sizes: &Sizes) -> KernelRow {
    const CLIENT_SAMPLES: usize = 150;
    let data = SyntheticMnist::new(SyntheticMnistConfig::default()).generate(CLIENT_SAMPLES, 3);
    let global = trained_model(&data);
    let indices: Vec<usize> = (0..data.len()).collect();
    let config = SgdConfig::paper_default();
    let lr = config.lr_for_round(0);
    let trainer = LocalTrainer::new(config);
    let mut scratch = GradScratch::new();
    let reps = sizes.kernel_reps.max(31);
    let baseline_ns = min_ns(reps, || {
        let mut local = black_box(&global).clone();
        let initial = local.loss_with(&data, &mut scratch);
        local.loss_and_gradient_into(&data, &indices, &mut scratch);
        local.apply_gradient_decayed(scratch.grad(), lr, 0.0);
        black_box((initial, local.loss_with(&data, &mut scratch), local));
    });
    let fast_ns = min_ns(reps, || {
        let mut local = black_box(&global).clone();
        let stats = trainer.train_with(&mut local, &data, 1, 0, &mut scratch);
        black_box((stats, local));
    });
    KernelRow {
        name: "local_job_e1",
        size: format!("{CLIENT_SAMPLES} samples"),
        reps,
        baseline_ns,
        fast_ns,
        // Measured 2.2x on the 2-core VM (1.35x while the job still ran a
        // final-loss pass). 1.8x catches the return of any extra pass.
        gate: Some(1.8),
        throughput: CLIENT_SAMPLES as f64 / (fast_ns * 1e-9),
        throughput_unit: "sample/s",
    }
}

/// Builds the end-to-end experiment with evaluation disabled and the given
/// gradient path.
fn round_experiment(sizes: &Sizes, grad: GradReduction) -> FlExperiment {
    FlExperiment::prepare(FlExperimentConfig {
        num_devices: sizes.devices,
        scale: sizes.scale,
        test_scale: sizes.scale,
        sgd: SgdConfig::new(0.005, 0.998, None).with_grad_reduction(grad),
        // Larger than any timed round index: never evaluate mid-timing.
        eval_every: 1 << 30,
        ..FlExperimentConfig::paper_like()
    })
}

fn bench_round(sizes: &Sizes) -> RoundResult {
    // Both engines are timed in alternation, one round of each per
    // iteration, and the minimum is kept per engine: rounds run tens of
    // milliseconds, long enough that a slow phase of the shared core
    // lands inside one — interleaving keeps such a phase from billing
    // only one side of the ratio.
    let naive_exp = round_experiment(sizes, GradReduction::Naive);
    let mut naive_engine = naive_exp.engine(sizes.k, sizes.e);
    let fast_exp = round_experiment(sizes, GradReduction::FusedSerial);
    let mut fast_engine = fast_exp.engine(sizes.k, sizes.e);
    // Warmup rounds: touch every allocation path once.
    naive_engine.run_round();
    fast_engine.run_round();
    let warm = fast_engine.scratch_allocations();
    let mut naive_ns = f64::INFINITY;
    let mut fast_ns = f64::INFINITY;
    for _ in 0..sizes.rounds {
        let start = Instant::now();
        naive_engine.run_round();
        naive_ns = naive_ns.min(start.elapsed().as_secs_f64() * 1e9);
        let start = Instant::now();
        fast_engine.run_round();
        fast_ns = fast_ns.min(start.elapsed().as_secs_f64() * 1e9);
    }
    let steady_delta = fast_engine.scratch_allocations() - warm;
    let samples_per_round = sizes.k * fast_exp.samples_per_device() * sizes.e;

    RoundResult {
        naive_ns,
        fast_ns,
        samples_per_round,
        scratch: ScratchCounters { warm, steady_delta },
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns * 1e-9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns * 1e-6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns * 1e-3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_kernel(row: &KernelRow) -> String {
    let gate = row.gate.map_or("null".to_string(), |g| format!("{g:.1}"));
    format!(
        r#"{{"name":"{}","size":"{}","reps":{},"baseline_ns":{:.1},"fast_ns":{:.1},"speedup":{:.3},"gate":{gate},"throughput":{:.3e},"throughput_unit":"{}"}}"#,
        row.name,
        row.size,
        row.reps,
        row.baseline_ns,
        row.fast_ns,
        row.speedup(),
        row.throughput,
        row.throughput_unit,
    )
}

fn json_report(
    smoke: bool,
    sizes: &Sizes,
    kernels: &[KernelRow],
    pack: &ScratchCounters,
    grad: &ScratchCounters,
    round: &RoundResult,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema\": \"BENCH_perf.v2\",\n  \"smoke\": {smoke},\n"
    ));
    out.push_str("  \"kernels\": [\n");
    for (i, row) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        out.push_str(&format!("    {}{comma}\n", json_kernel(row)));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"pack_scratch\": {{\"warm_allocations\":{},\"steady_delta\":{}}},\n",
        pack.warm, pack.steady_delta
    ));
    out.push_str(&format!(
        "  \"grad_scratch\": {{\"warm_allocations\":{},\"steady_delta\":{}}},\n",
        grad.warm, grad.steady_delta
    ));
    out.push_str(&format!(
        concat!(
            "  \"round\": {{\"devices\":{},\"k\":{},\"e\":{},\"rounds_timed\":{},",
            "\"naive_ns_min\":{:.1},\"fast_ns_min\":{:.1},\"speedup_vs_naive\":{:.3},",
            "\"gate\":1.5,\"samples_per_round\":{},\"throughput_samples_per_s\":{:.3e},",
            "\"scratch_allocations_warm\":{},\"scratch_allocations_steady_delta\":{}}}\n"
        ),
        sizes.devices,
        sizes.k,
        sizes.e,
        sizes.rounds,
        round.naive_ns,
        round.fast_ns,
        round.speedup_vs_naive(),
        round.samples_per_round,
        round.samples_per_round as f64 / (round.fast_ns * 1e-9),
        round.scratch.warm,
        round.scratch.steady_delta,
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke { SMOKE } else { FULL };

    banner("Perf harness: fast-path kernels vs naive references");

    section(&format!(
        "kernel microbenches (min of {} reps)",
        sizes.kernel_reps
    ));
    println!(
        "{:>12} {:>16} {:>12} {:>12} {:>9} {:>6} {:>16}",
        "kernel", "size", "baseline", "fast", "speedup", "gate", "throughput"
    );
    let mut pack = MatScratch::new();
    let mut kernels = vec![
        bench_dot(&sizes),
        bench_axpy_shrink(&sizes),
        bench_matmul(&sizes, &mut pack),
    ];
    let pack_warm = pack.allocations();
    kernels.push(bench_matmul_tn(&sizes, &mut pack));
    // Steady state: the tn panels were sized during its own warmup call;
    // one more timed pass of both shapes must not grow the pack buffers.
    let warm_after_tn = pack.allocations();
    {
        let n = sizes.mat_dim;
        let a = lcg_matrix(n, n, 0x3A7);
        let b = lcg_matrix(n, n, 0x3A8);
        black_box(a.matmul_with(&b, &mut pack));
        black_box(a.matmul_tn_with(&b, &mut pack));
    }
    let pack_counters = ScratchCounters {
        warm: pack_warm,
        steady_delta: pack.allocations() - warm_after_tn,
    };
    let (grad_row, grad_counters) = bench_gradient(&sizes);
    kernels.push(grad_row);
    kernels.push(bench_crc32());
    kernels.push(bench_evaluate(&sizes));
    kernels.push(bench_local_job(&sizes));
    for row in &kernels {
        println!(
            "{:>12} {:>16} {:>12} {:>12} {:>8.2}x {:>6} {:>13.3e} {}",
            row.name,
            row.size,
            fmt_ns(row.baseline_ns),
            fmt_ns(row.fast_ns),
            row.speedup(),
            row.gate.map_or("-".to_string(), |g| format!("{g:.1}x")),
            row.throughput,
            row.throughput_unit,
        );
    }
    println!(
        "pack scratch allocations: {} warm, +{} steady   gradient scratch: {} warm, +{} steady (want +0)",
        pack_counters.warm, pack_counters.steady_delta, grad_counters.warm, grad_counters.steady_delta,
    );

    section(&format!(
        "end-to-end round: {} devices, K = {}, E = {}, min of {} interleaved rounds, eval off",
        sizes.devices, sizes.k, sizes.e, sizes.rounds
    ));
    let round = bench_round(&sizes);
    println!(
        "naive round:  {:>12}\nfused round:  {:>12}\nspeedup_vs_naive: {:.2}x (gate 1.5x, full mode)",
        fmt_ns(round.naive_ns),
        fmt_ns(round.fast_ns),
        round.speedup_vs_naive(),
    );
    println!(
        "samples/round: {}   fused throughput: {:.3e} sample/s",
        round.samples_per_round,
        round.samples_per_round as f64 / (round.fast_ns * 1e-9),
    );
    println!(
        "engine scratch allocations: {} warm, +{} across {} steady rounds",
        round.scratch.warm, round.scratch.steady_delta, sizes.rounds,
    );

    let report = json_report(
        smoke,
        &sizes,
        &kernels,
        &pack_counters,
        &grad_counters,
        &round,
    );
    fei_bench::write_bench_report("perf", smoke, &report).expect("failed to write BENCH_perf.json");

    // Gates. Per-kernel speedups and zero steady-state allocations are
    // enforced in every mode (the smoke lane runs them in CI); the
    // headline round ratio is only meaningful at full size.
    let mut failures: Vec<String> = Vec::new();
    for row in &kernels {
        if let Some(gate) = row.gate {
            if row.speedup() < gate {
                failures.push(format!(
                    "{} speedup {:.2}x below the {gate:.1}x gate",
                    row.name,
                    row.speedup()
                ));
            }
        }
    }
    if pack_counters.steady_delta != 0 {
        failures.push(format!(
            "pack scratch grew by {} allocations after warmup",
            pack_counters.steady_delta
        ));
    }
    if grad_counters.steady_delta != 0 {
        failures.push(format!(
            "gradient scratch grew by {} allocations after warmup",
            grad_counters.steady_delta
        ));
    }
    if round.scratch.steady_delta != 0 {
        failures.push(format!(
            "engine scratch grew by {} allocations across steady rounds",
            round.scratch.steady_delta
        ));
    }
    // The headline gate sits at 1.5x, not the 2.5x one might expect from
    // the per-kernel numbers: the bit-identity contract forbids FMA
    // contraction (one rounding vs two), which halves the FLOP ceiling of
    // the gradient phases, and the round runs its local jobs one at a time.
    // Measured full-mode headline spread is 1.58x-1.82x; the analysis
    // lives in EXPERIMENTS.md.
    if !smoke && round.speedup_vs_naive() < 1.5 {
        failures.push(format!(
            "headline speedup_vs_naive {:.2}x below the 1.5x gate",
            round.speedup_vs_naive()
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
