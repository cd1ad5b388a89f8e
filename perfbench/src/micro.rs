//! Single-layer microbenchmarks, timed from outside through public
//! functions, at the shapes the round really uses: 150 samples per device,
//! 784 × 10 weights, 7 850 parameters, 64-byte and 62 807-byte frames.
//!
//! They run in every traced pass, whatever the workload, so a layer's own
//! number is on record next to the workload numbers it should (or should
//! not) move.

use std::hint::black_box;
use std::net::TcpListener;
use std::time::Instant;

use crate::api::{
    fused_axpy_shrink, Cluster, ClusterConfig, ControlFrame, ConvergenceBound, DiskJournal,
    EeFeiPlanner, FlExperiment, FrameConn, GradScratch, LocalTrainer, LogisticRegression, Matrix,
    RoundEnergyModel, TraceEvent, TraceSink, WireConfig, WireScratch,
};
use crate::inproc::{self, Spec, HEADLINE_SERIAL};
use crate::metrics::Outcome;
use crate::stats;
use crate::tcp::{CampaignSpec, WorkDir};

const SAMPLES: usize = 150;
const DIM: usize = 784;
const CLASSES: usize = 10;
const PARAMS: usize = (DIM + 1) * CLASSES;

/// Median time of one call, in microseconds, over `reps` timing samples of
/// `inner` back-to-back calls each (microsecond kernels are shorter than
/// the timer is precise), after one untimed warm-up sample.
fn median_us(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let started = Instant::now();
        for _ in 0..inner {
            f();
        }
        if rep > 0 {
            samples.push(started.elapsed().as_secs_f64() * 1e6 / inner as f64);
        }
    }
    stats::median(&samples)
}

/// Deterministic fill in `[-0.5, 0.5)`, from the workload seed.
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

/// Runs every microbenchmark. `tier` is the workload's uplink encoding and
/// `record_bytes` the size of its typical journal record.
///
/// # Errors
///
/// A message when a scratch file or loopback socket cannot be set up.
pub fn run(
    out: &mut Outcome,
    seed: u64,
    tier: WireConfig,
    record_bytes: usize,
) -> Result<(), String> {
    data_and_training(out, seed);
    kernels(out, seed);
    codec(out, seed, tier);
    frame_rtt(out)?;
    engines(out, seed);
    protocol_core(out);
    durability(out, record_bytes)?;
    planner(out)?;
    Ok(())
}

fn data_and_training(out: &mut Outcome, seed: u64) {
    let config = HEADLINE_SERIAL.config(seed);
    let mut generate_ms = Vec::new();
    let mut data = None;
    for _ in 0..3 {
        let started = Instant::now();
        data = Some(inproc::generate(&config));
        generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    out.set("data.generate_ms", stats::median(&generate_ms));

    // One device's job at E = 1 and E = 11: the difference is ten gradient
    // steps, the rest of the E = 1 job is its fixed cost (the loss
    // evaluations before and after).
    let data = data.expect("invariant: the loop above ran three times");
    let client = &data.clients[0];
    let trainer = LocalTrainer::new(config.sgd.clone());
    let mut scratch = GradScratch::new();
    let mut job_us = |epochs: usize| {
        median_us(15, 1, || {
            let mut model = LogisticRegression::zeros(client.dim(), client.num_classes());
            black_box(trainer.train_with(&mut model, client, epochs, 0, &mut scratch));
        })
    };
    let (one, eleven) = (job_us(1), job_us(11));
    let step = (eleven - one) / 10.0;
    out.set("ml.grad_step_us", step);
    out.set("ml.job_fixed_us", one - step);
}

fn kernels(out: &mut Outcome, seed: u64) {
    let x = Matrix::from_vec(SAMPLES, DIM, lcg_vec(SAMPLES * DIM, seed ^ 1));
    let w = Matrix::from_vec(DIM, CLASSES, lcg_vec(DIM * CLASSES, seed ^ 2));
    let err = Matrix::from_vec(SAMPLES, CLASSES, lcg_vec(SAMPLES * CLASSES, seed ^ 3));
    out.set(
        "math.matmul_us",
        median_us(15, 4, || {
            black_box(black_box(&x).matmul(black_box(&w)));
        }),
    );
    out.set(
        "math.matmul_tn_us",
        median_us(15, 4, || {
            black_box(black_box(&x).matmul_tn(black_box(&err)));
        }),
    );
    let a = lcg_vec(DIM, seed ^ 4);
    let b = lcg_vec(DIM, seed ^ 5);
    out.set(
        "math.dot_us",
        median_us(15, 2000, || {
            black_box(crate::api::dot(black_box(&a), black_box(&b)));
        }),
    );
    // In place and value-independent, so no reset between calls.
    let mut y = lcg_vec(PARAMS, seed ^ 6);
    let g = lcg_vec(PARAMS, seed ^ 7);
    out.set(
        "math.axpy_shrink_us",
        median_us(15, 200, || {
            fused_axpy_shrink(black_box(&mut y), -1e-9, black_box(&g), 1e-12);
        }),
    );
}

fn codec(out: &mut Outcome, seed: u64, tier: WireConfig) {
    let global = lcg_vec(PARAMS, seed ^ 8);
    let params: Vec<f64> = lcg_vec(PARAMS, seed ^ 9)
        .iter()
        .zip(&global)
        .map(|(d, g)| g + d * 1e-2)
        .collect();
    let mut wire = WireScratch::new();
    let mut buf = Vec::new();
    out.set(
        "net.encode_update_us",
        median_us(15, 20, || {
            buf.clear();
            black_box(wire.encode_into(tier, black_box(&params), Some(&global), &mut buf));
        }),
    );
    let mut decoded = Vec::new();
    out.set(
        "net.decode_update_us",
        median_us(15, 20, || {
            black_box(
                wire.decode_into(black_box(&buf), Some(&global), &mut decoded)
                    .expect("invariant: a payload this scratch just encoded decodes"),
            );
        }),
    );
}

/// One frame through a loopback `FrameConn` pair: `send` on one end until
/// `poll` returns it on the other.
fn frame_rtt(out: &mut Outcome) -> Result<(), String> {
    let io = |e: std::io::Error| format!("loopback socket: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut tx = FrameConn::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (stream, _) = listener.accept().map_err(io)?;
    let mut rx = FrameConn::from_stream(stream).map_err(io)?;
    for (name, payload) in [
        ("net.frame_rtt_us_64", 64),
        ("net.frame_rtt_us_62807", 62_807),
    ] {
        let frame = ControlFrame::UpdateSubmit {
            round: 1,
            client: 1,
            samples: 1,
            update: vec![0xAB; payload],
        }
        .encode();
        let mut failure = None;
        let us = median_us(101, 1, || {
            if let Err(e) = tx.send(&frame) {
                failure = Some(format!("loopback send: {e}"));
                return;
            }
            loop {
                match rx.poll() {
                    Ok(Some(raw)) => {
                        black_box(raw);
                        break;
                    }
                    Ok(None) => std::hint::spin_loop(),
                    Err(e) => {
                        failure = Some(format!("loopback poll: {e}"));
                        break;
                    }
                }
            }
        });
        if let Some(failure) = failure {
            return Err(failure);
        }
        out.set(name, us);
    }
    Ok(())
}

/// Both engines on the headline shape with evaluation off: the cost of the
/// threaded engine's frames, channels and worker threads against its gain.
fn engines(out: &mut Outcome, seed: u64) {
    let spec = Spec {
        eval: false,
        ..HEADLINE_SERIAL
    };
    let exp = FlExperiment::prepare(spec.config(seed));
    let mut serial = exp.engine(spec.k, spec.e);
    let mut threaded = exp.threaded_engine(spec.k, spec.e);
    // One engine after the other: alternating them round by round times
    // each with the other's working set in the cache.
    let serial_ms: Vec<f64> = (0..9)
        .map(|_| stats::timed_ms(|| black_box(serial.run_round())).1)
        .collect();
    let threaded_ms: Vec<f64> = (0..9)
        .map(|_| stats::timed_ms(|| black_box(threaded.run_round())).1)
        .collect();
    let (serial, threaded) = (stats::median(&serial_ms), stats::median(&threaded_ms));
    out.set("fl.serial_round_ms", serial);
    out.set("fl.threaded_round_ms", threaded);
    out.set("fl.threaded_speedup", serial / threaded);
}

/// The socket-free `Cluster` on a quiet wire: the coordinator's decision
/// core and the frame codec alone, no sockets, no disk, no sleeps.
fn protocol_core(out: &mut Outcome) {
    const ROUNDS: u64 = 200;
    let coordinator = CampaignSpec {
        global_bytes: 64,
        rounds: ROUNDS,
    }
    .coordinator();
    let us = median_us(5, 1, || {
        let report = Cluster::new(ClusterConfig::quiet(coordinator.clone(), 2, ROUNDS)).run();
        assert_eq!(
            report.committed, ROUNDS,
            "quiet cluster commits every round"
        );
    });
    out.set("proto.cluster_round_us", us / ROUNDS as f64);
}

/// The two durable appends the daemon makes before a journaled transition
/// takes effect, in a work directory beside the TCP workloads' own.
fn durability(out: &mut Outcome, record_bytes: usize) -> Result<(), String> {
    const APPENDS: usize = 60;
    let dir = WorkDir::create("micro")?;
    let (mut store, _) = DiskJournal::open(&dir.path().join("micro.journal"))
        .map_err(|e| format!("open micro journal: {e}"))?;
    let mut journal = Vec::with_capacity(record_bytes * APPENDS);
    let mut fsync_us = Vec::with_capacity(APPENDS);
    for _ in 0..APPENDS {
        journal.resize(journal.len() + record_bytes, 0x5A);
        let started = Instant::now();
        store
            .sync_to(&journal)
            .map_err(|e| format!("micro journal sync: {e}"))?;
        fsync_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    store
        .close()
        .map_err(|e| format!("close micro journal: {e}"))?;
    out.set("proto.fsync_us_p50", stats::median(&fsync_us));

    let mut sink = TraceSink::create(&dir.path().join("micro.trace"))
        .map_err(|e| format!("create micro trace: {e}"))?;
    let mut trace_us = Vec::with_capacity(APPENDS);
    for tick in 0..APPENDS as u64 {
        let event = TraceEvent::Deliver {
            tick,
            bytes: vec![0x5A; record_bytes],
        };
        let started = Instant::now();
        sink.append(&event)
            .and_then(|()| sink.sync())
            .map_err(|e| format!("micro trace append: {e}"))?;
        trace_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out.set("proto.trace_sync_us_p50", stats::median(&trace_us));
    Ok(())
}

/// Algorithm 1 on the paper's default models: a tripwire, since planning
/// happens once per campaign and moves nothing per round at this scale.
fn planner(out: &mut Outcome) -> Result<(), String> {
    let core = |e: crate::api::CoreError| format!("planner: {e}");
    let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).map_err(core)?;
    let planner =
        EeFeiPlanner::new(RoundEnergyModel::paper_default(), bound, 0.1, 20).map_err(core)?;
    let mut iterations = 0;
    let us = median_us(15, 1, || {
        iterations = black_box(planner.plan())
            .map(|plan| plan.solution.iterations)
            .unwrap_or(0);
    });
    out.set("core.plan_us", us);
    out.set("core.acs_iterations", iterations as f64);
    Ok(())
}
