//! The in-process rungs: the serial and the threaded round engine on the
//! paper-like campaign, one caller thread.
//!
//! Untraced, the benchmark only times `run_round()`. Traced, it composes
//! the same round itself out of the engine's public parts — select, clone,
//! `train_with`, wire round trip, aggregate, evaluate — with a span around
//! each, beside untouched engines on the same inputs, and all of them must
//! end on the bit-identical global model: the spans then measure the
//! engine's arithmetic, not a lookalike.

use std::time::Instant;

use crate::api::{
    try_aggregate, AggregationRule, ClientSelector, Dataset, DetRng, Encoding, Evaluation, FedAvg,
    FlExperiment, FlExperimentConfig, GradScratch, LocalTrainer, LogisticRegression, Partition,
    SelectionStrategy, SyntheticMnist, ThreadedFedAvg, TransportStats, WireConfig, WireScratch,
};
use crate::energy::{self, Bill, Traffic};
use crate::metrics::Outcome;
use crate::procfs;
use crate::span::{self, Recorder};
use crate::stats;

/// Test accuracy that counts as "trained". The paper's stringent 0.92 sits
/// on the generator's label-noise ceiling (8 % flipped labels), so on most
/// data seeds it is never reached; its easy target is reached on all.
pub const TARGET_ACCURACY: f64 = 0.89;

/// Rounds after which the engines' global models are compared.
const CHECK_ROUNDS: usize = 20;

/// Times the set-up is repeated; the median is reported.
const SETUP_REPEATS: usize = 5;

/// Per-layer metrics only the TCP workloads can give; 0 here.
const FOREIGN: [&str; 13] = [
    "proto.cycles_per_round",
    "proto.select_to_submit_ms_p50",
    "proto.submit_to_commit_ms_p50",
    "proto.turnaround_ms_p50",
    "proto.frames_per_round",
    "proto.rejected_frames",
    "proto.retransmit_ratio",
    "proto.journal_bytes_per_round",
    "proto.trace_bytes_per_round",
    "proto.rss_kb_per_round",
    "proto.round_ms_drift",
    "proto.replay_events_per_s",
    "proto.recover_ms_p50",
];

/// One in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub k: usize,
    pub e: usize,
    pub threaded: bool,
    pub transport: WireConfig,
    /// Evaluate the global model every round (else never).
    pub eval: bool,
    /// Rounds measured per second of `--seconds`, from the sizing runs: a
    /// fixed count per run length, so counts repeat exactly.
    pub rounds_per_second: f64,
}

pub const HEADLINE_SERIAL: Spec = Spec {
    k: 10,
    e: 10,
    threaded: false,
    transport: WireConfig {
        encoding: Encoding::F64,
        delta: false,
    },
    eval: true,
    rounds_per_second: 12.5,
};

pub const FANOUT_THREADED: Spec = Spec {
    k: 20,
    e: 1,
    threaded: true,
    transport: WireConfig {
        encoding: Encoding::Q8,
        delta: true,
    },
    eval: false,
    rounds_per_second: 56.0,
};

impl Spec {
    pub fn rounds(&self, seconds: u64) -> usize {
        ((self.rounds_per_second * seconds as f64).round() as usize).max(CHECK_ROUNDS + 1)
    }

    /// The campaign configuration. `seed` feeds the data generator, the
    /// partition and client selection; the product sees nothing else of it.
    pub fn config(&self, seed: u64) -> FlExperimentConfig {
        let mut config = FlExperimentConfig::paper_like();
        config.seed = seed;
        config.data.seed = seed ^ 0x5EED_F00D;
        config.eval_every = if self.eval { 1 } else { usize::MAX };
        config.transport = self.transport;
        config
    }
}

/// Either round engine behind one face.
enum Engine {
    Serial(FedAvg),
    Threaded(ThreadedFedAvg),
}

/// What the benchmark reads off one engine round.
struct RoundFacts {
    committed: bool,
    accuracy: Option<f64>,
}

impl Engine {
    fn build(exp: &FlExperiment, spec: &Spec, threaded: bool) -> Self {
        if threaded {
            Engine::Threaded(exp.threaded_engine(spec.k, spec.e))
        } else {
            Engine::Serial(exp.engine(spec.k, spec.e))
        }
    }

    fn run_round(&mut self) -> RoundFacts {
        let record = match self {
            Engine::Serial(engine) => engine.run_round(),
            Engine::Threaded(engine) => engine.run_round(),
        };
        RoundFacts {
            committed: record.outcome.committed()
                && record.responded.len() == record.selected.len(),
            accuracy: record.test_eval.map(|eval| eval.accuracy),
        }
    }

    fn global_bits(&self) -> Vec<u64> {
        let flat = match self {
            Engine::Serial(engine) => engine.global_model().to_flat(),
            Engine::Threaded(engine) => engine.global_model().to_flat(),
        };
        bits(flat)
    }

    fn transport(&self) -> TransportStats {
        match self {
            Engine::Serial(engine) => engine.transport_stats(),
            Engine::Threaded(engine) => engine.transport_stats(),
        }
    }
}

fn bits(flat: &[f64]) -> Vec<u64> {
    flat.iter().map(|w| w.to_bits()).collect()
}

/// Prices an engine's measured transport totals.
fn bill(spec: &Spec, samples: usize, transport: &TransportStats) -> Bill {
    Bill {
        training: (transport.jobs, spec.e, samples),
        uploads: Traffic::split(transport.bytes_up, transport.jobs),
        downloads: Traffic::split(transport.bytes_down, transport.jobs),
        retransmits: Traffic::split(transport.bytes_retransmitted, 1),
        // The engines report control bytes as one total; nearly all of it
        // (selection notices, verdicts) travels down.
        control_up_bytes: 0,
        control_down_bytes: transport.bytes_control,
    }
}

fn total_bytes(t: &TransportStats) -> u64 {
    t.bytes_up + t.bytes_down + t.bytes_control + t.bytes_retransmitted
}

/// What driving an untouched engine for some rounds gave.
struct Driven {
    round_ms: Vec<f64>,
    wall_s: f64,
    /// Global-model bits after `CHECK_ROUNDS` rounds.
    snapshot: Vec<u64>,
    /// First round with test accuracy at the target, and the seconds in.
    target: Option<(usize, f64)>,
}

/// Times `rounds` calls of `run_round()`, counting each as attempted and a
/// round that did not commit in full as failed.
fn drive(engine: &mut Engine, rounds: usize, out: &mut Outcome) -> Driven {
    let mut driven = Driven {
        round_ms: Vec::with_capacity(rounds),
        wall_s: 0.0,
        snapshot: Vec::new(),
        target: None,
    };
    let started = Instant::now();
    for round in 1..=rounds {
        let (facts, ms) = stats::timed_ms(|| engine.run_round());
        driven.round_ms.push(ms);
        out.attempted += 1;
        out.failed += u64::from(!facts.committed);
        if driven.target.is_none() && facts.accuracy.is_some_and(|a| a >= TARGET_ACCURACY) {
            driven.target = Some((round, started.elapsed().as_secs_f64()));
        }
        if round == CHECK_ROUNDS {
            driven.snapshot = engine.global_bits();
        }
    }
    driven.wall_s = started.elapsed().as_secs_f64();
    driven
}

/// The untraced run: every end-to-end metric of one in-process workload.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let rounds = spec.rounds(seconds);

    // Set-up, several times over: data generation, partition, engine
    // construction (worker threads included). The last engine is measured.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        let exp = FlExperiment::prepare(spec.config(seed));
        let engine = Engine::build(&exp, spec, spec.threaded);
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some((exp, engine));
    }
    let (exp, mut engine) = prepared.expect("invariant: SETUP_REPEATS is at least one");

    let cpu_before = procfs::self_cpu().own_s;
    let Driven {
        round_ms,
        wall_s,
        snapshot,
        target,
    } = drive(&mut engine, rounds, &mut out);
    let cpu_s = procfs::self_cpu().own_s - cpu_before;

    // The other engine on the same campaign must reach the same bits.
    let mut other = Engine::build(&exp, spec, !spec.threaded);
    for _ in 0..CHECK_ROUNDS {
        other.run_round();
    }
    out.check(
        other.global_bits() == snapshot,
        "serial and threaded engines differ in global-model bits",
    );

    let transport = engine.transport();
    let ledger = energy::price(&bill(spec, exp.samples_per_device(), &transport));
    let per_round = |x: f64| x / rounds as f64;
    out.set("setup_s", stats::median(&setups));
    out.set("rounds_per_s", rounds as f64 / wall_s);
    out.set("round_ms_p50", stats::median(&round_ms));
    out.set("joules_per_round", per_round(ledger.total_joules()));
    out.set("bytes_per_round", per_round(total_bytes(&transport) as f64));
    out.set("cpu_s_per_round", per_round(cpu_s));
    out.set(
        "peak_rss_mb",
        procfs::vm_hwm_kb(std::process::id()).unwrap_or(0) as f64 / 1024.0,
    );
    out.note(format!(
        "{rounds} rounds in {wall_s:.3} s, {} set-ups; {}",
        setups.len(),
        stats::tail_note(&round_ms),
    ));
    if spec.eval {
        out.note(match target {
            Some((round, at_s)) => format!(
                "test accuracy {TARGET_ACCURACY} first reached in round {round}, {at_s:.3} s in"
            ),
            None => format!("test accuracy {TARGET_ACCURACY} not reached in {rounds} rounds"),
        });
    }
    out
}

/// The campaign's datasets, generated the way `FlExperiment::prepare`
/// does. The composed round needs the per-client sets, which the
/// experiment keeps private; the bit-identity check holds the two recipes
/// together.
pub struct Data {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
}

pub fn generate(config: &FlExperimentConfig) -> Data {
    let generator = SyntheticMnist::new(config.data.clone());
    let train = generator.generate((60_000.0 * config.scale).round() as usize, 0);
    let test = generator.generate((10_000.0 * config.test_scale).round() as usize, 1);
    let mut rng = DetRng::new(config.seed).fork(0x9A87);
    let clients = Partition::iid(train.len(), config.num_devices, &mut rng).apply(&train);
    Data { clients, test }
}

/// The round, composed by the benchmark out of the engine's public parts.
struct Composed<'a> {
    spec: &'a Spec,
    data: &'a Data,
    global: LogisticRegression,
    selector: ClientSelector,
    trainer: LocalTrainer,
    scratch: GradScratch,
    wire: WireScratch,
    wire_buf: Vec<u8>,
    grad_steps: u64,
}

impl<'a> Composed<'a> {
    fn new(spec: &'a Spec, config: &FlExperimentConfig, data: &'a Data) -> Self {
        let first = &data.clients[0];
        // The engine seed `FlExperiment::engine` derives for `(K, E)`.
        let engine_seed = config.seed ^ ((spec.k as u64) << 32) ^ spec.e as u64;
        Self {
            spec,
            data,
            global: LogisticRegression::zeros(first.dim(), first.num_classes()),
            selector: ClientSelector::new(
                SelectionStrategy::UniformRandom,
                data.clients.len(),
                engine_seed,
            ),
            trainer: LocalTrainer::new(config.sgd.clone()),
            scratch: GradScratch::new(),
            wire: WireScratch::new(),
            wire_buf: Vec::new(),
            grad_steps: 0,
        }
    }

    fn round(&mut self, t: usize, rec: &mut Recorder) {
        let id = t as u64;
        rec.enter("round", id);
        let selected = rec.span("fl.select", id, || self.selector.select(t, self.spec.k));
        let global_flat = self.global.to_flat().to_vec();
        let mut updates = Vec::with_capacity(selected.len());
        for &client in &selected {
            let data = &self.data.clients[client];
            let mut local = self.global.clone();
            let stats = rec.span("ml.train", id, || {
                self.trainer
                    .train_with(&mut local, data, self.spec.e, t, &mut self.scratch)
            });
            self.grad_steps += stats.gradient_steps as u64;
            let mut params = local.to_flat().to_vec();
            rec.span("net.round_trip", id, || {
                self.wire.round_trip(
                    self.spec.transport,
                    &mut params,
                    Some(&global_flat),
                    &mut self.wire_buf,
                )
            });
            updates.push((params, data.len()));
        }
        let merged = rec
            .span("fl.aggregate", id, || {
                try_aggregate(&updates, AggregationRule::Uniform)
            })
            .expect("invariant: K equal-length updates aggregate");
        self.global.set_flat(&merged);
        if self.spec.eval {
            rec.span("ml.eval", id, || {
                let total: usize = self.data.clients.iter().map(Dataset::len).sum();
                let weighted: f64 = self
                    .data
                    .clients
                    .iter()
                    .map(|c| self.global.loss(c) * c.len() as f64)
                    .sum();
                std::hint::black_box(weighted / total as f64);
                std::hint::black_box(Evaluation::of(&self.global, &self.data.test));
            });
        }
        rec.exit();
    }
}

/// The traced run: the per-layer metrics this workload's pass can give
/// (the microbenchmarks and zeros for foreign layers are added by the
/// caller). Returns the spans for the trace file.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64, out: &mut Outcome) -> Vec<span::Span> {
    let rounds = (spec.rounds(seconds) / 5).max(CHECK_ROUNDS);
    let config = spec.config(seed);
    let exp = FlExperiment::prepare(config.clone());
    let data = generate(&config);

    // Untouched engines: the workload's own, and the serial one the
    // composition mirrors (the same engine on `headline_serial`).
    let mut own = Engine::build(&exp, spec, spec.threaded);
    let mut serial = spec.threaded.then(|| Engine::build(&exp, spec, false));
    let mut composed = Composed::new(spec, &config, &data);
    let mut rec = Recorder::with_capacity(rounds * (4 + 2 * spec.k) + 16);

    // One pass after the other, not interleaved: three copies of the
    // fleet's data do not fit the cache together, and an engine timed
    // between two strangers is slower than the engine the untraced run
    // times.
    let Driven {
        round_ms: own_ms,
        target,
        ..
    } = drive(&mut own, rounds, out);
    let serial_ms: Vec<f64> = serial
        .iter_mut()
        .flat_map(|serial| (0..rounds).map(|_| stats::timed_ms(|| serial.run_round()).1))
        .collect();
    let mut composed_ms = Vec::with_capacity(rounds);
    let (mut scratch_warm, mut wire_warm) = (0, 0);
    for t in 0..rounds {
        composed_ms.push(stats::timed_ms(|| composed.round(t, &mut rec)).1);
        if t == 0 {
            scratch_warm = composed.scratch.allocations();
            wire_warm = composed.wire.allocations();
        }
    }
    let composed_bits = bits(composed.global.to_flat());
    out.check(
        composed_bits == own.global_bits(),
        "composed rounds and the workload's engine differ in global-model bits",
    );
    if let Some(serial) = &serial {
        out.check(
            composed_bits == serial.global_bits(),
            "composed rounds and the serial engine differ in global-model bits",
        );
    }

    let spans = rec.spans();
    let n = rounds as f64;
    let sum_ms = |name: &str| span::durations_us(spans, name).iter().sum::<f64>() / 1e3;
    // Per-round sums of the layer spans (the children of each round span).
    let mut children_per_round = vec![0.0; rounds];
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        children_per_round[s.round as usize] += s.duration_ns() as f64 / 1e6;
    }
    let reference_ms = if spec.threaded { &serial_ms } else { &own_ms };

    out.set("round_ms_p95", stats::percentile(&own_ms, 95.0));
    out.set("ml.grad_steps_per_round", composed.grad_steps as f64 / n);
    out.set("ml.train_ms_per_round", sum_ms("ml.train") / n);
    out.set("ml.eval_ms_per_round", sum_ms("ml.eval") / n);
    out.set(
        "ml.scratch_allocs_steady",
        (composed.scratch.allocations() - scratch_warm) as f64,
    );
    out.set("net.codec_ms_per_round", sum_ms("net.round_trip") / n);
    out.set(
        "net.wire_allocs_steady",
        (composed.wire.allocations() - wire_warm) as f64,
    );
    out.set(
        "fl.select_us",
        stats::mean(&span::durations_us(spans, "fl.select")),
    );
    out.set(
        "fl.aggregate_us",
        stats::mean(&span::durations_us(spans, "fl.aggregate")),
    );
    out.set(
        "fl.engine_self_ms",
        stats::median(&own_ms) - stats::median(&children_per_round),
    );
    let (target_round, target_s) = target.unwrap_or((0, 0.0));
    out.set("fl.rounds_to_target", target_round as f64);
    out.set("fl.time_to_target_s", target_s);
    out.set(
        "trace.coverage",
        children_per_round.iter().sum::<f64>() / sum_ms("round"),
    );
    out.set(
        "trace.overhead_pct",
        (stats::median(&composed_ms) / stats::median(reference_ms) - 1.0) * 100.0,
    );

    let transport = own.transport();
    let ledger = energy::price(&bill(spec, exp.samples_per_device(), &transport));
    out.set("net.bytes_up_per_round", transport.bytes_up as f64 / n);
    out.set("net.bytes_down_per_round", transport.bytes_down as f64 / n);
    energy::set_split(out, &ledger, n);
    for name in FOREIGN {
        out.set(name, 0.0);
    }
    out.note(format!(
        "{rounds} traced rounds; engine round p50 {:.3} ms, composed {:.3} ms",
        stats::median(&own_ms),
        stats::median(&composed_ms)
    ));
    rec.into_spans()
}
