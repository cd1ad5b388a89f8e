//! Ablation: wire-compression tiers, byte-accurate upload energy, and the
//! re-planned `(K*, E*)`.
//!
//! The paper charges every upload a constant `e_U` sized for the full-f64
//! model. This ablation sweeps the wire codec's encoding tiers (`f64`,
//! `f32`, `q8`) with and without delta-vs-global mode, and asks three
//! questions per tier: how many uplink bytes does a round really move (the
//! engines' own `TransportStats`, not an estimate), what does encode+decode
//! cost in nanoseconds, and — feeding the true frame bytes through
//! [`EeFeiPlanner::replan_for_payload`] — where do the planned `(K*, E*)`
//! and the total campaign energy land once `B₁` reflects the compressed
//! payload?
//!
//! The lossless `f64` tier is the control: it must reproduce the
//! uncompressed engine bit-for-bit, so every other tier's end accuracy is
//! reported as a delta against it.
//!
//! Gates (full mode): `q8+delta` moves at least 4x fewer uplink bytes per
//! round than `f64`, every tier's end accuracy is within 0.5 pp of
//! lossless, and the codec performs zero steady-state allocations.
//!
//! Results are printed as a table and written to `BENCH_compression.json`
//! (schema in EXPERIMENTS.md). The file holds only what a rerun reproduces:
//! the codec timings are printed, not written (perfbench's
//! `net.encode_update_us`/`net.decode_update_us` own that measurement).
//!
//! Run: `cargo run --release -p fei-bench --bin ablation_compression`
//! CI smoke: append `-- --smoke` for a seconds-scale configuration.

use std::hint::black_box;
use std::time::Instant;

use fei_bench::{banner, section};
use fei_core::{
    ComputationModel, ConvergenceBound, DataCollectionModel, EeFeiPlanner, RoundEnergyModel,
    UploadModel,
};
use fei_fl::{Encoding, FedAvg, WireConfig};
use fei_net::{Link, WireScratch};
use fei_testbed::{FlExperiment, FlExperimentConfig};

/// Sizing knobs for one sweep run.
struct Sizes {
    /// Devices in the fleet.
    devices: usize,
    /// Fraction of the paper's training set to generate.
    scale: f64,
    /// Participants per round (`K`).
    k: usize,
    /// Local epochs (`E`).
    e: usize,
    /// Rounds trained per tier (accuracy is evaluated after the last).
    rounds: usize,
    /// Repetitions per codec measurement (median taken).
    codec_reps: usize,
}

const FULL: Sizes = Sizes {
    devices: 20,
    scale: 0.2,
    k: 10,
    e: 5,
    rounds: 25,
    codec_reps: 21,
};

/// Seconds-scale configuration for the CI smoke step.
const SMOKE: Sizes = Sizes {
    devices: 5,
    scale: 0.01,
    k: 4,
    e: 2,
    rounds: 3,
    codec_reps: 5,
};

/// The sweep: every encoding, absolute and delta-vs-global.
const TIERS: [WireConfig; 6] = [
    WireConfig {
        encoding: Encoding::F64,
        delta: false,
    },
    WireConfig {
        encoding: Encoding::F64,
        delta: true,
    },
    WireConfig {
        encoding: Encoding::F32,
        delta: false,
    },
    WireConfig {
        encoding: Encoding::F32,
        delta: true,
    },
    WireConfig {
        encoding: Encoding::Q8,
        delta: false,
    },
    WireConfig {
        encoding: Encoding::Q8,
        delta: true,
    },
];

/// One sweep cell, also emitted as a JSON object (schema in
/// EXPERIMENTS.md) without its timings.
struct Row {
    tier: WireConfig,
    payload_bytes: usize,
    uplink_bytes_per_round: u64,
    encode_ns: f64,
    decode_ns: f64,
    end_accuracy: f64,
    planned_k: usize,
    planned_e: usize,
    planned_energy_j: f64,
    nb_iot_k: usize,
    nb_iot_e: usize,
    nb_iot_energy_j: f64,
    wire_allocations_steady_delta: u64,
}

/// Median wall-clock of `reps` invocations of `f`, in nanoseconds, after one
/// untimed warmup call.
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Trains `sizes.rounds` rounds under `tier` and returns the engine (for
/// accuracy + transport stats) plus the steady-state codec allocation delta.
fn run_tier(sizes: &Sizes, tier: WireConfig) -> (FedAvg, u64) {
    let config = FlExperimentConfig {
        num_devices: sizes.devices,
        scale: sizes.scale,
        test_scale: sizes.scale,
        // Never evaluate mid-run: accuracy is measured once at the end.
        eval_every: 1 << 30,
        ..FlExperimentConfig::paper_like()
    }
    .with_transport(tier);
    let mut engine = FlExperiment::prepare(config).engine(sizes.k, sizes.e);
    // Warmup round: touches every codec allocation path once.
    engine.run_round();
    let warm = engine.wire_allocations();
    for _ in 1..sizes.rounds {
        engine.run_round();
    }
    let steady_delta = engine.wire_allocations() - warm;
    (engine, steady_delta)
}

/// Encode/decode medians over the trained global model (realistic value
/// distribution, not noise).
fn bench_codec(sizes: &Sizes, tier: WireConfig, params: &[f64]) -> (f64, f64) {
    let base: Vec<f64> = params.iter().map(|w| w * 0.99).collect();
    let global = tier.delta.then_some(base.as_slice());
    let mut scratch = WireScratch::new();
    let mut payload = Vec::new();
    let encode_ns = median_ns(sizes.codec_reps, || {
        black_box(scratch.encode_into(tier, black_box(params), global, &mut payload));
    });
    let mut decoded = Vec::new();
    let decode_ns = median_ns(sizes.codec_reps, || {
        scratch
            .decode_into(black_box(&payload), global, &mut decoded)
            .expect("self-encoded payload decodes");
        black_box(&decoded);
    });
    (encode_ns, decode_ns)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns * 1e-6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns * 1e-3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_row(row: &Row, lossless: &Row) -> String {
    format!(
        concat!(
            r#"{{"tier":"{}","encoding":"{}","delta":{},"payload_bytes":{},"#,
            r#""uplink_bytes_per_round":{},"reduction_vs_f64":{:.3},"#,
            r#""end_accuracy":{:.4},"#,
            r#""accuracy_delta_pp":{:.3},"wifi_k":{},"wifi_e":{},"#,
            r#""wifi_energy_j":{:.3},"wifi_energy_delta_vs_f64_j":{:.3},"#,
            r#""nb_iot_k":{},"nb_iot_e":{},"nb_iot_energy_j":{:.3},"#,
            r#""nb_iot_energy_delta_vs_f64_j":{:.3},"#,
            r#""wire_allocations_steady_delta":{}}}"#
        ),
        row.tier.name(),
        row.tier.encoding.name(),
        row.tier.delta,
        row.payload_bytes,
        row.uplink_bytes_per_round,
        lossless.uplink_bytes_per_round as f64 / row.uplink_bytes_per_round as f64,
        row.end_accuracy,
        (row.end_accuracy - lossless.end_accuracy) * 100.0,
        row.planned_k,
        row.planned_e,
        row.planned_energy_j,
        row.planned_energy_j - lossless.planned_energy_j,
        row.nb_iot_k,
        row.nb_iot_e,
        row.nb_iot_energy_j,
        row.nb_iot_energy_j - lossless.nb_iot_energy_j,
        row.wire_allocations_steady_delta,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke { SMOKE } else { FULL };

    banner("Ablation: wire compression tiers, bytes, and the re-planned (K*, E*)");

    // Planner with the A0 = 50 bound used by the other planning ablations:
    // under the headline A0 = 1 the budget collapses to T = 1 at E = 21 for
    // every payload, which hides the trade-off this sweep is after. Only the
    // upload term moves across tiers.
    let bound = ConvergenceBound::new(50.0, 0.05, 1e-4).expect("planning-ablation bound");
    let planner = EeFeiPlanner::new(RoundEnergyModel::paper_default(), bound, 0.1, 20)
        .expect("paper-like plan is feasible");
    let uplink = Link::wifi_uplink();
    // Second scenario: data already resident on-device (no per-round
    // collection) and an NB-IoT uplink whose 7.74 mJ/byte constant makes
    // e_U payload-dominated. Here B1 is essentially the upload itself, so
    // compression visibly moves (K*, E*), not just the energy total.
    let nb_iot = Link::nb_iot();
    let nb_energy = RoundEnergyModel::new(
        DataCollectionModel::new(1e-4).expect("valid rho"),
        ComputationModel::paper_fit(),
        UploadModel::wifi_default(),
        3_000,
    )
    .expect("valid cached-data model");
    let nb_planner =
        EeFeiPlanner::new(nb_energy, bound, 0.1, 20).expect("cached-data plan is feasible");

    section(&format!(
        "encoding x delta ({} devices, K = {}, E = {}, {} rounds per tier)",
        sizes.devices, sizes.k, sizes.e, sizes.rounds
    ));
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>9} {:>11} {:>11} {:>12}",
        "tier",
        "payload",
        "uplink/rnd",
        "encode",
        "decode",
        "accuracy",
        "wifi K*/E*",
        "nbiot K*/E*",
        "nbiot energy"
    );

    let mut rows: Vec<Row> = Vec::new();
    for tier in TIERS {
        let (mut engine, steady_delta) = run_tier(&sizes, tier);
        let params = engine.global_model().to_flat().to_vec();
        let payload_bytes = tier.payload_len(params.len());
        let stats = engine.transport_stats();
        let (encode_ns, decode_ns) = bench_codec(&sizes, tier, &params);
        let plan = planner
            .replan_for_payload(&uplink, payload_bytes)
            .expect("payload replan stays feasible");
        let nb_plan = nb_planner
            .replan_for_payload(&nb_iot, payload_bytes)
            .expect("nb-iot replan stays feasible");
        let row = Row {
            tier,
            payload_bytes,
            uplink_bytes_per_round: stats.bytes_up / sizes.rounds as u64,
            encode_ns,
            decode_ns,
            end_accuracy: engine.evaluate().accuracy,
            planned_k: plan.solution.k,
            planned_e: plan.solution.e,
            planned_energy_j: plan.solution.energy,
            nb_iot_k: nb_plan.solution.k,
            nb_iot_e: nb_plan.solution.e,
            nb_iot_energy_j: nb_plan.solution.energy,
            wire_allocations_steady_delta: steady_delta,
        };
        println!(
            "{:>10} {:>10} {:>12} {:>10} {:>10} {:>8.2}% {:>11} {:>11} {:>10.0} J",
            row.tier.name(),
            row.payload_bytes,
            row.uplink_bytes_per_round,
            fmt_ns(row.encode_ns),
            fmt_ns(row.decode_ns),
            row.end_accuracy * 100.0,
            format!("{}/{}", row.planned_k, row.planned_e),
            format!("{}/{}", row.nb_iot_k, row.nb_iot_e),
            row.nb_iot_energy_j,
        );
        rows.push(row);
    }

    let lossless = &rows[0];
    let q8_delta = rows
        .iter()
        .find(|r| r.tier.encoding == Encoding::Q8 && r.tier.delta)
        .expect("sweep includes q8+delta");
    let reduction = lossless.uplink_bytes_per_round as f64 / q8_delta.uplink_bytes_per_round as f64;
    let worst_accuracy_gap_pp = rows
        .iter()
        .map(|r| (r.end_accuracy - lossless.end_accuracy).abs() * 100.0)
        .fold(0.0, f64::max);
    let steady_allocations: u64 = rows.iter().map(|r| r.wire_allocations_steady_delta).sum();

    section("machine-readable (JSON)");
    let mut report = String::new();
    report.push_str("{\n");
    report.push_str(&format!(
        "  \"schema\": \"BENCH_compression.v2\",\n  \"smoke\": {smoke},\n"
    ));
    report.push_str(&format!(
        "  \"devices\": {}, \"k\": {}, \"e\": {}, \"rounds\": {},\n",
        sizes.devices, sizes.k, sizes.e, sizes.rounds
    ));
    report.push_str("  \"tiers\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        report.push_str(&format!("    {}{comma}\n", json_row(row, lossless)));
    }
    report.push_str("  ],\n");
    report.push_str(&format!(
        "  \"q8_delta_reduction_vs_f64\": {reduction:.3},\n  \"worst_accuracy_gap_pp\": {worst_accuracy_gap_pp:.3},\n  \"wire_allocations_steady_total\": {steady_allocations}\n"
    ));
    report.push_str("}\n");
    print!("{report}");
    fei_bench::write_bench_report("compression", smoke, &report)
        .expect("failed to write BENCH_compression.json");

    println!(
        "\nreading: q8+delta moves {reduction:.1}x fewer uplink bytes than lossless\n\
         f64 while the end accuracy stays within {worst_accuracy_gap_pp:.2} pp of it. Over WiFi\n\
         the upload term is airtime-dominated, so the plan barely moves; over\n\
         NB-IoT (7.74 mJ/byte) e_U is payload-dominated and compression visibly\n\
         shifts the optimum: saved joules per upload mean less pressure to batch\n\
         local epochs, so E* drops with the payload — exactly the Eq. 12 coupling\n\
         the constant-e_U model hides."
    );

    // Gates. The byte reduction and allocation discipline are deterministic,
    // so they hold in smoke mode too; the accuracy gate needs real training
    // and only runs on the full configuration.
    let mut failed = false;
    if reduction < 4.0 {
        eprintln!("GATE FAILED: q8+delta uplink reduction {reduction:.2} below 4x");
        failed = true;
    }
    if steady_allocations != 0 {
        eprintln!("GATE FAILED: {steady_allocations} steady-state codec allocations (want 0)");
        failed = true;
    }
    if !smoke && worst_accuracy_gap_pp > 0.5 {
        eprintln!("GATE FAILED: accuracy gap {worst_accuracy_gap_pp:.3} pp exceeds 0.5 pp");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
