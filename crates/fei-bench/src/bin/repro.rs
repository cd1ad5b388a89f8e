//! Regenerates the paper's tables and figures (DESIGN.md §4) from one
//! campaign [`Surface`]: every `(K, E)` is trained once per process, however
//! many artifacts read it, and the bound calibration is fitted once.
//!
//! Run: `cargo run --release -p fei-bench --bin repro [-- artifact…|all]`.
//! With no argument every artifact runs, in the order of [`ARTIFACTS`], and
//! every number they print is written, exactly, to `BENCH_repro.json`;
//! named artifacts only print. `all` does what no argument does, then runs
//! the other reporting bins as sibling processes (build them first:
//! `cargo build --release -p fei-bench --bins`).

use std::fmt::Display;
use std::process::Command;

use fei_bench::{banner, fmt_joules, section, sparkline, write_bench_report, Rows, Surface};
use fei_core::calibration::{fit_timing_model, paper_table1, TRAINING_POWER_WATTS};
use fei_core::{AcsOptimizer, EeFeiPlanner, EnergyObjective, GridSearch};
use fei_fl::TrainingHistory;
use fei_ml::LogisticRegression;
use fei_power::{per_state_mean_power, PowerState};
use fei_sim::DetRng;
use fei_testbed::{
    FlExperiment, FlExperimentConfig, RaspberryPi, Testbed, EASY_TARGET, STRINGENT_TARGET,
};

type Artifact = fn(&mut Surface, &mut Rows);

/// The paper artifacts, in the order EXPERIMENTS.md presents them.
const ARTIFACTS: [(&str, Artifact); 8] = [
    ("table1", table1),
    ("table2", table2),
    ("fig3", fig3),
    ("fig4a", fig4a),
    ("fig4c", fig4c),
    ("fig5", fig5),
    ("fig6", fig6),
    ("headline", headline),
];

/// The reporting bins that are not paper artifacts, run by `repro all`.
const SIBLINGS: [&str; 8] = [
    "sensitivity",
    "ablation_noniid",
    "ablation_collection",
    "ablation_eq17",
    "ablation_scheduling",
    "ablation_stragglers",
    "ablation_model",
    "ablation_async",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let everything = args.is_empty() || args == ["all"];
    let chosen = if everything {
        ARTIFACTS.to_vec()
    } else {
        args.iter()
            .map(|arg| {
                *ARTIFACTS
                    .iter()
                    .find(|(name, _)| name == arg)
                    .unwrap_or_else(|| {
                        let names = ARTIFACTS.map(|(name, _)| name);
                        eprintln!("unknown artifact {arg:?}; expected `all` or any of {names:?}");
                        std::process::exit(2)
                    })
            })
            .collect()
    };
    let mut surface = Surface::new(FlExperiment::prepare(FlExperimentConfig::paper_like()));
    let mut rows = Rows::default();
    for (name, artifact) in chosen {
        rows.artifact(name);
        artifact(&mut surface, &mut rows);
    }
    if everything {
        write_bench_report("repro", false, &rows.to_json()).expect("BENCH_repro.json is writable");
    }
    if args == ["all"] {
        run_siblings();
    }
}

fn run_siblings() {
    // Sibling binaries live next to this one.
    let me = std::env::current_exe().expect("current executable path");
    let dir = me.parent().expect("executable directory");
    let mut failures = Vec::new();
    for bin in SIBLINGS {
        println!("\n################ {bin} ################\n");
        let status = Command::new(dir.join(bin)).status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{bin}: {status:?}");
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nall experiments regenerated successfully");
    } else {
        eprintln!(
            "\nfailed: {failures:?} (build the bins first with \
             `cargo build --release -p fei-bench --bins`)"
        );
        std::process::exit(1);
    }
}

/// A printed optional value: the value, or `-`.
fn or_dash(value: Option<impl Display>) -> String {
    value.map_or("-".into(), |v| v.to_string())
}

/// **Table I**: duration of the local-training step (3) for the paper's
/// `(E, n_k)` grid, measured on the simulated Raspberry Pi, next to the
/// paper's published durations; also reruns the §VI-B least-squares fit of
/// the energy coefficients `c₀`, `c₁`.
fn table1(_: &mut Surface, rows: &mut Rows) {
    banner("Table I: time duration of step (3) under different training parameters");

    let pi = RaspberryPi::paper_calibrated();
    let mut rng = DetRng::new(0x7AB1);
    let simulated = pi.measure_table1(&mut rng);
    let paper = paper_table1();

    section("durations (seconds)");
    println!(
        "{:>4} {:>6} {:>12} {:>12} {:>8}",
        "E", "n_k", "paper", "simulated", "diff%"
    );
    for (p, s) in paper.iter().zip(&simulated) {
        let at = format!("E={} n_k={}", p.epochs, p.samples);
        let diff = (s.seconds - p.seconds) / p.seconds * 100.0;
        println!(
            "{:>4} {:>6} {:>12.4} {:>12.4} {:>7.1}%",
            p.epochs,
            p.samples,
            rows.put(format!("{at} paper_s"), p.seconds),
            rows.put(format!("{at} simulated_s"), s.seconds),
            rows.put(format!("{at} diff_pct"), diff),
        );
    }

    section("least-squares fit of Eq. (5) coefficients (x 5.553 W training power)");
    for (label, table) in [("paper Table I", &paper), ("simulated", &simulated)] {
        let fit = fit_timing_model(table).expect("table data is well-posed");
        let model = fit
            .to_computation_model(TRAINING_POWER_WATTS)
            .expect("fit produces valid coefficients");
        println!(
            "{label:>14}: c0 = {:.3e} J/(sample*epoch)   c1 = {:.3e} J/epoch   (fit rmse {:.2} ms)",
            rows.put(format!("{label} c0"), model.c0()),
            rows.put(format!("{label} c1"), model.c1()),
            rows.put(format!("{label} rmse_ms"), fit.rmse_seconds * 1e3),
        );
    }
    println!(
        "{:>14}: c0 = {:.3e}                  c1 = {:.3e}   (published §VI-B)",
        "paper reports",
        rows.put("published c0", 7.790e-5),
        rows.put("published c1", 3.340e-3),
    );
}

/// **Table II**: the simulation configuration, printed from the actual
/// objects the campaigns train with, so the table cannot drift from the
/// code.
fn table2(_: &mut Surface, rows: &mut Rows) {
    banner("Table II: simulation configuration");

    let paper_cfg = FlExperimentConfig::default();
    let tuned_cfg = FlExperimentConfig::paper_like();
    let model = LogisticRegression::zeros(784, 10);

    println!("{:<22} Multinomial Logistic Regression", "Model Type");
    println!(
        "{:<22} {}*1",
        "Input Size",
        rows.put("input size", model.dim())
    );
    println!(
        "{:<22} {}*1",
        "Output Size",
        rows.put("output size", model.num_classes())
    );
    println!("{:<22} Softmax (stable log-sum-exp)", "Activation Function");
    println!(
        "{:<22} SGD, learning rate {} with decay rate {} (paper Table II)",
        "Optimizer",
        rows.put("paper learning rate", paper_cfg.sgd.learning_rate),
        rows.put("paper decay", paper_cfg.sgd.decay_per_round),
    );
    println!(
        "{:<22} SGD, learning rate {} with decay rate {} (tuned campaign; see EXPERIMENTS.md)",
        "",
        rows.put("tuned learning rate", tuned_cfg.sgd.learning_rate),
        rows.put("tuned decay", tuned_cfg.sgd.decay_per_round),
    );
    println!("{:<22} full local batch", "Batch size");
    println!(
        "{:<22} {} parameters / {} bytes per upload",
        "Model payload",
        rows.put("model parameters", model.num_params()),
        rows.put("payload bytes", model.payload_bytes()),
    );
    println!(
        "{:<22} {} edge servers, {} samples each at scale {}",
        "Fleet",
        rows.put("edge servers", tuned_cfg.num_devices),
        rows.put(
            "samples per server",
            (60_000.0 * tuned_cfg.scale) as usize / tuned_cfg.num_devices
        ),
        rows.put("scale", tuned_cfg.scale),
    );
}

/// **Fig. 3**: the power trace of one edge server across two rounds of
/// global model coordination, sampled by the simulated 1 kHz meter, with the
/// per-step mean powers the paper reports (waiting 3.600 W, downloading
/// 4.286 W, training 5.553 W, uploading 5.015 W).
fn fig3(_: &mut Surface, rows: &mut Rows) {
    banner("Fig. 3: power consumption of an edge server during two rounds");

    let testbed = Testbed::paper_prototype();
    let (timeline, trace) = testbed.fig3_trace(40, 2);

    section("sampled trace (1 kHz, watts)");
    println!("{}", sparkline(trace.samples(), 100));
    println!(
        "samples: {}   span: {:.3} s   peak: {:.3} W",
        rows.put("samples", trace.len()),
        rows.put("span_s", timeline.total_duration().as_secs_f64()),
        rows.put("peak_w", trace.peak_power().unwrap_or(0.0)),
    );

    section("per-step mean power (W)");
    let means = per_state_mean_power(&trace, &timeline);
    let paper = [
        (PowerState::Waiting, 3.600),
        (PowerState::Downloading, 4.286),
        (PowerState::Training, 5.553),
        (PowerState::Uploading, 5.015),
    ];
    println!("{:>14} {:>10} {:>10}", "step", "paper", "measured");
    for (state, published) in paper {
        println!(
            "{:>14} {:>10.3} {:>10.3}",
            format!("{state:?}"),
            rows.put(format!("{state:?} paper_w"), published),
            rows.put(
                format!("{state:?} measured_w"),
                means.get(&state).copied().unwrap_or(f64::NAN)
            ),
        );
    }

    section("energy integrals");
    let exact = timeline.energy_joules(testbed.pi().profile());
    println!(
        "exact (timeline): {:.3} J   metered (1 kHz rectangle rule): {:.3} J   error {:+.2}%",
        rows.put("exact_j", exact),
        rows.put("metered_j", trace.energy_joules()),
        rows.put(
            "metered_error_pct",
            (trace.energy_joules() - exact) / exact * 100.0
        ),
    );

    section("step durations within one round");
    for seg in timeline.segments().iter().take(4) {
        println!(
            "{:>14}: {:.4} s",
            format!("{:?}", seg.state),
            rows.put(
                format!("{:?} duration_s", seg.state),
                seg.duration.as_secs_f64()
            )
        );
    }
}

/// The rounds Fig. 4's curves are printed at.
const CURVE_POINTS: [usize; 12] = [1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40];

fn print_curves(histories: &[(String, TrainingHistory)], rows: &mut Rows) {
    type Metric = fn(&TrainingHistory) -> Vec<(usize, f64)>;
    let metrics: [(&str, &str, Metric); 2] = [
        ("global loss vs T", "loss", TrainingHistory::loss_curve),
        (
            "test accuracy vs T",
            "accuracy",
            TrainingHistory::accuracy_curve,
        ),
    ];
    for (title, metric, curve) in metrics {
        section(title);
        print!("{:>6}", "T");
        for (label, _) in histories {
            print!(" {label:>12}");
        }
        println!();
        for &t in &CURVE_POINTS {
            print!("{t:>6}");
            for (label, h) in histories {
                let at_t = curve(h).into_iter().find(|&(round, _)| round + 1 == t);
                match rows.put(format!("{label} T={t} {metric}"), at_t.map(|p| p.1)) {
                    Some(value) => print!(" {value:>12.4}"),
                    None => print!(" {:>12}", "-"),
                }
            }
            println!();
        }
    }
}

/// **Fig. 4 (a)/(b)**: global loss and test accuracy against `T` with
/// multinomial logistic regression, fixed `E = 40`, varying
/// `K ∈ {1, 5, 10, 20}`. Prints the figure's banner and campaign line, so
/// `fig4a` followed by `fig4c` is the whole figure.
fn fig4a(surface: &mut Surface, rows: &mut Rows) {
    banner("Fig. 4: training performance with multinomial logistic regression");
    let exp = surface.experiment();
    println!(
        "campaign: N={} servers, n_k={} samples each, test={} samples",
        rows.put("devices", exp.config().num_devices),
        rows.put("samples per device", exp.samples_per_device()),
        rows.put("test samples", exp.test_set().len()),
    );

    section(&format!(
        "panels (a)/(b): fixed E = 40, varying K; targets {EASY_TARGET} / {STRINGENT_TARGET}"
    ));
    let mut histories = Vec::new();
    for k in [1usize, 5, 10, 20] {
        let (h, _) = surface.rounds_to(k, 40, 0.999, 40);
        histories.push((format!("K={k}"), h));
    }
    print_curves(&histories, rows);

    section("required T to reach each accuracy target");
    println!("{:>6} {:>14} {:>14}", "K", "T(easy)", "T(stringent)");
    for (label, h) in &histories {
        println!(
            "{label:>6} {:>14} {:>14}",
            or_dash(rows.put(
                format!("{label} T(easy)"),
                h.rounds_to_accuracy(EASY_TARGET)
            )),
            or_dash(rows.put(
                format!("{label} T(stringent)"),
                h.rounds_to_accuracy(STRINGENT_TARGET)
            )),
        );
    }
    println!(
        "\npaper's observation: at the easy target K hardly matters; at the stringent\n\
         target increasing K cuts T roughly linearly. Compare the two columns above."
    );
}

/// **Fig. 4 (c)/(d)**: the same curves at fixed `K = 10`, varying
/// `E ∈ {1, 5, 20, 40, 100}`, with the paper's `E·T` accounting that
/// exposes the interior optimum of `E`.
fn fig4c(surface: &mut Surface, rows: &mut Rows) {
    section(&format!(
        "panels (c)/(d): fixed K = 10, varying E; target {STRINGENT_TARGET}"
    ));
    let es = [1usize, 5, 20, 40, 100];
    let mut histories = Vec::new();
    for &e in &es {
        let cap = if e == 1 { 400 } else { 60 };
        let (h, _) = surface.rounds_to(10, e, 0.999, cap);
        histories.push((format!("E={e}"), h));
    }
    print_curves(&histories, rows);

    section("total local gradient rounds E*T to reach the stringent target");
    println!("{:>6} {:>10} {:>12}", "E", "T", "E*T");
    for (&e, (_, h)) in es.iter().zip(&histories) {
        let t = rows.put(format!("E={e} T"), h.rounds_to_accuracy(STRINGENT_TARGET));
        let et = rows.put(format!("E={e} E*T"), t.map(|t| e * t));
        println!("{e:>6} {:>10} {:>12}", or_dash(t), or_dash(et));
    }
    println!(
        "\npaper's observation (§VI-C): E*T is NOT constant — it has an interior\n\
         minimum (paper: 5600 @E=20, 3600 @E=40, 6000 @E=100), verifying an optimal E."
    );
}

/// Energy (J) against the varied parameter of a sweep.
type Curve = Vec<(usize, f64)>;

/// Energy to the stringent target along one axis of `(K, E)` (Figs. 5 and
/// 6): the calibrated bound (Eq. 12) next to the testbed's measured traces,
/// one row per `(K, E, round cap)` of `points`, labelled by the value of the
/// varied parameter `axis`. Returns the bound and measured curves.
fn energy_sweep(
    surface: &mut Surface,
    rows: &mut Rows,
    fixed: &str,
    axis: &str,
    points: &[(usize, usize, usize)],
) -> (Curve, Curve) {
    let testbed = Testbed::paper_prototype();

    section("calibrating the convergence bound from training runs");
    let cal = surface
        .calibration()
        .expect("calibration campaign crosses the stringent target");
    println!(
        "A0={:.4}  A1={:.4}  A2={:.6}  F*={:.4}  epsilon={:.4}",
        rows.put("A0", cal.bound.a0()),
        rows.put("A1", cal.bound.a1()),
        rows.put("A2", cal.bound.a2()),
        rows.put("F*", cal.f_star),
        rows.put("epsilon", cal.epsilon),
    );

    let model = testbed.energy_model();
    let objective = EnergyObjective::new(
        cal.bound,
        model.b0(),
        model.b1(),
        cal.epsilon,
        testbed.config().num_devices,
    )
    .expect("calibrated objective is feasible");

    section(&format!(
        "energy to {:.0}% accuracy, {fixed}",
        STRINGENT_TARGET * 100.0
    ));
    println!(
        "{axis:>4} {:>10} {:>14} {:>10} {:>14}",
        "T(bound)", "bound energy", "T(meas)", "measured"
    );
    let mut bound_curve = Vec::new();
    let mut measured_curve = Vec::new();
    for &(k, e, cap) in points {
        let x = if axis == "K" { k } else { e };
        let bound_point = objective.eval_integer(k, e);
        let (_, t_measured) = surface.rounds_to(k, e, STRINGENT_TARGET, cap);
        let measured = t_measured.map(|t| testbed.run(k, e, t).total_joules());
        println!(
            "{x:>4} {:>10} {:>14} {:>10} {:>14}",
            or_dash(rows.put(format!("{axis}={x} T(bound)"), bound_point.map(|p| p.0))),
            rows.put(format!("{axis}={x} bound_j"), bound_point.map(|p| p.1))
                .map_or("-".into(), fmt_joules),
            or_dash(rows.put(format!("{axis}={x} T(measured)"), t_measured)),
            rows.put(format!("{axis}={x} measured_j"), measured)
                .map_or("-".into(), fmt_joules),
        );
        bound_curve.extend(bound_point.map(|(_, j)| (x, j)));
        measured_curve.extend(measured.map(|j| (x, j)));
    }
    (bound_curve, measured_curve)
}

/// The lowest-energy point of a curve.
fn best(curve: &[(usize, f64)]) -> Option<(usize, f64)> {
    curve
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"))
        .copied()
}

/// **Fig. 5**: total energy to the stringent target against `K` at fixed
/// `E = 40`, with the optimal `K*` from the bound and from the traces. The
/// paper finds `K* = 1` under its IID split; the reproduction's curves must
/// show the same monotone-from-one shape.
fn fig5(surface: &mut Surface, rows: &mut Rows) {
    banner("Fig. 5: energy consumption vs K (theoretical bound vs measured traces)");
    let points = [1, 2, 3, 5, 10, 15, 20].map(|k| (k, 40, 200));
    let (bound_curve, measured_curve) = energy_sweep(surface, rows, "E = 40", "K", &points);

    section("optimal K*");
    println!(
        "K* from theoretical bound: {:?}   K* from measured traces: {:?}",
        rows.put("K*(bound)", best(&bound_curve).map(|p| p.0)),
        rows.put("K*(measured)", best(&measured_curve).map(|p| p.0)),
    );
    println!("paper: K* = 1 under the IID split (both its bound and its traces)");
}

/// **Fig. 6**: total energy to the stringent target against `E` at the
/// Fig.-5 optimum `K = 1`, with `E*` from the bound and from the traces, and
/// the paper's headline number: the energy reduction of the measured `E*`
/// against the `K = 1, E = 1` baseline (paper: **49.8 %**).
fn fig6(surface: &mut Surface, rows: &mut Rows) {
    banner("Fig. 6: energy consumption vs E (theoretical bound vs measured traces)");
    let points = [1, 2, 5, 10, 20, 40, 60, 100].map(|e| (1, e, if e <= 2 { 800 } else { 300 }));
    let (bound_curve, measured_curve) = energy_sweep(surface, rows, "K = 1", "E", &points);

    section("optimal E* and the headline reduction");
    let measured_best = best(&measured_curve);
    println!(
        "E* from theoretical bound: {:?}   E* from measured traces: {:?}",
        rows.put("E*(bound)", best(&bound_curve).map(|p| p.0)),
        rows.put("E*(measured)", measured_best.map(|p| p.0)),
    );

    let baseline = measured_curve.iter().find(|p| p.0 == 1).map(|p| p.1);
    match (baseline, measured_best) {
        (Some(base), Some((e_star, best_energy))) => {
            println!(
                "measured: E* = {e_star} uses {} vs {} at K=1,E=1 -> {:.1}% energy reduction",
                fmt_joules(best_energy),
                fmt_joules(base),
                rows.put("saving_pct", (1.0 - best_energy / base) * 100.0),
            );
            println!("paper reports: 49.8% reduction vs K=1, E=1");
        }
        _ => println!("baseline K=1, E=1 did not reach the target within the round cap"),
    }
}

/// The end-to-end EE-FEI pipeline behind the paper's headline claim
/// (EE-FEI cuts energy by **49.8 %**):
///
/// 1. calibrate the energy coefficients from (simulated) Table-I timings;
/// 2. calibrate the convergence bound from real FedAvg training runs;
/// 3. run ACS (Algorithm 1) to pick `(K*, E*, T*)`;
/// 4. validate on the testbed: measured energy at the plan versus the
///    `K = 1, E = 1` baseline;
/// 5. scan the measured curves for their optimum, as the paper does.
fn headline(surface: &mut Surface, rows: &mut Rows) {
    banner("EE-FEI headline: joint (K, E, T) optimization vs the K=1, E=1 baseline");

    let testbed = Testbed::paper_prototype();

    section("step 1: energy model (Table-I calibration)");
    let model = testbed.energy_model();
    println!(
        "c0 = {:.3e} J/(sample*epoch)   c1 = {:.3e} J/epoch   e_U = {}   n_k = {}",
        rows.put("c0", model.compute().c0()),
        rows.put("c1", model.compute().c1()),
        fmt_joules(rows.put("e_U", model.upload().e_u())),
        rows.put("n_k", model.n_k()),
    );
    println!(
        "B0 = {:.4} J/epoch   B1 = {:.4} J/round",
        rows.put("B0", model.b0()),
        rows.put("B1", model.b1()),
    );

    section("step 2: convergence bound (training-run calibration)");
    let cal = surface
        .calibration()
        .expect("calibration campaign crosses the stringent target");
    println!(
        "A0={:.4}  A1={:.4}  A2={:.6}  epsilon={:.4}",
        rows.put("A0", cal.bound.a0()),
        rows.put("A1", cal.bound.a1()),
        rows.put("A2", cal.bound.a2()),
        rows.put("epsilon", cal.epsilon),
    );

    section("step 3: ACS joint optimization (Algorithm 1)");
    let planner = EeFeiPlanner::new(model, cal.bound, cal.epsilon, testbed.config().num_devices)
        .expect("calibrated system is feasible")
        .with_optimizer(AcsOptimizer::default());
    let plan = planner.plan().expect("baseline is feasible");
    let acs = &plan.solution;
    println!(
        "ACS: K*={}  E*={}  T*={}  predicted energy {}  ({} iterations, continuous ({:.2}, {:.2}))",
        rows.put("ACS K*", acs.k),
        rows.put("ACS E*", acs.e),
        rows.put("ACS T*", acs.t),
        fmt_joules(rows.put("ACS predicted_j", acs.energy)),
        rows.put("ACS iterations", acs.iterations),
        rows.put("ACS continuous K", acs.continuous_k),
        rows.put("ACS continuous E", acs.continuous_e),
    );
    println!(
        "baseline (K=1, E=1): T={}  predicted energy {}",
        rows.put("baseline predicted T", plan.baseline_t),
        fmt_joules(rows.put("baseline predicted_j", plan.baseline_energy)),
    );
    println!(
        "predicted savings: {:.1}%",
        rows.put("predicted saving_pct", plan.savings_fraction * 100.0)
    );

    let grid = GridSearch::default()
        .solve(&planner.objective())
        .expect("grid solvable");
    println!(
        "exhaustive grid check: K*={} E*={} energy {} after {} evaluations (ACS used {} iterations)",
        rows.put("grid K*", grid.k),
        rows.put("grid E*", grid.e),
        fmt_joules(rows.put("grid energy_j", grid.energy)),
        rows.put("grid evaluations", grid.evaluated),
        acs.iterations,
    );

    section("step 4: testbed validation (measured energy)");
    let mut measure = |k: usize, e: usize, cap: usize| -> Option<(usize, f64)> {
        let (_, t) = surface.rounds_to(k, e, STRINGENT_TARGET, cap);
        t.map(|t| (t, testbed.run(k, e, t).total_joules()))
    };
    let baseline = measure(1, 1, 900);
    match (measure(acs.k, acs.e, 400), baseline) {
        (Some((tp, plan_energy)), Some((tb, base_energy))) => {
            println!(
                "measured: ACS plan (K={}, E={}) reached {:.0}% in T={} using {}",
                acs.k,
                acs.e,
                STRINGENT_TARGET * 100.0,
                rows.put("plan measured T", tp),
                fmt_joules(rows.put("plan measured_j", plan_energy)),
            );
            println!(
                "measured: baseline (K=1, E=1) needed T={} using {}",
                rows.put("baseline measured T", tb),
                fmt_joules(rows.put("baseline measured_j", base_energy))
            );
            println!(
                "measured savings of the bound-driven plan: {:.1}%",
                rows.put(
                    "plan measured saving_pct",
                    (1.0 - plan_energy / base_energy) * 100.0
                )
            );
        }
        _ => println!("a configuration failed to reach the target within its round cap"),
    }

    section("step 5: measured-curve optimum (the paper's black asterisk)");
    // The paper picks its headline operating point off the measured energy
    // curves (Figs. 5-6), tolerating the bound/trace gap it documents. Scan
    // the same neighbourhood.
    let mut optimum: Option<(usize, usize, usize, f64)> = None;
    for k in [1usize, 2] {
        for e in [5usize, 10, 20, 40] {
            if let Some((t, energy)) = measure(k, e, 400) {
                optimum = match optimum {
                    Some(o) if o.3 <= energy => Some(o),
                    _ => Some((k, e, t, energy)),
                };
            }
        }
    }
    match (optimum, baseline) {
        (Some((k, e, t, energy)), Some((_, base_energy))) => {
            println!(
                "measured optimum: K={}, E={}, T={} using {} -> {:.1}% reduction",
                rows.put("optimum K", k),
                rows.put("optimum E", e),
                rows.put("optimum T", t),
                fmt_joules(rows.put("optimum measured_j", energy)),
                rows.put("optimum saving_pct", (1.0 - energy / base_energy) * 100.0),
            );
            println!("paper reports: 49.8% reduction vs K=1, E=1");
        }
        _ => println!("measured scan could not complete"),
    }
}
