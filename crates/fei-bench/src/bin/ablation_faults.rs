//! Ablation: dropouts, quorum aggregation, and energy-to-accuracy.
//!
//! The paper's energy accounting assumes every selected server delivers
//! every round. This ablation injects upload dropouts and asks what the
//! 92 %-accuracy target *really* costs once retries, wasted rounds, and
//! quorum policy are on the books:
//!
//! * sweep dropout probability × quorum, reporting committed rounds and the
//!   useful / wasted / retransmit energy split to the stringent target;
//! * a permanent-crash campaign with live re-planning, where the
//!   coordinator re-runs ACS against the survivors (`K*` shrinks with the
//!   fleet) instead of stalling below quorum.
//!
//! Results — including the abandoned-round (abort) accounting per sweep
//! cell — are also written to `target/bench/BENCH_ablation_faults.json`.
//!
//! Run: `cargo run --release -p fei-bench --bin ablation_faults`

use fei_bench::{banner, fmt_joules, section};
use fei_core::{ConvergenceBound, EeFeiPlanner};
use fei_fl::{FaultSpec, StopCondition, ToleranceConfig};
use fei_testbed::{FaultCampaign, FlExperiment, FlExperimentConfig, Testbed, STRINGENT_TARGET};

const K: usize = 10;
const E: usize = 10;
const OVER_SELECT: usize = 2;
const MAX_ROUNDS: usize = 250;

fn tolerance(quorum: usize) -> ToleranceConfig {
    ToleranceConfig {
        over_select: OVER_SELECT,
        quorum: Some(quorum),
        ..Default::default()
    }
}

/// One sweep cell, kept for the JSON report.
struct Cell {
    drop_p: f64,
    quorum: usize,
    rounds_to_target: Option<usize>,
    abandoned_rounds: usize,
    useful_j: f64,
    wasted_j: f64,
    retransmit_j: f64,
    control_j: f64,
    overhead_fraction: f64,
}

impl Cell {
    fn json_row(&self, last: bool) -> String {
        let t = self
            .rounds_to_target
            .map_or_else(|| "null".into(), |t| t.to_string());
        let comma = if last { "" } else { "," };
        format!(
            "    {{\"drop_p\": {:.1}, \"quorum\": {}, \"rounds_to_target\": {t}, \
             \"abandoned_rounds\": {}, \"useful_j\": {:.3}, \"wasted_j\": {:.3}, \
             \"retransmit_j\": {:.3}, \"control_j\": {:.3}, \"overhead_fraction\": {:.4}}}{comma}\n",
            self.drop_p,
            self.quorum,
            self.abandoned_rounds,
            self.useful_j,
            self.wasted_j,
            self.retransmit_j,
            self.control_j,
            self.overhead_fraction,
        )
    }
}

fn main() {
    banner("Ablation: fault injection, quorum, and energy to 92 %");
    let experiment = FlExperiment::prepare(FlExperimentConfig::paper_like());
    let testbed = Testbed::paper_prototype();

    section(&format!(
        "dropout probability x quorum (K = {K} + {OVER_SELECT} over-selected, E = {E}, \
         target {:.0} %)",
        STRINGENT_TARGET * 100.0
    ));
    println!(
        "{:>8} {:>7} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "drop p",
        "quorum",
        "T(92%)",
        "abandoned",
        "useful",
        "wasted",
        "retransmit",
        "control",
        "overhead"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for drop_p in [0.0, 0.2, 0.4, 0.6] {
        for quorum in [1usize, K / 2, K] {
            let spec = FaultSpec {
                upload_loss_prob: drop_p,
                ..Default::default()
            };
            let campaign =
                FaultCampaign::new(experiment.clone(), testbed.clone(), spec, tolerance(quorum));
            let report = campaign.run(K, E, StopCondition::accuracy(STRINGENT_TARGET, MAX_ROUNDS));
            let cell = Cell {
                drop_p,
                quorum,
                rounds_to_target: report.rounds_to_accuracy(STRINGENT_TARGET),
                abandoned_rounds: report.history.abandoned_rounds(),
                useful_j: report.ledger.useful_joules(),
                wasted_j: report.ledger.wasted_joules(),
                retransmit_j: report.ledger.retransmit_joules(),
                control_j: report.ledger.control_joules(),
                overhead_fraction: report.ledger.overhead_fraction(),
            };
            let t = cell
                .rounds_to_target
                .map_or_else(|| "miss".into(), |t| t.to_string());
            println!(
                "{drop_p:>8.1} {quorum:>7} {t:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9.1}%",
                cell.abandoned_rounds,
                fmt_joules(cell.useful_j),
                fmt_joules(cell.wasted_j),
                fmt_joules(cell.retransmit_j),
                fmt_joules(cell.control_j),
                cell.overhead_fraction * 100.0,
            );
            cells.push(cell);
        }
    }

    section("permanent crashes with live re-planning (crash p = 0.05/round)");
    let spec = FaultSpec {
        crash_prob: 0.05,
        restart_rounds: 0,
        ..Default::default()
    };
    let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).expect("paper-like bound");
    let planner = EeFeiPlanner::new(testbed.energy_model(), bound, 0.1, 20)
        .expect("paper-like plan is feasible");
    let campaign =
        FaultCampaign::new(experiment, testbed, spec, tolerance(1)).with_replanning(planner);
    let report = campaign.run(K, E, StopCondition::accuracy(STRINGENT_TARGET, MAX_ROUNDS));
    for event in &report.replans {
        println!(
            "round {:>4}: fleet down to {:>2} -> re-planned K* = {}, E* = {}",
            event.round, event.surviving, event.k, event.e
        );
    }
    let reached = report.rounds_to_accuracy(STRINGENT_TARGET).map_or_else(
        || "never reached".into(),
        |t| format!("reached in {t} rounds"),
    );
    println!(
        "target {reached}; final (K, E) = ({}, {}); {} useful / {} wasted / {} control; \
         aborted: {}",
        report.final_k,
        report.final_e,
        fmt_joules(report.ledger.useful_joules()),
        fmt_joules(report.ledger.wasted_joules()),
        fmt_joules(report.ledger.control_joules()),
        report
            .aborted
            .as_ref()
            .map_or_else(|| "no".into(), |e| e.to_string()),
    );

    section("machine-readable (JSON)");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"BENCH_ablation_faults.v1\",\n");
    json.push_str(&format!(
        "  \"k\": {K}, \"e\": {E}, \"over_select\": {OVER_SELECT}, \"max_rounds\": {MAX_ROUNDS},\n"
    ));
    json.push_str("  \"dropout_sweep\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&cell.json_row(i + 1 == cells.len()));
    }
    json.push_str("  ],\n");
    json.push_str("  \"crash_campaign\": {\n");
    json.push_str(&format!(
        "    \"rounds_to_target\": {},\n",
        report
            .rounds_to_accuracy(STRINGENT_TARGET)
            .map_or_else(|| "null".into(), |t| t.to_string())
    ));
    json.push_str(&format!(
        "    \"final_k\": {}, \"final_e\": {}, \"replans\": {}, \"abandoned_rounds\": {},\n",
        report.final_k,
        report.final_e,
        report.replans.len(),
        report.history.abandoned_rounds()
    ));
    json.push_str(&format!(
        "    \"aborted\": {},\n",
        report
            .aborted
            .as_ref()
            .map_or_else(|| "null".into(), |e| format!("{:?}", e.to_string()))
    ));
    json.push_str(&format!(
        "    \"useful_j\": {:.3}, \"wasted_j\": {:.3}, \"control_j\": {:.3}\n",
        report.ledger.useful_joules(),
        report.ledger.wasted_joules(),
        report.ledger.control_joules()
    ));
    json.push_str("  }\n");
    json.push_str("}\n");
    print!("{json}");
    // Not a committed record: the file goes where smoke reports go.
    fei_bench::write_bench_report("ablation_faults", true, &json)
        .expect("failed to write BENCH_ablation_faults.json");

    println!(
        "\nreading: with quorum 1 dropouts mostly cost retransmissions and partial\n\
         rounds; raising the quorum toward K converts the same dropouts into\n\
         abandoned rounds whose full energy is wasted — reliability policy, not\n\
         just loss rate, sets the real energy-to-accuracy. Under permanent\n\
         crashes, re-planning keeps the campaign alive by shrinking K* with the\n\
         surviving fleet. The control column is the coordinator protocol's own\n\
         bill — selection notices, heartbeats, and commit/abort broadcasts at\n\
         WiFi link energy — small but never zero."
    );
}
