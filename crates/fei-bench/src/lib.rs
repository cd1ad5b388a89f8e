//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). This library holds the pieces they
//! share: the calibration pipeline that fits the convergence-bound constants
//! from real training runs, and small text-report formatting helpers.

#![forbid(unsafe_code)]

use fei_core::calibration::{fit_bound_constants, GapObservation};
use fei_core::{ConvergenceBound, CoreError};
use fei_fl::TrainingHistory;
use fei_ml::{LocalTrainer, LogisticRegression, SgdConfig};
use fei_testbed::experiment::gap_observations;
use fei_testbed::{FlExperiment, STRINGENT_TARGET};

/// A completed calibration: bound constants plus the accuracy-target
/// translation.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Fitted convergence-bound constants.
    pub bound: ConvergenceBound,
    /// Estimated minimal training loss `F(ω*)`.
    pub f_star: f64,
    /// Loss-gap value corresponding to the stringent accuracy target — the
    /// `ε` handed to the optimizer.
    pub epsilon: f64,
}

/// One training run retained for calibration.
#[derive(Debug, Clone)]
pub struct CalibrationRun {
    /// Participants per round.
    pub k: usize,
    /// Local epochs per round.
    pub e: usize,
    /// The recorded history.
    pub history: TrainingHistory,
}

/// The `(K, E, rounds)` combinations trained for calibration. Chosen to
/// spread the design matrix across all three bound terms — `1/(TE)`, `1/K`,
/// and `E−1` — and run for a *fixed* number of rounds (no early stop) so the
/// fit sees the full gap decay of every combination.
pub const CALIBRATION_COMBOS: [(usize, usize, usize); 6] = [
    (1, 1, 400),
    (1, 20, 80),
    (5, 5, 100),
    (10, 1, 400),
    (10, 40, 50),
    (20, 10, 60),
];

/// Executes the calibration campaign: trains every combo in
/// [`CALIBRATION_COMBOS`] for its fixed round budget.
pub fn run_calibration_campaign(exp: &FlExperiment) -> Vec<CalibrationRun> {
    CALIBRATION_COMBOS
        .iter()
        .map(|&(k, e, rounds)| CalibrationRun {
            k,
            e,
            history: exp.run_rounds(k, e, rounds),
        })
        .collect()
}

/// Estimates the minimal training loss `F(ω*)` by centralized training on
/// the union of all client data — the reference the loss gaps in Eq. 10 are
/// measured against. A small slack keeps every observed gap positive.
pub fn estimate_loss_floor(exp: &FlExperiment) -> f64 {
    let union = exp.training_union();
    let mut model = LogisticRegression::zeros(union.dim(), union.num_classes());
    let trainer = LocalTrainer::new(SgdConfig::new(0.02, 1.0, None));
    trainer.train(&mut model, &union, 800, 0);
    model.loss(&union) - 0.01
}

/// Fits the bound constants and the `ε` translation from calibration runs.
///
/// `f_star` is the estimated minimal training loss (see
/// [`estimate_loss_floor`]); it is clamped below the smallest observed loss
/// so every retained gap is positive. `ε` is the mean gap at the rounds
/// where runs first crossed the stringent accuracy target.
///
/// # Errors
///
/// Propagates [`CoreError::CalibrationFailed`] from the regression, and
/// fails if no run ever crossed the stringent target.
pub fn calibrate(runs: &[CalibrationRun], f_star: f64) -> Result<Calibration, CoreError> {
    let min_loss = runs
        .iter()
        .flat_map(|r| r.history.loss_curve())
        .map(|(_, l)| l)
        .fold(f64::INFINITY, f64::min);
    if !min_loss.is_finite() {
        return Err(CoreError::CalibrationFailed {
            detail: "no loss observations in calibration runs".into(),
        });
    }
    let f_star = f_star.min(min_loss - 0.002);

    let mut observations: Vec<GapObservation> = Vec::new();
    for run in runs {
        observations.extend(gap_observations(&run.history, run.e, run.k, f_star, 2));
    }
    let bound = fit_bound_constants(&observations)?;

    let mut crossing_gaps = Vec::new();
    for run in runs {
        if let Some(t) = run.history.rounds_to_accuracy(STRINGENT_TARGET) {
            if let Some(&(_, loss)) = run
                .history
                .loss_curve()
                .iter()
                .find(|&&(round, _)| round + 1 == t)
            {
                crossing_gaps.push(loss - f_star);
            }
        }
    }
    if crossing_gaps.is_empty() {
        return Err(CoreError::CalibrationFailed {
            detail: "no calibration run reached the stringent accuracy target".into(),
        });
    }
    let epsilon = crossing_gaps.iter().sum::<f64>() / crossing_gaps.len() as f64;
    Ok(Calibration {
        bound,
        f_star,
        epsilon,
    })
}

/// Prints a banner for a table/figure report.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("{line}\n| {title} |\n{line}");
}

/// Prints a section heading.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Writes a bin's `BENCH_<name>.json` report and prints where it went.
///
/// A full run refreshes the committed record at the working directory's
/// root. A `--smoke` run is a verification pass, not a record: its
/// seconds-scale numbers go under `target/bench/` (ignored by git, uploaded
/// from there by CI), so checking a change never dirties the tree.
pub fn write_bench_report(name: &str, smoke: bool, json: &str) -> std::io::Result<()> {
    let path = if smoke {
        std::fs::create_dir_all("target/bench")?;
        format!("target/bench/BENCH_{name}.json")
    } else {
        format!("BENCH_{name}.json")
    };
    std::fs::write(&path, json)?;
    println!("\nwrote {path}");
    Ok(())
}

/// Renders a crude ASCII sparkline of `values` scaled into `height` rows —
/// enough to see the Fig. 3 power plateaus in a terminal.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let chunk = values.len().div_ceil(width);
    values
        .chunks(chunk)
        .map(|c| {
            let mean = c.iter().sum::<f64>() / c.len() as f64;
            let idx = (((mean - lo) / span) * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

/// Formats joules with sensible precision.
pub fn fmt_joules(j: f64) -> String {
    if j >= 1_000.0 {
        format!("{:.1} kJ", j / 1_000.0)
    } else if j >= 1.0 {
        format!("{j:.2} J")
    } else {
        format!("{:.1} mJ", j * 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use fei_testbed::FlExperimentConfig;

    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.0, 1.0, 1.0], 4);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars[0] < chars[2]);
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0], 0), "");
    }

    #[test]
    fn sparkline_constant_input() {
        let s = sparkline(&[5.0; 16], 8);
        assert_eq!(s.chars().count(), 8);
    }

    #[test]
    fn fmt_joules_ranges() {
        assert_eq!(fmt_joules(0.0035), "3.5 mJ");
        assert_eq!(fmt_joules(2.5), "2.50 J");
        assert_eq!(fmt_joules(1_500.0), "1.5 kJ");
    }

    #[test]
    fn calibration_pipeline_on_tiny_campaign() {
        // A miniature end-to-end calibration: small fleet, easy data.
        let cfg = FlExperimentConfig {
            num_devices: 4,
            scale: 0.01,
            test_scale: 0.05,
            ..FlExperimentConfig::paper_like()
        };
        let exp = FlExperiment::prepare(cfg);
        let runs: Vec<CalibrationRun> =
            [(1usize, 1usize), (2, 5), (4, 10), (1, 10), (2, 1), (4, 1)]
                .iter()
                .map(|&(k, e)| {
                    let (history, _) = exp.run_to_accuracy(k, e, STRINGENT_TARGET, 150);
                    CalibrationRun { k, e, history }
                })
                .collect();
        let f_star = estimate_loss_floor(&exp);
        match calibrate(&runs, f_star) {
            Ok(cal) => {
                assert!(cal.epsilon > 0.0);
                assert!(cal.bound.a0() > 0.0);
                assert!(cal.f_star.is_finite());
            }
            // A tiny campaign may legitimately fail to cross the stringent
            // target; the error must say so rather than panic.
            Err(CoreError::CalibrationFailed { detail }) => {
                assert!(!detail.is_empty());
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
