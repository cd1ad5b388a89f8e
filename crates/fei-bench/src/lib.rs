//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! The `repro` binary regenerates the paper's tables and figures (see
//! DESIGN.md §4 for the index); the other binaries are ablations, soaks and
//! harnesses. This library holds what they share: the campaign [`Surface`]
//! every figure reads its training runs from, the calibration that fits the
//! convergence-bound constants from those runs, the [`Rows`] of printed
//! numbers behind `BENCH_repro.json`, and small text-report helpers.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

use fei_core::calibration::{fit_bound_constants, GapObservation};
use fei_core::{ConvergenceBound, CoreError};
use fei_fl::{EngineCheckpoint, RoundRecord, StopCondition, TrainingHistory};
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

/// One `(K, E)` campaign as far as it has been trained: its rounds and the
/// engine state after the last of them.
#[derive(Debug, Default)]
struct Campaign {
    history: TrainingHistory,
    checkpoint: Option<EngineCheckpoint>,
}

/// The `(K, E) → loss/accuracy-vs-T` surface of one FL campaign, the one
/// source every paper figure reads its training runs from.
///
/// Each `(K, E)` is trained once, as far as the longest request so far, and
/// kept as its history plus an [`EngineCheckpoint`]. A shorter request is a
/// prefix of the stored run; a longer one restores the checkpoint into a
/// fresh engine and trains only the missing rounds. Both are exact: a run's
/// seed depends on `(K, E)` alone, and a restored engine continues bit for
/// bit, so every answer equals the run [`FlExperiment::run_rounds`] or
/// [`FlExperiment::run_to_accuracy`] would train from scratch.
#[derive(Debug)]
pub struct Surface {
    exp: FlExperiment,
    campaigns: BTreeMap<(usize, usize), Campaign>,
    calibration: Option<Calibration>,
}

impl Surface {
    /// An untrained surface over `exp`.
    pub fn new(exp: FlExperiment) -> Self {
        Self {
            exp,
            campaigns: BTreeMap::new(),
            calibration: None,
        }
    }

    /// The campaign's data and partition.
    pub fn experiment(&self) -> &FlExperiment {
        &self.exp
    }

    /// The rounds of `(K, E)` trained so far, trained on until `stop` first
    /// when one is given.
    fn trained(&mut self, k: usize, e: usize, stop: Option<StopCondition>) -> &[RoundRecord] {
        let campaign = self.campaigns.entry((k, e)).or_default();
        if let Some(stop) = stop {
            let mut engine = self.exp.engine(k, e);
            if let Some(checkpoint) = campaign.checkpoint.take() {
                engine.restore(checkpoint);
            }
            let more = engine.run_until(stop);
            campaign.history.extend(more.records().iter().cloned());
            campaign.checkpoint = Some(engine.checkpoint());
        }
        campaign.history.records()
    }

    /// The first `rounds` rounds of `(K, E)`: what
    /// [`FlExperiment::run_rounds`] returns.
    pub fn history(&mut self, k: usize, e: usize, rounds: usize) -> TrainingHistory {
        let have = self.trained(k, e, None).len();
        let more = (have < rounds).then(|| StopCondition::rounds(rounds - have));
        self.trained(k, e, more)[..rounds].iter().cloned().collect()
    }

    /// `(K, E)` trained until `target` accuracy, capped at `cap` rounds: what
    /// [`FlExperiment::run_to_accuracy`] returns, the history's
    /// [`TrainingHistory::missed_target`] included.
    pub fn rounds_to(
        &mut self,
        k: usize,
        e: usize,
        target: f64,
        cap: usize,
    ) -> (TrainingHistory, Option<usize>) {
        let crossing = |records: &[RoundRecord]| {
            records
                .iter()
                .take(cap)
                .position(|r| r.test_eval.is_some_and(|eval| eval.accuracy >= target))
                .map(|i| i + 1)
        };
        let have = self.trained(k, e, None);
        let more = (have.len() < cap && crossing(have).is_none())
            .then(|| StopCondition::accuracy(target, cap - have.len()));
        let records = self.trained(k, e, more);
        let t = crossing(records);
        let mut history: TrainingHistory = records[..t.unwrap_or(cap)].iter().cloned().collect();
        if t.is_none() {
            history.record_missed_target(target);
        }
        (history, t)
    }

    /// The paper campaign's calibration: [`Surface::calibrate`] over
    /// [`CALIBRATION_COMBOS`], fitted once and read back after that.
    ///
    /// # Errors
    ///
    /// As [`Surface::calibrate`].
    pub fn calibration(&mut self) -> Result<Calibration, CoreError> {
        if let Some(cal) = &self.calibration {
            return Ok(cal.clone());
        }
        let cal = self.calibrate(&CALIBRATION_COMBOS)?;
        self.calibration = Some(cal.clone());
        Ok(cal)
    }

    /// Fits the bound constants and the `ε` translation from fixed-round
    /// runs of `combos` (`(K, E, rounds)` each).
    ///
    /// `F(ω*)`, the reference the loss gaps in Eq. 10 are measured
    /// against, is estimated by centralized training on the union of all
    /// client data, less a small slack, and clamped below the smallest
    /// observed loss so every retained gap is positive. `ε` is the mean gap
    /// at the rounds where runs first crossed the stringent accuracy target.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::CalibrationFailed`] from the regression, and
    /// fails if no run ever crossed the stringent target.
    pub fn calibrate(
        &mut self,
        combos: &[(usize, usize, usize)],
    ) -> Result<Calibration, CoreError> {
        let runs: Vec<(usize, usize, TrainingHistory)> = combos
            .iter()
            .map(|&(k, e, rounds)| (k, e, self.history(k, e, rounds)))
            .collect();
        let min_loss = runs
            .iter()
            .flat_map(|(_, _, history)| history.loss_curve())
            .map(|(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        if !min_loss.is_finite() {
            return Err(CoreError::CalibrationFailed {
                detail: "no loss observations in calibration runs".into(),
            });
        }
        let union = self.exp.training_union();
        let mut model = LogisticRegression::zeros(union.dim(), union.num_classes());
        LocalTrainer::new(SgdConfig::new(0.02, 1.0, None)).train(&mut model, &union, 800, 0);
        let f_star = (model.loss(&union) - 0.01).min(min_loss - 0.002);

        let mut observations: Vec<GapObservation> = Vec::new();
        for (k, e, history) in &runs {
            observations.extend(gap_observations(history, *e, *k, f_star, 2));
        }
        let bound = fit_bound_constants(&observations)?;

        let mut crossing_gaps = Vec::new();
        for (_, _, history) in &runs {
            if let Some(t) = history.rounds_to_accuracy(STRINGENT_TARGET) {
                if let Some(&(_, loss)) = history
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

/// Every number the paper artifacts print, as `(artifact, key, value)`
/// rows: the content of `BENCH_repro.json`. A value is written exactly (an
/// `f64` in Rust's round-trip `{:?}` form), so the regenerated file differs
/// from the committed one exactly when some printed number moved.
#[derive(Debug, Default)]
pub struct Rows {
    artifact: &'static str,
    rows: Vec<(&'static str, String, String)>,
}

/// A number a [`Rows`] row holds, rendered as a JSON value.
pub trait RowValue: Copy {
    /// The exact JSON rendering.
    fn json(&self) -> String;
}

impl RowValue for f64 {
    fn json(&self) -> String {
        if self.is_finite() {
            format!("{self:?}")
        } else {
            format!("\"{self:?}\"")
        }
    }
}

impl RowValue for usize {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl<T: RowValue> RowValue for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or_else(|| "null".into(), RowValue::json)
    }
}

impl Rows {
    /// Files the rows that follow under `artifact`.
    pub fn artifact(&mut self, artifact: &'static str) {
        self.artifact = artifact;
    }

    /// Records one printed number and hands it back to be printed.
    pub fn put<V: RowValue>(&mut self, key: impl fmt::Display, value: V) -> V {
        let key = key.to_string();
        debug_assert!(!key.contains(['"', '\\']), "row keys need no escaping");
        self.rows.push((self.artifact, key, value.json()));
        value
    }

    /// The `BENCH_repro.json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(artifact, key, value)| {
                format!(
                    "    {{\"artifact\": \"{artifact}\", \"key\": \"{key}\", \"value\": {value}}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"BENCH_repro.v1\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
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
    fn surface_reads_equal_fresh_runs() {
        // Requests in an order that exercises every path: a fresh campaign,
        // an extension from a checkpoint, a prefix of a longer run, an
        // early stop and a missed target, each against a from-scratch run.
        let config = FlExperimentConfig {
            num_devices: 4,
            scale: 0.005,
            test_scale: 0.02,
            ..FlExperimentConfig::paper_like()
        };
        let exp = FlExperiment::prepare(config);
        let mut surface = Surface::new(exp.clone());
        assert_eq!(surface.history(2, 3, 4), exp.run_rounds(2, 3, 4));
        assert_eq!(surface.history(2, 3, 9), exp.run_rounds(2, 3, 9));
        assert_eq!(surface.history(2, 3, 6), exp.run_rounds(2, 3, 6));
        // A target the run first reaches at round 5, inside the stored run.
        let reached = exp.run_rounds(2, 3, 5).accuracy_curve()[4].1;
        for (target, cap) in [(reached, 30), (reached, 3), (0.999, 12)] {
            assert_eq!(
                surface.rounds_to(2, 3, target, cap),
                exp.run_to_accuracy(2, 3, target, cap),
                "target {target}, cap {cap}"
            );
        }
        assert_eq!(
            surface.rounds_to(1, 2, 0.999, 5),
            exp.run_to_accuracy(1, 2, 0.999, 5)
        );
        assert_eq!(surface.history(1, 2, 7), exp.run_rounds(1, 2, 7));
    }

    #[test]
    fn calibration_pipeline_on_tiny_campaign() {
        // A miniature end-to-end calibration: small fleet, small test set.
        // Its seeded runs top out at 90.6 % test accuracy, below the
        // stringent target, so the fit has no `ε` to translate and must say
        // so, typed, rather than panic or invent one.
        let mut surface = Surface::new(FlExperiment::prepare(FlExperimentConfig {
            num_devices: 4,
            scale: 0.01,
            test_scale: 0.05,
            ..FlExperimentConfig::paper_like()
        }));
        let combos = [(1, 1), (2, 5), (4, 10), (1, 10), (2, 1), (4, 1)].map(|(k, e)| (k, e, 150));
        let error = surface
            .calibrate(&combos)
            .expect_err("no run crosses the stringent target");
        assert_eq!(
            error,
            CoreError::CalibrationFailed {
                detail: "no calibration run reached the stringent accuracy target".into()
            }
        );
    }
}
