//! The Raspberry Pi 4B edge-server model.

use fei_core::calibration::{fit_timing_model, paper_table1, TimingFit, TimingRow};
use fei_power::PowerProfile;
use fei_sim::{DetRng, SimDuration};
use serde::{Deserialize, Serialize};

/// A Raspberry Pi 4B edge server: the paper's measured power plateaus plus
/// the Table-I-calibrated training-time law, with a configurable relative
/// timing jitter.
///
/// # Example
///
/// ```
/// use fei_testbed::RaspberryPi;
///
/// let pi = RaspberryPi::paper_calibrated();
/// let d = pi.training_duration(10, 1000);
/// // Table I row (10, 1000) is 0.1471 s; the fitted law is within a few ms.
/// assert!((d.as_secs_f64() - 0.1471).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaspberryPi {
    profile: PowerProfile,
    timing: TimingFit,
    /// Relative standard deviation of per-measurement timing jitter.
    timing_jitter_frac: f64,
}

impl RaspberryPi {
    /// A Pi calibrated to the paper: power plateaus from §VI-B and the
    /// timing law least-squares-fit to Table I.
    pub fn paper_calibrated() -> Self {
        let timing = fit_timing_model(&paper_table1())
            .expect("invariant: the paper's Table I constants form a well-posed regression");
        Self {
            profile: PowerProfile::raspberry_pi_4b(),
            timing,
            timing_jitter_frac: 0.015,
        }
    }

    /// The device's power plateaus.
    pub fn profile(&self) -> &PowerProfile {
        &self.profile
    }

    /// The calibrated timing law.
    pub(crate) fn timing(&self) -> &TimingFit {
        &self.timing
    }

    /// Deterministic (noise-free) duration of step (3): `E` local epochs
    /// over `n_k` samples.
    pub fn training_duration(&self, epochs: usize, samples: usize) -> SimDuration {
        SimDuration::from_secs_f64(self.timing.predict_seconds(epochs, samples))
    }

    /// One *measured* duration of step (3): the law plus multiplicative
    /// Gaussian jitter — what the prototype's stopwatch would record.
    pub(crate) fn measure_training_duration(
        &self,
        epochs: usize,
        samples: usize,
        rng: &mut DetRng,
    ) -> SimDuration {
        let base = self.timing.predict_seconds(epochs, samples);
        let jittered = base * rng.gaussian_with(1.0, self.timing_jitter_frac).max(0.1);
        SimDuration::from_secs_f64(jittered)
    }

    /// Regenerates a Table-I-shaped measurement campaign: one measured
    /// duration for each `(E, n_k)` in the paper's grid.
    pub fn measure_table1(&self, rng: &mut DetRng) -> Vec<TimingRow> {
        let mut rows = Vec::with_capacity(12);
        for &epochs in &[10usize, 20, 40] {
            for &samples in &[100usize, 500, 1000, 2000] {
                rows.push(TimingRow {
                    epochs,
                    samples,
                    seconds: self
                        .measure_training_duration(epochs, samples, rng)
                        .as_secs_f64(),
                });
            }
        }
        rows
    }
}

impl Default for RaspberryPi {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use fei_core::calibration::TRAINING_POWER_WATTS;

    use super::*;

    #[test]
    fn calibrated_pi_reproduces_table1_within_tolerance() {
        let pi = RaspberryPi::paper_calibrated();
        for row in paper_table1() {
            let predicted = pi.training_duration(row.epochs, row.samples).as_secs_f64();
            let rel = (predicted - row.seconds).abs() / row.seconds;
            assert!(
                rel < 0.25,
                "({}, {}): predicted {predicted} vs measured {} ({:.1}% off)",
                row.epochs,
                row.samples,
                row.seconds,
                rel * 100.0
            );
        }
    }

    #[test]
    fn training_time_scales_linearly_with_samples_and_epochs() {
        let pi = RaspberryPi::paper_calibrated();
        let base = pi.training_duration(10, 1000).as_secs_f64();
        let double_n = pi.training_duration(10, 2000).as_secs_f64();
        let double_e = pi.training_duration(20, 1000).as_secs_f64();
        // Table I: time grows near-linearly in n_k; exactly linearly in E.
        assert!((double_e - 2.0 * base).abs() < 1e-9);
        assert!(double_n > 1.8 * base && double_n < 2.2 * base);
    }

    #[test]
    fn measured_durations_jitter_around_the_law() {
        let pi = RaspberryPi::paper_calibrated();
        let mut rng = DetRng::new(3);
        let base = pi.training_duration(20, 1000).as_secs_f64();
        let n = 200;
        let mean: f64 = (0..n)
            .map(|_| {
                pi.measure_training_duration(20, 1000, &mut rng)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - base).abs() / base < 0.01,
            "mean {mean} vs law {base}"
        );
    }

    #[test]
    fn zero_jitter_measures_exactly() {
        let pi = RaspberryPi {
            timing_jitter_frac: 0.0,
            ..RaspberryPi::paper_calibrated()
        };
        let mut rng = DetRng::new(1);
        assert_eq!(
            pi.measure_training_duration(10, 500, &mut rng),
            pi.training_duration(10, 500)
        );
    }

    #[test]
    fn table1_campaign_matches_paper_grid() {
        let pi = RaspberryPi::paper_calibrated();
        let rows = pi.measure_table1(&mut DetRng::new(5));
        assert_eq!(rows.len(), 12);
        // Refitting the measured campaign recovers c0 close to the paper's.
        let fit = fit_timing_model(&rows).unwrap();
        let c0 = fit.seconds_per_sample_epoch * TRAINING_POWER_WATTS;
        assert!((c0 - 7.79e-5).abs() / 7.79e-5 < 0.15, "c0 = {c0}");
    }
}
