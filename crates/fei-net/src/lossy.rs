//! Unlicensed-band uplinks with collision loss (§IV-A).
//!
//! The paper argues that for IoT technologies in the unlicensed band, data
//! upload suffers collision loss from simultaneous transmissions, but — as
//! long as device locations are fixed — each device sees a *fixed* success
//! probability, so its **expected** energy per delivered sample is still a
//! constant (`ρ` just inflates by the expected number of attempts). This
//! module makes that argument executable: a lossy link with per-attempt
//! success probability `p` delivers a sample in `Geometric(p)` attempts,
//! giving expected energy `ρ/p` per delivered sample.

use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

use crate::link::Link;

/// A link whose transfers succeed independently with fixed probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossyLink {
    link: Link,
    success_probability: f64,
    /// Attempts after which a sample is abandoned (0 = never).
    max_attempts: usize,
}

impl LossyLink {
    /// Wraps `link` with a per-attempt success probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < success_probability <= 1`.
    pub fn new(link: Link, success_probability: f64) -> Self {
        assert!(
            success_probability > 0.0 && success_probability <= 1.0,
            "success probability must be in (0, 1]"
        );
        Self {
            link,
            success_probability,
            max_attempts: 0,
        }
    }

    /// Limits the number of attempts per transfer (`0` = unlimited).
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// The underlying lossless link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Per-attempt success probability.
    pub fn success_probability(&self) -> f64 {
        self.success_probability
    }

    /// Expected number of attempts per delivered transfer (`1/p` for
    /// unlimited retries).
    pub fn expected_attempts(&self) -> f64 {
        if self.max_attempts == 0 {
            1.0 / self.success_probability
        } else {
            // Truncated geometric: E[min(G, m)] where failures beyond m are
            // abandoned (energy still spent on m attempts).
            let p = self.success_probability;
            let q = 1.0 - p;
            let m = self.max_attempts as f64;
            // sum_{i=1..m} i p q^{i-1} + m q^m
            let mut expected = m * q.powf(m);
            for i in 1..=self.max_attempts {
                // An attempt cap past i32::MAX saturates the exponent.
                let exponent = i32::try_from(i - 1).unwrap_or(i32::MAX);
                expected += i as f64 * p * q.powi(exponent);
            }
            expected
        }
    }

    /// Expected transmit energy to *deliver* `bytes` (the §IV-A constant):
    /// per-attempt energy times expected attempts.
    pub fn expected_transfer_energy_joules(&self, bytes: usize) -> f64 {
        self.link.transfer_energy_joules(bytes) * self.expected_attempts()
    }

    /// Simulates one delivery: draws attempts until success (or the attempt
    /// cap) and returns `(attempts, delivered, energy_joules)`.
    pub fn simulate_transfer(&self, bytes: usize, rng: &mut DetRng) -> TransferOutcome {
        let per_attempt = self.link.transfer_energy_joules(bytes);
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            if rng.next_f64() < self.success_probability {
                return TransferOutcome {
                    attempts,
                    delivered: true,
                    energy_joules: per_attempt * attempts as f64,
                };
            }
            if self.max_attempts != 0 && attempts >= self.max_attempts {
                return TransferOutcome {
                    attempts,
                    delivered: false,
                    energy_joules: per_attempt * attempts as f64,
                };
            }
        }
    }
}

/// Result of one simulated lossy delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// Attempts made.
    pub attempts: usize,
    /// Whether the payload was delivered.
    pub delivered: bool,
    /// Total transmit energy spent, joules.
    pub energy_joules: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(p: f64) -> LossyLink {
        LossyLink::new(Link::nb_iot(), p)
    }

    #[test]
    fn lossless_link_is_single_attempt() {
        let l = lossy(1.0);
        assert_eq!(l.expected_attempts(), 1.0);
        let base = l.link().transfer_energy_joules(100);
        assert_eq!(l.expected_transfer_energy_joules(100), base);
        let mut rng = DetRng::new(1);
        let outcome = l.simulate_transfer(100, &mut rng);
        assert_eq!(outcome.attempts, 1);
        assert!(outcome.delivered);
    }

    #[test]
    fn expected_attempts_is_inverse_probability() {
        assert!((lossy(0.5).expected_attempts() - 2.0).abs() < 1e-12);
        assert!((lossy(0.25).expected_attempts() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn expected_energy_scales_with_loss() {
        // The paper's point: expected per-sample energy is a constant,
        // inflated by 1/p.
        let clean = lossy(1.0).expected_transfer_energy_joules(785);
        let half = lossy(0.5).expected_transfer_energy_joules(785);
        assert!((half - 2.0 * clean).abs() < 1e-9);
    }

    #[test]
    fn truncated_expectation_is_bounded_by_cap() {
        let l = lossy(0.1).with_max_attempts(3);
        let e = l.expected_attempts();
        assert!(e <= 3.0);
        assert!(e > 1.0);
        // With a generous cap the truncated expectation approaches 1/p.
        let loose = lossy(0.5).with_max_attempts(64).expected_attempts();
        assert!((loose - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_matches_expectation() {
        let l = lossy(0.3);
        let mut rng = DetRng::new(42);
        let n = 20_000;
        let mean_attempts: f64 = (0..n)
            .map(|_| l.simulate_transfer(10, &mut rng).attempts as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_attempts - 1.0 / 0.3).abs() < 0.1,
            "mean attempts {mean_attempts} vs expected {}",
            1.0 / 0.3
        );
    }

    #[test]
    fn capped_transfers_can_fail() {
        let l = lossy(0.05).with_max_attempts(2);
        let mut rng = DetRng::new(7);
        let outcomes: Vec<TransferOutcome> = (0..200)
            .map(|_| l.simulate_transfer(10, &mut rng))
            .collect();
        assert!(outcomes.iter().any(|o| !o.delivered), "some must fail");
        assert!(outcomes.iter().all(|o| o.attempts <= 2));
        // Energy is charged for failed attempts too.
        let failed = outcomes
            .iter()
            .find(|o| !o.delivered)
            .expect("some failure");
        assert!(failed.energy_joules > 0.0);
    }

    #[test]
    fn truncated_expectation_matches_closed_form() {
        // E[min(G, m)] = (1 - q^m) / p for Geometric(p) attempts capped at m.
        for &(p, m) in &[(0.1, 3usize), (0.3, 5), (0.5, 2), (0.9, 10), (0.05, 20)] {
            let q: f64 = 1.0 - p;
            let closed = (1.0 - q.powi(m as i32)) / p;
            let computed = lossy(p).with_max_attempts(m).expected_attempts();
            assert!(
                (computed - closed).abs() < 1e-9,
                "p = {p}, m = {m}: {computed} vs closed form {closed}"
            );
        }
    }

    #[test]
    fn delivered_fraction_matches_truncated_geometric() {
        // P(delivered) = 1 - q^m; check the simulation against it.
        let (p, m) = (0.3, 3usize);
        let l = lossy(p).with_max_attempts(m);
        let mut rng = DetRng::new(11);
        let n = 20_000;
        let delivered = (0..n)
            .filter(|_| l.simulate_transfer(10, &mut rng).delivered)
            .count();
        let expected = 1.0 - (1.0 - p).powi(m as i32);
        let fraction = delivered as f64 / n as f64;
        assert!(
            (fraction - expected).abs() < 0.01,
            "delivered fraction {fraction} vs 1 - q^m = {expected}"
        );
    }

    #[test]
    fn abandonment_spends_exactly_the_cap() {
        let l = lossy(0.2).with_max_attempts(4);
        let per_attempt = l.link().transfer_energy_joules(10);
        let mut rng = DetRng::new(13);
        let abandoned: Vec<TransferOutcome> = (0..500)
            .map(|_| l.simulate_transfer(10, &mut rng))
            .filter(|o| !o.delivered)
            .collect();
        assert!(
            !abandoned.is_empty(),
            "20% success over 4 attempts must abandon some"
        );
        for o in &abandoned {
            assert_eq!(
                o.attempts, 4,
                "abandonment only after the full retry budget"
            );
            assert!((o.energy_joules - 4.0 * per_attempt).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "success probability")]
    fn rejects_zero_probability() {
        let _ = LossyLink::new(Link::nb_iot(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The truncated expectation is sane for any cap: at least one
        /// attempt, never beyond the cap or the unlimited mean `1/p`.
        #[test]
        fn truncated_expectation_is_well_bounded(
            p in 0.05f64..1.0,
            m in 1usize..40,
        ) {
            let e = LossyLink::new(Link::nb_iot(), p).with_max_attempts(m).expected_attempts();
            prop_assert!(e >= 1.0 - 1e-12);
            prop_assert!(e <= m as f64 + 1e-12);
            prop_assert!(e <= 1.0 / p + 1e-9);
        }

        /// Simulated mean energy converges to the analytic expectation for
        /// unlimited retries.
        #[test]
        fn simulated_energy_matches_expectation(
            p in 0.2f64..1.0,
            seed in any::<u64>(),
        ) {
            let l = LossyLink::new(Link::nb_iot(), p);
            let mut rng = DetRng::new(seed);
            let n = 4_000;
            let mean: f64 = (0..n)
                .map(|_| l.simulate_transfer(50, &mut rng).energy_joules)
                .sum::<f64>() / n as f64;
            let expected = l.expected_transfer_energy_joules(50);
            prop_assert!((mean - expected).abs() / expected < 0.15,
                "mean {} vs expected {}", mean, expected);
        }
    }
}
