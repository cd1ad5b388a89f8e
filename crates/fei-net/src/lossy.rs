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

use crate::link::Link;

/// A link whose transfers succeed independently with fixed probability.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyLink {
    link: Link,
    success_probability: f64,
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
        }
    }

    /// Expected number of attempts per delivered transfer, `1/p`.
    pub(crate) fn expected_attempts(&self) -> f64 {
        1.0 / self.success_probability
    }

    /// Expected transmit energy to *deliver* `bytes` (the §IV-A constant):
    /// per-attempt energy times expected attempts.
    pub fn expected_transfer_energy_joules(&self, bytes: usize) -> f64 {
        self.link.transfer_energy_joules(bytes) * self.expected_attempts()
    }
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
        let base = Link::nb_iot().transfer_energy_joules(100);
        assert_eq!(l.expected_transfer_energy_joules(100), base);
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
    #[should_panic(expected = "success probability")]
    fn rejects_zero_probability() {
        let _ = LossyLink::new(Link::nb_iot(), 0.0);
    }
}
