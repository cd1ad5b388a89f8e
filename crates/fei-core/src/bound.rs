//! The convergence bound (Proposition 1 → Eq. 10) and the round budget
//! `T*(K, E)` (Eq. 11).
//!
//! The paper adopts the local-SGD bound of Khaled, Mishchenko & Richtárik
//! (AISTATS 2020), folding the learning rate, smoothness, and gradient
//! variance into three non-negative constants:
//!
//! ```text
//! E[F(ω_T) − F(ω*)] ≤ A0/(T·E) + A1/K + A2·(E − 1)        (Eq. 10)
//! ```
//!
//! Solving the constraint at equality for `T` gives the minimum number of
//! global rounds to reach accuracy `ε`:
//!
//! ```text
//! T*(K, E) = A0·K / ((ε·K − A1 − A2·K·(E − 1)) · E)       (Eq. 11)
//! ```

use serde::{Deserialize, Serialize};

use crate::error::{require_non_negative, require_positive, CoreError};

/// The convergence bound constants `(A₀, A₁, A₂)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceBound {
    a0: f64,
    a1: f64,
    a2: f64,
}

impl ConvergenceBound {
    /// Creates a bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `A₀ > 0`, `A₁ ≥ 0`,
    /// `A₂ ≥ 0` (A₀ = 0 would mean convergence in zero rounds).
    pub fn new(a0: f64, a1: f64, a2: f64) -> Result<Self, CoreError> {
        require_positive("a0", a0)?;
        require_non_negative("a1", a1)?;
        require_non_negative("a2", a2)?;
        Ok(Self { a0, a1, a2 })
    }

    /// `A₀` — the optimization (initial-distance) term coefficient.
    pub fn a0(&self) -> f64 {
        self.a0
    }

    /// `A₁` — the gradient-variance term coefficient (divided by `K`).
    pub fn a1(&self) -> f64 {
        self.a1
    }

    /// `A₂` — the client-drift term coefficient (times `E − 1`).
    pub fn a2(&self) -> f64 {
        self.a2
    }

    /// The bound's value `A0/(T·E) + A1/K + A2·(E−1)` — an upper bound on the
    /// expected loss gap after `T` rounds.
    ///
    /// # Panics
    ///
    /// Panics if any argument is not strictly positive.
    pub fn gap(&self, t: f64, e: f64, k: f64) -> f64 {
        assert!(t > 0.0 && e > 0.0 && k > 0.0, "T, E, K must be positive");
        self.a0 / (t * e) + self.a1 / k + self.a2 * (e - 1.0)
    }

    /// The irreducible gap `A1/K + A2·(E−1)` as `T → ∞`. A target `ε` below
    /// this floor is unreachable at `(K, E)`.
    pub(crate) fn asymptotic_gap(&self, e: f64, k: f64) -> f64 {
        self.a1 / k + self.a2 * (e - 1.0)
    }

    /// Whether the constraint (13c) `ε·K − A1 − A2·K·(E−1) > 0` holds, i.e.
    /// the target is reachable at `(K, E)` with finitely many rounds.
    pub(crate) fn is_feasible(&self, epsilon: f64, k: f64, e: f64) -> bool {
        k > 0.0 && e >= 1.0 && epsilon * k - self.a1 - self.a2 * k * (e - 1.0) > 0.0
    }

    /// `T*(K, E)` (Eq. 11): the continuous minimum number of global rounds to
    /// reach gap `ε`, or `None` when (13c) fails.
    pub(crate) fn t_star(&self, epsilon: f64, k: f64, e: f64) -> Option<f64> {
        if !self.is_feasible(epsilon, k, e) {
            return None;
        }
        let denom = (epsilon * k - self.a1 - self.a2 * k * (e - 1.0)) * e;
        Some(self.a0 * k / denom)
    }

    /// Integer round budget: `⌈T*⌉`, at least 1.
    pub(crate) fn t_star_rounds(&self, epsilon: f64, k: usize, e: usize) -> Option<usize> {
        self.t_star(epsilon, k as f64, e as f64)
            .map(|t| (t.ceil() as usize).max(1))
    }

    /// Largest feasible `E` at a given `K` (exclusive upper limit of the
    /// search domain `𝒵_E`): `E < (εK − A1 + A2K)/(A2K)`. Returns
    /// `f64::INFINITY` when `A₂ = 0`.
    pub(crate) fn max_e(&self, epsilon: f64, k: f64) -> f64 {
        // fei-lint: allow(float-eq, reason = "A2 = 0 is a structural sentinel (no epoch penalty term), not a measured quantity")
        if self.a2 == 0.0 {
            return f64::INFINITY;
        }
        (epsilon * k - self.a1 + self.a2 * k) / (self.a2 * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound() -> ConvergenceBound {
        ConvergenceBound::new(2.0, 0.1, 0.001).unwrap()
    }

    #[test]
    fn gap_formula() {
        let b = bound();
        // 2/(10*4) + 0.1/5 + 0.001*3 = 0.05 + 0.02 + 0.003.
        assert!((b.gap(10.0, 4.0, 5.0) - 0.073).abs() < 1e-12);
    }

    #[test]
    fn gap_decreases_in_t_and_k() {
        let b = bound();
        assert!(b.gap(20.0, 4.0, 5.0) < b.gap(10.0, 4.0, 5.0));
        assert!(b.gap(10.0, 4.0, 10.0) < b.gap(10.0, 4.0, 5.0));
    }

    #[test]
    fn asymptotic_gap_is_t_limit() {
        let b = bound();
        let limit = b.asymptotic_gap(4.0, 5.0);
        assert!((b.gap(1e12, 4.0, 5.0) - limit).abs() < 1e-9);
    }

    #[test]
    fn feasibility_boundary() {
        let b = bound();
        // eps*K - A1 - A2*K*(E-1) > 0 with K=5, E=4: eps*5 - 0.1 - 0.015 > 0
        // -> eps > 0.023.
        assert!(b.is_feasible(0.024, 5.0, 4.0));
        assert!(!b.is_feasible(0.023, 5.0, 4.0));
        assert!(!b.is_feasible(0.0229999, 5.0, 4.0));
    }

    #[test]
    fn t_star_reaches_target_exactly() {
        let b = bound();
        let eps = 0.05;
        let (k, e) = (5.0, 4.0);
        let t = b.t_star(eps, k, e).unwrap();
        // At T = T*, the bound equals eps by construction.
        assert!((b.gap(t, e, k) - eps).abs() < 1e-12);
        // More rounds -> smaller gap.
        assert!(b.gap(t * 2.0, e, k) < eps);
    }

    #[test]
    fn t_star_none_when_infeasible() {
        let b = bound();
        assert_eq!(b.t_star(0.01, 5.0, 4.0), None);
    }

    #[test]
    fn t_star_rounds_ceils_and_floors_at_one() {
        let b = ConvergenceBound::new(1e-6, 0.0, 0.0).unwrap();
        // Tiny A0 -> tiny T*; integer budget still at least 1.
        assert_eq!(b.t_star_rounds(0.5, 1, 1), Some(1));
        let b2 = bound();
        let t_cont = b2.t_star(0.05, 5.0, 4.0).unwrap();
        let t_int = b2.t_star_rounds(0.05, 5, 4).unwrap();
        assert_eq!(t_int, t_cont.ceil() as usize);
    }

    #[test]
    fn t_star_increases_as_eps_tightens() {
        let b = bound();
        let loose = b.t_star(0.1, 5.0, 4.0).unwrap();
        let tight = b.t_star(0.05, 5.0, 4.0).unwrap();
        assert!(tight > loose);
    }

    #[test]
    fn increasing_k_reduces_t_star() {
        // The paper's observation: more participants, fewer rounds needed.
        let b = bound();
        let t_small_k = b.t_star(0.05, 3.0, 4.0).unwrap();
        let t_large_k = b.t_star(0.05, 10.0, 4.0).unwrap();
        assert!(t_large_k < t_small_k);
    }

    #[test]
    fn domain_limits() {
        let b = bound();
        let eps = 0.05;
        // max_e: feasibility must hold strictly below, fail at/above.
        let e_max = b.max_e(eps, 5.0);
        assert!(b.is_feasible(eps, 5.0, e_max - 1e-6));
        assert!(!b.is_feasible(eps, 5.0, e_max + 1e-6));
    }

    #[test]
    fn max_e_infinite_without_drift() {
        let b = ConvergenceBound::new(1.0, 0.1, 0.0).unwrap();
        assert_eq!(b.max_e(0.05, 5.0), f64::INFINITY);
    }

    #[test]
    fn rejects_bad_constants() {
        assert!(ConvergenceBound::new(0.0, 0.1, 0.1).is_err());
        assert!(ConvergenceBound::new(1.0, -0.1, 0.1).is_err());
        assert!(ConvergenceBound::new(1.0, 0.1, f64::NAN).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Wherever T* exists, running exactly T* rounds meets the target and
        /// the bound is monotone decreasing in extra rounds.
        #[test]
        fn t_star_meets_target(
            a0 in 0.1f64..10.0,
            a1 in 0.0f64..1.0,
            a2 in 0.0f64..0.01,
            eps in 0.01f64..0.5,
            k in 1.0f64..20.0,
            e in 1.0f64..50.0,
        ) {
            let b = ConvergenceBound::new(a0, a1, a2).unwrap();
            if let Some(t) = b.t_star(eps, k, e) {
                prop_assert!(t > 0.0);
                prop_assert!((b.gap(t, e, k) - eps).abs() < 1e-9);
                prop_assert!(b.gap(t + 1.0, e, k) <= eps);
            } else {
                // Infeasible: even infinite T cannot reach eps.
                prop_assert!(b.asymptotic_gap(e, k) >= eps - 1e-12);
            }
        }
    }
}
