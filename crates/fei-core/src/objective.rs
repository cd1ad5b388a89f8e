//! The biconvex energy objective `ê(K, E)` (Eq. 12) and its per-coordinate
//! minimizers (Eqs. 15 and 17).
//!
//! Substituting the round budget `T*(K, E)` of Eq. 11 into the system energy
//! `T·K·(B₀E + B₁)` eliminates `T`:
//!
//! ```text
//! ê(K, E) = A0·K² (B₀E + B₁) / ((ε·K − A1 − A2·K·(E−1)) · E)   (Eq. 12)
//! ```
//!
//! Lemmas 1–2 of the paper show `ê` is strictly convex in each coordinate on
//! the feasible region (Theorem 1: strictly biconvex), which licenses the
//! ACS search in [`crate::acs`].
//!
//! ## On `E*`
//!
//! Differentiating Eq. 12 in `E` gives the stationary condition
//!
//! ```text
//! A2·K·B0·E² + 2·A2·K·B1·E − B1·C4 = 0,   C4 = ε·K − A1 + A2·K
//! ```
//!
//! whose positive root is [`EnergyObjective::e_star_exact`]. The closed form
//! printed as Eq. 17 in the paper does not solve this equation (it appears to
//! be a typo); we provide it verbatim as
//! [`EnergyObjective::e_star_paper`] for comparison, and verify the exact
//! form against numeric golden-section search in the tests.

use crate::bound::ConvergenceBound;
use crate::error::{require_non_negative, require_positive, CoreError};

/// The energy objective of problem (13a): minimize `ê(K, E)` subject to
/// `1 ≤ K ≤ N` and feasibility (13c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyObjective {
    bound: ConvergenceBound,
    b0: f64,
    b1: f64,
    epsilon: f64,
    n: usize,
}

impl EnergyObjective {
    /// Creates the objective from bound constants, energy slopes
    /// `B₀ = c₀n + c₁` and `B₁ = ρn + e_U`, the accuracy target `ε`, and the
    /// fleet size `N`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `B₀ > 0`, `B₁ ≥ 0`,
    /// `ε > 0`, and `N ≥ 1`, or [`CoreError::Infeasible`] when no `(K, E)`
    /// in the domain satisfies (13c) — i.e. even `K = N, E = 1` cannot reach
    /// `ε`.
    pub fn new(
        bound: ConvergenceBound,
        b0: f64,
        b1: f64,
        epsilon: f64,
        n: usize,
    ) -> Result<Self, CoreError> {
        require_positive("b0", b0)?;
        require_non_negative("b1", b1)?;
        require_positive("epsilon", epsilon)?;
        if n == 0 {
            return Err(CoreError::invalid("n", "need at least one edge server"));
        }
        if !bound.is_feasible(epsilon, n as f64, 1.0) {
            return Err(CoreError::Infeasible {
                detail: format!(
                    "even K = N = {n}, E = 1 cannot reach epsilon = {epsilon}: asymptotic gap {}",
                    bound.asymptotic_gap(1.0, n as f64)
                ),
            });
        }
        Ok(Self {
            bound,
            b0,
            b1,
            epsilon,
            n,
        })
    }

    /// The convergence bound in use: the oracle the objective and planner
    /// tests check `T*` against.
    #[cfg(test)]
    pub(crate) fn bound(&self) -> &ConvergenceBound {
        &self.bound
    }

    /// The fleet size `N` (upper limit of `K`).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Evaluates `ê(K, E)` (Eq. 12) on the continuous domain. Returns
    /// `f64::INFINITY` outside the feasible region (`K < 1`, `E < 1`, or
    /// (13c) violated) — the convention the numeric minimizers rely on.
    pub fn eval(&self, k: f64, e: f64) -> f64 {
        if !(k >= 1.0 && e >= 1.0) {
            return f64::INFINITY;
        }
        match self.bound.t_star(self.epsilon, k, e) {
            Some(t) => t * k * (self.b0 * e + self.b1),
            None => f64::INFINITY,
        }
    }

    /// Evaluates the *integer* objective: rounds `T` up to a whole number of
    /// global rounds. Returns `(T, energy)` or `None` when infeasible.
    pub fn eval_integer(&self, k: usize, e: usize) -> Option<(usize, f64)> {
        if k < 1 || k > self.n || e < 1 {
            return None;
        }
        let t = self.bound.t_star_rounds(self.epsilon, k, e)?;
        Some((t, t as f64 * k as f64 * (self.b0 * e as f64 + self.b1)))
    }

    /// Continuous minimizer of `ê(·, E)` (Eq. 15): `K* = 2·A1/(ε − A2(E−1))`
    /// clamped into the feasible part of `[1, N]`. Returns `None` when no
    /// `K ≤ N` is feasible at this `E`.
    pub fn k_star(&self, e: f64) -> Option<f64> {
        let c1 = self.epsilon - self.bound.a2() * (e - 1.0);
        if c1 <= 0.0 {
            return None;
        }
        // Feasibility requires K > A1/C1; nothing in [1, N] qualifies if
        // A1/C1 >= N.
        let k_min = self.bound.a1() / c1;
        if k_min >= self.n as f64 {
            return None;
        }
        let unclamped = 2.0 * self.bound.a1() / c1;
        // The objective is strictly convex in K on (k_min, ∞) with its
        // stationary point at 2·k_min; clamp into the feasible box. When
        // A1 = 0 the objective is increasing in K, so K* = 1.
        let lower = (k_min * (1.0 + 1e-9)).max(1.0);
        Some(unclamped.clamp(lower, self.n as f64))
    }

    /// Exact continuous minimizer of `ê(K, ·)`: the positive root of the
    /// stationary quadratic (see module docs), clamped to `[1, E_max)`.
    /// Returns `None` when `K` itself is infeasible (`ε·K ≤ A1`), and
    /// `f64::INFINITY` when `A₂ = 0` (the objective is then strictly
    /// decreasing in `E`).
    pub fn e_star_exact(&self, k: f64) -> Option<f64> {
        let a1 = self.bound.a1();
        let a2 = self.bound.a2();
        // Feasible at E = 1?
        if self.epsilon * k - a1 <= 0.0 {
            return None;
        }
        // fei-lint: allow(float-eq, reason = "A2 = 0 is a structural sentinel (no epoch penalty term), not a measured quantity")
        if a2 == 0.0 {
            return Some(f64::INFINITY);
        }
        // fei-lint: allow(float-eq, reason = "B1 = 0 is a structural sentinel (no fixed per-round cost), not a measured quantity")
        if self.b1 == 0.0 {
            // No fixed per-round cost: extra epochs only add energy.
            return Some(1.0);
        }
        let c4 = self.epsilon * k - a1 + a2 * k;
        let p = a2 * k * self.b0;
        let q = a2 * k * self.b1;
        // p·E² + 2·q·E − B1·C4 = 0 -> E = (−q + sqrt(q² + p·B1·C4)) / p.
        let root = (-q + (q * q + p * self.b1 * c4).sqrt()) / p;
        let e_max = self.bound.max_e(self.epsilon, k);
        Some(root.clamp(1.0, e_max * (1.0 - 1e-9)))
    }

    /// The paper's printed Eq. 17, verbatim:
    /// `E* = ((εK − A1 + A2K)·B1 − A2·B0·K) / (2·A2·B1·K)`, clamped at 1.
    /// Returns `None` when `A₂ = 0` or `B₁ = 0` (the formula divides by
    /// both).
    pub fn e_star_paper(&self, k: f64) -> Option<f64> {
        let a2 = self.bound.a2();
        // fei-lint: allow(float-eq, reason = "Eq. 17 divides by A2 and B1; exactly-zero terms are the structural sentinel")
        if a2 == 0.0 || self.b1 == 0.0 {
            return None;
        }
        let c4 = self.epsilon * k - self.bound.a1() + a2 * k;
        let raw = (c4 * self.b1 - a2 * self.b0 * k) / (2.0 * a2 * self.b1 * k);
        Some(raw.max(1.0))
    }

    /// Upper limit of the `E` search domain at `K` (exclusive).
    pub fn e_max(&self, k: f64) -> f64 {
        self.bound.max_e(self.epsilon, k)
    }
}

#[cfg(test)]
mod tests {
    use fei_math::convex::is_convex_on_grid;
    use fei_math::optimize::golden_section_min;

    use super::*;

    /// A representative objective: A0=1, A1=0.05, A2=1e-4, B0=0.5, B1=2,
    /// eps=0.1, N=20. Feasible everywhere interesting.
    fn objective() -> EnergyObjective {
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap()
    }

    #[test]
    fn eval_matches_manual_eq12() {
        let o = objective();
        let (k, e) = (5.0, 10.0);
        let t = o.bound().t_star(0.1, k, e).unwrap();
        let manual = t * k * (0.5 * e + 2.0);
        assert!((o.eval(k, e) - manual).abs() < 1e-9);
    }

    #[test]
    fn eval_infinite_outside_domain() {
        let o = objective();
        assert_eq!(o.eval(0.5, 10.0), f64::INFINITY);
        assert_eq!(o.eval(5.0, 0.5), f64::INFINITY);
        // E beyond the drift limit: eps/A2 + 1 = 1001.
        assert_eq!(o.eval(5.0, 2_000.0), f64::INFINITY);
    }

    #[test]
    fn integer_eval_uses_ceiled_t() {
        let o = objective();
        let (t, energy) = o.eval_integer(5, 10).unwrap();
        let t_cont = o.bound().t_star(0.1, 5.0, 10.0).unwrap();
        assert_eq!(t, t_cont.ceil() as usize);
        assert!(energy >= o.eval(5.0, 10.0) - 1e-9);
        assert_eq!(o.eval_integer(0, 10), None);
        assert_eq!(o.eval_integer(21, 10), None);
    }

    #[test]
    fn objective_is_convex_in_k_for_fixed_e() {
        // Lemma 1.
        let o = objective();
        for e in [1.0, 5.0, 20.0, 100.0] {
            assert!(
                is_convex_on_grid(|k| o.eval(k, e), 1.0, 20.0, 64, 1e-9),
                "not convex in K at E = {e}"
            );
        }
    }

    #[test]
    fn objective_is_convex_in_e_for_fixed_k() {
        // Lemma 2.
        let o = objective();
        for k in [1.0, 5.0, 10.0, 20.0] {
            let e_hi = o.e_max(k).min(900.0);
            assert!(
                is_convex_on_grid(|e| o.eval(k, e), 1.0, e_hi, 64, 1e-9),
                "not convex in E at K = {k}"
            );
        }
    }

    #[test]
    fn k_star_agrees_with_golden_section() {
        let o = objective();
        for e in [1.0, 10.0, 50.0] {
            let closed = o.k_star(e).unwrap();
            let numeric = golden_section_min(|k| o.eval(k, e), 1.0, 20.0, 1e-10).x;
            assert!(
                (closed - numeric).abs() < 1e-3,
                "E={e}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn e_star_exact_agrees_with_golden_section() {
        let o = objective();
        for k in [1.0, 5.0, 10.0, 20.0] {
            let closed = o.e_star_exact(k).unwrap();
            let e_hi = o.e_max(k) - 1e-6;
            let numeric = golden_section_min(|e| o.eval(k, e), 1.0, e_hi, 1e-10).x;
            assert!(
                (closed - numeric).abs() / numeric < 1e-4,
                "K={k}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn e_star_paper_differs_from_exact_but_is_finite() {
        // Documents the Eq. 17 discrepancy: the printed formula is not the
        // stationary point, but both land in the feasible domain.
        let o = objective();
        let exact = o.e_star_exact(10.0).unwrap();
        let paper = o.e_star_paper(10.0).unwrap();
        assert!(paper >= 1.0 && paper.is_finite());
        assert!(exact >= 1.0 && exact.is_finite());
        // The exact stationary point always achieves energy <= the paper
        // formula's.
        assert!(o.eval(10.0, exact) <= o.eval(10.0, paper) + 1e-9);
    }

    #[test]
    fn k_star_clamps_to_one_when_variance_is_negligible() {
        // Tiny A1: adding servers only costs energy -> K* = 1.
        let bound = ConvergenceBound::new(1.0, 1e-6, 1e-4).unwrap();
        let o = EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap();
        assert_eq!(o.k_star(10.0), Some(1.0));
    }

    #[test]
    fn k_star_clamps_to_n_when_variance_dominates() {
        // Huge A1 relative to eps: need as many servers as possible.
        let bound = ConvergenceBound::new(1.0, 1.5, 1e-5).unwrap();
        let o = EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap();
        assert_eq!(o.k_star(1.0), Some(20.0));
    }

    #[test]
    fn k_star_none_when_e_too_large() {
        let o = objective();
        // E beyond eps/A2 + 1 = 1001: C1 <= 0.
        assert_eq!(o.k_star(1_500.0), None);
    }

    #[test]
    fn e_star_unbounded_without_drift_term() {
        let bound = ConvergenceBound::new(1.0, 0.05, 0.0).unwrap();
        let o = EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap();
        assert_eq!(o.e_star_exact(5.0), Some(f64::INFINITY));
        assert_eq!(o.e_star_paper(5.0), None);
    }

    #[test]
    fn e_star_one_without_fixed_round_cost() {
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        let o = EnergyObjective::new(bound, 0.5, 0.0, 0.1, 20).unwrap();
        assert_eq!(o.e_star_exact(5.0), Some(1.0));
    }

    #[test]
    fn construction_rejects_unreachable_target() {
        let bound = ConvergenceBound::new(1.0, 10.0, 1e-4).unwrap();
        // eps*N = 0.1*20 = 2 < A1 = 10: infeasible everywhere.
        let err = EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
    }

    #[test]
    fn construction_rejects_bad_parameters() {
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        assert!(EnergyObjective::new(bound, 0.0, 2.0, 0.1, 20).is_err());
        assert!(EnergyObjective::new(bound, 0.5, -1.0, 0.1, 20).is_err());
        assert!(EnergyObjective::new(bound, 0.5, 2.0, 0.0, 20).is_err());
        assert!(EnergyObjective::new(bound, 0.5, 2.0, 0.1, 0).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use fei_math::optimize::golden_section_min;
    use proptest::prelude::*;

    use super::*;

    fn arb_objective() -> impl Strategy<Value = EnergyObjective> {
        (
            0.1f64..10.0,  // a0
            0.001f64..0.5, // a1
            1e-5f64..1e-3, // a2
            0.01f64..5.0,  // b0
            0.01f64..10.0, // b1
            0.05f64..0.5,  // epsilon
            2usize..30,    // n
        )
            .prop_filter_map(
                "objective must be feasible",
                |(a0, a1, a2, b0, b1, eps, n)| {
                    let bound = ConvergenceBound::new(a0, a1, a2).ok()?;
                    EnergyObjective::new(bound, b0, b1, eps, n).ok()
                },
            )
    }

    proptest! {
        /// Lemma 1 numerically: every K-slice is convex on the feasible box.
        #[test]
        fn k_slices_are_convex(o in arb_objective(), e in 1.0f64..100.0) {
            prop_assert!(fei_math::convex::is_convex_on_grid(
                |k| o.eval(k, e), 1.0, o.n() as f64, 32, 1e-6));
        }

        /// Eq. 15 against numeric search wherever K* exists.
        #[test]
        fn k_star_is_global_k_minimum(o in arb_objective(), e in 1.0f64..50.0) {
            if let Some(k_star) = o.k_star(e) {
                let numeric = golden_section_min(|k| o.eval(k, e), 1.0, o.n() as f64, 1e-9);
                prop_assert!(
                    o.eval(k_star, e) <= numeric.value + numeric.value.abs() * 1e-6 + 1e-9,
                    "closed-form {} worse than numeric {} (E={})",
                    o.eval(k_star, e), numeric.value, e
                );
            }
        }

        /// The exact E* beats every probed E at the same K.
        #[test]
        fn e_star_exact_is_e_minimum(o in arb_objective(), k_frac in 0.0f64..1.0) {
            let k = 1.0 + k_frac * (o.n() as f64 - 1.0);
            match o.e_star_exact(k) {
                Some(e_star) if e_star.is_finite() => {
                    let value = o.eval(k, e_star);
                    for probe in [1.0, 2.0, 5.0, 10.0, 50.0, 200.0] {
                        let pv = o.eval(k, probe);
                        prop_assert!(value <= pv + pv.abs() * 1e-9 + 1e-9,
                            "E*={} at K={} loses to E={}", e_star, k, probe);
                    }
                }
                _ => {}
            }
        }
    }
}
