//! Exhaustive integer grid search — the brute-force baseline for ACS.
//!
//! Scans every `(K, E)` in `[1, N] × [1, e_cap]` under the integer objective.
//! Exact by construction, but `Θ(N · E)` evaluations versus ACS's handful of
//! closed-form steps; the `acs` Criterion bench quantifies the gap.

use crate::error::CoreError;
use crate::objective::EnergyObjective;

/// Result of a grid scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSolution {
    /// Optimal `K`.
    pub k: usize,
    /// Optimal `E`.
    pub e: usize,
    /// Round budget at the optimum.
    pub t: usize,
    /// Total energy at the optimum, joules.
    pub energy: f64,
    /// Number of `(K, E)` points evaluated (feasible or not).
    pub evaluated: usize,
}

/// Exhaustive search over the integer domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSearch {
    /// Upper bound on `E` to scan (the feasible region may end earlier).
    pub e_cap: usize,
}

impl Default for GridSearch {
    fn default() -> Self {
        Self { e_cap: 1_000 }
    }
}

impl GridSearch {
    /// Scans the grid and returns the best feasible integer point.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] if no grid point is feasible
    /// (cannot happen for a successfully constructed objective with
    /// `e_cap ≥ 1`).
    pub fn solve(&self, objective: &EnergyObjective) -> Result<GridSolution, CoreError> {
        let mut best: Option<GridSolution> = None;
        let mut evaluated = 0;
        for k in 1..=objective.n() {
            // The feasible E range shrinks with K; skip past its end.
            let e_max = objective.e_max(k as f64);
            let e_hi = if e_max.is_finite() {
                (e_max.ceil() as usize).min(self.e_cap)
            } else {
                self.e_cap
            };
            for e in 1..=e_hi {
                evaluated += 1;
                if let Some((t, energy)) = objective.eval_integer(k, e) {
                    let candidate = GridSolution {
                        k,
                        e,
                        t,
                        energy,
                        evaluated: 0,
                    };
                    best = match best {
                        Some(b) if b.energy <= energy => Some(b),
                        _ => Some(candidate),
                    };
                }
            }
        }
        best.map(|mut b| {
            b.evaluated = evaluated;
            b
        })
        .ok_or_else(|| CoreError::Infeasible {
            detail: "no feasible grid point".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::acs::AcsOptimizer;
    use crate::bound::ConvergenceBound;

    use super::*;

    fn objective() -> EnergyObjective {
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap()
    }

    #[test]
    fn finds_a_feasible_minimum() {
        let s = GridSearch::default().solve(&objective()).unwrap();
        assert!(s.energy.is_finite());
        assert!(s.k >= 1 && s.k <= 20);
        assert!(s.e >= 1);
        assert!(s.evaluated > 100);
    }

    #[test]
    fn grid_matches_acs_on_well_behaved_objective() {
        let o = objective();
        let grid = GridSearch::default().solve(&o).unwrap();
        let acs = AcsOptimizer::default().solve(&o, 10.0, 10.0).unwrap();
        // ACS refines locally around the continuous optimum; on this convex
        // instance it must find the same integer point as brute force.
        assert_eq!((grid.k, grid.e), (acs.k, acs.e));
        assert!((grid.energy - acs.energy).abs() < 1e-9);
    }

    #[test]
    fn grid_is_globally_minimal_by_recheck() {
        let o = objective();
        let s = GridSearch { e_cap: 300 }.solve(&o).unwrap();
        for k in 1..=o.n() {
            for e in 1..=300 {
                if let Some((_, energy)) = o.eval_integer(k, e) {
                    assert!(
                        s.energy <= energy + 1e-9,
                        "grid missed better point ({k}, {e}): {energy} < {}",
                        s.energy
                    );
                }
            }
        }
    }

    #[test]
    fn e_cap_restricts_domain() {
        let o = objective();
        let tight = GridSearch { e_cap: 1 }.solve(&o).unwrap();
        assert_eq!(tight.e, 1);
        let loose = GridSearch { e_cap: 500 }.solve(&o).unwrap();
        assert!(loose.energy <= tight.energy);
    }
}
