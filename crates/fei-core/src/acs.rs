//! Alternate Convex Search (Algorithm 1).
//!
//! Theorem 1 establishes that `ê(K, E)` is strictly biconvex, so the ACS
//! scheme of Gorski, Pfeuffer & Klamroth (2007) — alternately minimizing the
//! closed-form `K*` (Eq. 15) and `E*` (exact stationary point) — converges
//! monotonically to a partial optimum. The search runs on the continuous
//! relaxation and finishes with a local integer refinement, evaluating the
//! *integer* objective (whole rounds `T = ⌈T*⌉`) on the neighbourhood of the
//! continuous solution.

use crate::error::CoreError;
use crate::objective::EnergyObjective;

/// One continuous ACS iterate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcsIterate {
    /// `K` after this iteration.
    pub k: f64,
    /// `E` after this iteration.
    pub e: f64,
    /// Objective value `ê(K, E)`.
    pub energy: f64,
}

/// The result of an ACS run: integer operating point plus the continuous
/// trajectory that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct AcsSolution {
    /// Optimal number of participating servers per round.
    pub k: usize,
    /// Optimal local epochs per round.
    pub e: usize,
    /// Round budget `⌈T*(K, E)⌉` at the integer optimum.
    pub t: usize,
    /// Total energy at the integer optimum, joules.
    pub energy: f64,
    /// Continuous `K` before integer refinement.
    pub continuous_k: f64,
    /// Continuous `E` before integer refinement.
    pub continuous_e: f64,
    /// Number of ACS iterations performed.
    pub iterations: usize,
    /// The continuous trajectory, one entry per iteration.
    pub trajectory: Vec<AcsIterate>,
}

/// The ACS driver (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcsOptimizer {
    /// Target residual `ξ`: stop when successive objective values differ by
    /// less than this.
    pub residual: f64,
    /// Iteration cap (safety net; convergence is typically < 10 iterations).
    pub max_iterations: usize,
    /// Cap on `E` during the integer refinement sweep (the feasible region
    /// may end earlier; with `A₂ = 0` it never does).
    pub e_cap: usize,
}

impl Default for AcsOptimizer {
    fn default() -> Self {
        Self {
            residual: 1e-9,
            max_iterations: 100,
            e_cap: 10_000,
        }
    }
}

impl AcsOptimizer {
    /// Runs ACS from the initial point `(k0, e0)`.
    ///
    /// The initial point is projected into the feasible region first (the
    /// paper's search domains `𝒵_K`, `𝒵_E`). Iteration alternates
    /// Step 1 (`K ← K*(E)`, Eq. 15) and Step 2 (`E ← E*(K)`) until the
    /// objective decrease falls below `ξ`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no feasible `(K, E)` exists
    /// (cannot happen if `objective` was constructed successfully, since
    /// construction checks `K = N, E = 1`).
    pub fn solve(
        &self,
        objective: &EnergyObjective,
        k0: f64,
        e0: f64,
    ) -> Result<AcsSolution, CoreError> {
        let n = objective.n() as f64;

        // Project the start into the feasible box.
        let mut k = k0.clamp(1.0, n);
        let mut e = e0.max(1.0);
        if !objective.eval(k, e).is_finite() {
            // Fall back to the always-feasible corner E = 1 with the largest
            // feasible K (construction guarantees (N, 1) is feasible).
            e = 1.0;
            k = objective.k_star(e).unwrap_or(n);
        }

        let mut energy = objective.eval(k, e);
        let mut trajectory = vec![AcsIterate { k, e, energy }];
        let mut iterations = 0;

        while iterations < self.max_iterations {
            iterations += 1;

            // Step 1: optimal K for the current E.
            if let Some(k_new) = objective.k_star(e) {
                k = k_new;
            }
            // Step 2: optimal E for the current K.
            if let Some(e_new) = objective.e_star_exact(k) {
                if e_new.is_finite() {
                    e = e_new;
                } else {
                    // A2 = 0: energy decreases monotonically in E; cap at a
                    // large practical epoch budget.
                    e = 10_000.0;
                }
            }

            let new_energy = objective.eval(k, e);
            trajectory.push(AcsIterate {
                k,
                e,
                energy: new_energy,
            });
            let delta = (energy - new_energy).abs();
            energy = new_energy;
            if delta <= self.residual {
                break;
            }
        }

        if !energy.is_finite() {
            return Err(CoreError::Infeasible {
                detail: "ACS could not locate a feasible point".into(),
            });
        }

        let (ik, ie, it, int_energy) = self.refine_integer(objective, k, e)?;
        Ok(AcsSolution {
            k: ik,
            e: ie,
            t: it,
            energy: int_energy,
            continuous_k: k,
            continuous_e: e,
            iterations,
            trajectory,
        })
    }

    /// Integer refinement by coordinate descent under the *integer*
    /// objective (whole rounds `T = ⌈T*⌉`).
    ///
    /// The ceiling on `T` perturbs the continuous landscape — when `T* < 1`
    /// the integer optimum can sit far from the continuous one — so instead
    /// of probing a fixed neighbourhood we alternate exhaustive
    /// per-coordinate scans (`K` over `[1, N]`, `E` over the feasible range
    /// up to `e_cap`), seeded from the rounded continuous point and the
    /// domain corners. Each sweep only improves the objective, so the
    /// descent terminates.
    fn refine_integer(
        &self,
        objective: &EnergyObjective,
        k: f64,
        e: f64,
    ) -> Result<(usize, usize, usize, f64), CoreError> {
        let n = objective.n();
        let mut seeds = vec![
            (
                k.round().clamp(1.0, n as f64) as usize,
                e.round().max(1.0) as usize,
            ),
            (1, 1),
            (n, 1),
        ];
        // One seed per K on the continuous per-coordinate optimal curve.
        // Because each seed's first E-sweep is exhaustive over the feasible
        // range, covering every K guarantees the descent visits the global
        // integer optimum's basin.
        for kk in 1..=n {
            if let Some(e_star) = objective.e_star_exact(kk as f64) {
                let e_seed = if e_star.is_finite() {
                    e_star.round().max(1.0) as usize
                } else {
                    self.e_cap
                };
                seeds.push((kk, e_seed));
            }
        }
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (mut kk, mut ee) in seeds {
            // Coordinate descent from this seed.
            for _sweep in 0..16 {
                let before = objective.eval_integer(kk, ee).map(|(_, en)| en);
                // E-sweep at fixed K.
                let e_hi = {
                    let em = objective.e_max(kk as f64);
                    if em.is_finite() {
                        (em.ceil() as usize).min(self.e_cap)
                    } else {
                        self.e_cap
                    }
                };
                if let Some((e_new, _)) = fei_math::optimize::minimize_over_integers(
                    |ecand| match objective.eval_integer(kk, ecand as usize) {
                        Some((_, en)) => en,
                        None => f64::INFINITY,
                    },
                    1,
                    e_hi.max(1) as u64,
                ) {
                    ee = e_new as usize;
                }
                // K-sweep at fixed E.
                if let Some((k_new, _)) = fei_math::optimize::minimize_over_integers(
                    |kcand| match objective.eval_integer(kcand as usize, ee) {
                        Some((_, en)) => en,
                        None => f64::INFINITY,
                    },
                    1,
                    n as u64,
                ) {
                    kk = k_new as usize;
                }
                let after = objective.eval_integer(kk, ee).map(|(_, en)| en);
                if before == after {
                    break;
                }
            }
            if let Some((t, energy)) = objective.eval_integer(kk, ee) {
                best = match best {
                    Some(b) if b.3 <= energy => Some(b),
                    _ => Some((kk, ee, t, energy)),
                };
            }
        }
        best.ok_or_else(|| CoreError::Infeasible {
            detail: format!("no feasible integer point near (K={k:.2}, E={e:.2})"),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::bound::ConvergenceBound;

    use super::*;

    fn objective() -> EnergyObjective {
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20).unwrap()
    }

    #[test]
    fn converges_in_few_iterations() {
        let o = objective();
        let s = AcsOptimizer::default().solve(&o, 10.0, 10.0).unwrap();
        assert!(s.iterations < 20, "took {} iterations", s.iterations);
        assert!(s.energy.is_finite());
        assert!(s.k >= 1 && s.k <= 20);
        assert!(s.e >= 1);
        assert!(s.t >= 1);
    }

    #[test]
    fn trajectory_is_monotone_nonincreasing() {
        let o = objective();
        let s = AcsOptimizer::default().solve(&o, 20.0, 1.0).unwrap();
        for pair in s.trajectory.windows(2) {
            assert!(
                pair[1].energy <= pair[0].energy + 1e-9,
                "energy increased: {} -> {}",
                pair[0].energy,
                pair[1].energy
            );
        }
    }

    #[test]
    fn different_starts_reach_same_optimum() {
        // Biconvexity does not guarantee a unique partial optimum in
        // general, but this objective is well-behaved; all starts must agree.
        let o = objective();
        let opt = AcsOptimizer::default();
        let a = opt.solve(&o, 1.0, 1.0).unwrap();
        let b = opt.solve(&o, 20.0, 100.0).unwrap();
        let c = opt.solve(&o, 5.0, 50.0).unwrap();
        assert_eq!((a.k, a.e), (b.k, b.e));
        assert_eq!((a.k, a.e), (c.k, c.e));
    }

    #[test]
    fn solution_beats_paper_baseline() {
        let o = objective();
        let s = AcsOptimizer::default().solve(&o, 1.0, 1.0).unwrap();
        let (_, baseline) = o.eval_integer(1, 1).unwrap();
        assert!(
            s.energy <= baseline,
            "ACS {} should not exceed K=1,E=1 baseline {}",
            s.energy,
            baseline
        );
    }

    #[test]
    fn infeasible_start_is_projected() {
        let o = objective();
        // E = 5000 is far beyond e_max; ACS must recover.
        let s = AcsOptimizer::default().solve(&o, 10.0, 5_000.0).unwrap();
        assert!(s.energy.is_finite());
    }

    #[test]
    fn integer_energy_dominates_continuous() {
        let o = objective();
        let s = AcsOptimizer::default().solve(&o, 10.0, 10.0).unwrap();
        // Whole rounds can only cost at least the continuous relaxation's
        // global optimum.
        let cont = o.eval(s.continuous_k, s.continuous_e);
        assert!(s.energy >= cont - 1e-9);
    }

    #[test]
    fn a2_zero_runs_e_to_the_one_round_point() {
        let bound = ConvergenceBound::new(1.0, 0.05, 0.0).unwrap();
        let o = EnergyObjective::new(bound, 1e-9, 10.0, 0.1, 20).unwrap();
        let s = AcsOptimizer {
            e_cap: 500,
            ..Default::default()
        }
        .solve(&o, 5.0, 5.0)
        .unwrap();
        // Without a drift term extra epochs are almost free, and each
        // reduces T* — until the integer budget bottoms out at T = 1. With
        // K* = 1, T*(1, E) = 20/E, so the integer optimum is E = 20, T = 1.
        assert_eq!(s.t, 1);
        assert_eq!(s.e, 20);
        // The continuous relaxation kept pushing E toward the epoch cap.
        assert!(s.continuous_e > 500.0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::bound::ConvergenceBound;

    use super::*;

    fn arb_objective() -> impl Strategy<Value = EnergyObjective> {
        (
            0.1f64..10.0,
            0.001f64..0.5,
            1e-5f64..1e-3,
            0.01f64..5.0,
            0.01f64..10.0,
            0.05f64..0.5,
            2usize..30,
        )
            .prop_filter_map("feasible objective", |(a0, a1, a2, b0, b1, eps, n)| {
                let bound = ConvergenceBound::new(a0, a1, a2).ok()?;
                EnergyObjective::new(bound, b0, b1, eps, n).ok()
            })
    }

    proptest! {
        /// ACS never increases the objective along its trajectory and always
        /// lands on a feasible integer point.
        #[test]
        fn acs_is_monotone_and_feasible(
            o in arb_objective(),
            k0 in 1.0f64..30.0,
            e0 in 1.0f64..100.0,
        ) {
            let s = AcsOptimizer::default().solve(&o, k0.min(o.n() as f64), e0).unwrap();
            for pair in s.trajectory.windows(2) {
                prop_assert!(pair[1].energy <= pair[0].energy + pair[0].energy.abs() * 1e-9 + 1e-9);
            }
            prop_assert!(o.eval_integer(s.k, s.e).is_some());
            let (t, energy) = o.eval_integer(s.k, s.e).unwrap();
            prop_assert_eq!(t, s.t);
            prop_assert!((energy - s.energy).abs() < 1e-9);
        }

        /// The ACS integer point never loses to the paper baseline (K=1,E=1)
        /// when that baseline is feasible.
        #[test]
        fn acs_beats_or_matches_baseline(o in arb_objective()) {
            let s = AcsOptimizer::default().solve(&o, 1.0, 1.0).unwrap();
            if let Some((_, baseline)) = o.eval_integer(1, 1) {
                prop_assert!(s.energy <= baseline + baseline * 1e-9);
            }
        }
    }
}
