//! Sensitivity analysis: how the optimal operating point moves with the
//! system parameters.
//!
//! The paper fixes one prototype and reports one optimum; these sweeps make
//! the *mechanism* visible — e.g. raising the fixed per-round cost `B₁`
//! pushes `E*` up (batch more local work per round), while raising the
//! gradient-variance constant `A₁` pushes `K*` up (average more clients).
//! The `sensitivity` bench binary prints these tables; the tests pin the
//! directions.

use crate::acs::AcsOptimizer;
use crate::bound::ConvergenceBound;
use crate::energy::RoundEnergyModel;
use crate::error::CoreError;
use crate::objective::EnergyObjective;

/// One sweep point: a parameter value and the re-optimized plan at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// The swept parameter's value at this point.
    pub value: f64,
    /// Optimal `K`.
    pub k: usize,
    /// Optimal `E`.
    pub e: usize,
    /// Round budget at the optimum.
    pub t: usize,
    /// Energy at the optimum, joules.
    pub energy: f64,
    /// Savings fraction versus the `K = 1, E = 1` baseline, when that
    /// baseline is feasible.
    pub savings: Option<f64>,
}

/// A parameter sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// Human-readable name of the swept parameter.
    pub parameter: String,
    /// Sweep points in input order (infeasible values are skipped).
    pub points: Vec<SensitivityPoint>,
}

/// The base system a sweep perturbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityBase {
    /// Per-round energy model.
    pub energy: RoundEnergyModel,
    /// Convergence-bound constants.
    pub bound: ConvergenceBound,
    /// Accuracy (loss-gap) target.
    pub epsilon: f64,
    /// Fleet size.
    pub n: usize,
}

impl SensitivityBase {
    fn solve(
        &self,
        b0: f64,
        b1: f64,
        bound: ConvergenceBound,
        epsilon: f64,
        n: usize,
        value: f64,
    ) -> Option<SensitivityPoint> {
        let objective = EnergyObjective::new(bound, b0, b1, epsilon, n).ok()?;
        let solution = AcsOptimizer::default()
            .solve(&objective, n as f64, 1.0)
            .ok()?;
        let savings = objective
            .eval_integer(1, 1)
            .map(|(_, baseline)| 1.0 - solution.energy / baseline);
        Some(SensitivityPoint {
            value,
            k: solution.k,
            e: solution.e,
            t: solution.t,
            energy: solution.energy,
            savings,
        })
    }

    /// Sweeps the fixed per-round cost `B₁` through `multipliers` of its base
    /// value. Models making communication cheaper/more expensive (payload
    /// size, radio efficiency, collection regime).
    pub fn sweep_b1(&self, multipliers: &[f64]) -> SensitivityReport {
        let points = multipliers
            .iter()
            .filter_map(|&m| {
                self.solve(
                    self.energy.b0(),
                    self.energy.b1() * m,
                    self.bound,
                    self.epsilon,
                    self.n,
                    m,
                )
            })
            .collect();
        SensitivityReport {
            parameter: "B1 multiplier (per-round fixed cost)".into(),
            points,
        }
    }

    /// Sweeps the gradient-variance constant `A₁` through `multipliers` —
    /// the data-heterogeneity dial: IID fleets have small `A₁`, skewed
    /// fleets large `A₁`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the base bound cannot be
    /// rebuilt (cannot happen for a valid base).
    pub fn sweep_a1(&self, multipliers: &[f64]) -> Result<SensitivityReport, CoreError> {
        let mut points = Vec::new();
        for &m in multipliers {
            let bound =
                ConvergenceBound::new(self.bound.a0(), self.bound.a1() * m, self.bound.a2())?;
            if let Some(p) = self.solve(
                self.energy.b0(),
                self.energy.b1(),
                bound,
                self.epsilon,
                self.n,
                m,
            ) {
                points.push(p);
            }
        }
        Ok(SensitivityReport {
            parameter: "A1 multiplier (gradient variance)".into(),
            points,
        })
    }

    /// Sweeps the accuracy target `ε` through the given absolute values.
    pub fn sweep_epsilon(&self, epsilons: &[f64]) -> SensitivityReport {
        let points = epsilons
            .iter()
            .filter_map(|&eps| {
                self.solve(
                    self.energy.b0(),
                    self.energy.b1(),
                    self.bound,
                    eps,
                    self.n,
                    eps,
                )
            })
            .collect();
        SensitivityReport {
            parameter: "epsilon (accuracy target)".into(),
            points,
        }
    }

    /// Sweeps the fleet size `N`.
    pub fn sweep_fleet(&self, sizes: &[usize]) -> SensitivityReport {
        let points = sizes
            .iter()
            .filter_map(|&n| {
                self.solve(
                    self.energy.b0(),
                    self.energy.b1(),
                    self.bound,
                    self.epsilon,
                    n,
                    n as f64,
                )
            })
            .collect();
        SensitivityReport {
            parameter: "N (fleet size)".into(),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SensitivityBase {
        // A pre-loaded-prototype-style model (no NB-IoT collection term, so
        // B1 is not boundary-dominant) and an A0 large enough that the
        // optimal round budget stays interior (away from the T = 1 ceiling
        // where E* is pinned).
        let energy = RoundEnergyModel::new(
            crate::energy::DataCollectionModel::new(0.0).unwrap(),
            crate::energy::ComputationModel::paper_fit(),
            crate::energy::UploadModel::new(0.136).unwrap(),
            3_000,
        )
        .unwrap();
        SensitivityBase {
            energy,
            bound: ConvergenceBound::new(50.0, 0.05, 1e-4).unwrap(),
            epsilon: 0.1,
            n: 20,
        }
    }

    #[test]
    fn pricier_rounds_push_e_up() {
        let report = base().sweep_b1(&[0.1, 1.0, 10.0, 100.0]);
        assert_eq!(report.points.len(), 4);
        let es: Vec<usize> = report.points.iter().map(|p| p.e).collect();
        assert!(
            es.windows(2).all(|w| w[0] <= w[1]),
            "E* should be non-decreasing in B1: {es:?}"
        );
        assert!(es[3] > es[0], "two-decade B1 shift must move E*: {es:?}");
    }

    #[test]
    fn heterogeneity_pushes_k_up() {
        let report = base().sweep_a1(&[0.1, 1.0, 5.0, 20.0]).unwrap();
        let ks: Vec<usize> = report.points.iter().map(|p| p.k).collect();
        assert!(
            ks.windows(2).all(|w| w[0] <= w[1]),
            "K* should be non-decreasing in A1: {ks:?}"
        );
        assert!(
            ks.last().unwrap() > ks.first().unwrap(),
            "A1 shift must move K*: {ks:?}"
        );
    }

    #[test]
    fn tighter_targets_cost_more_energy() {
        let report = base().sweep_epsilon(&[0.4, 0.2, 0.1, 0.06]);
        let energies: Vec<f64> = report.points.iter().map(|p| p.energy).collect();
        assert!(
            energies.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "energy should rise as eps tightens: {energies:?}"
        );
    }

    #[test]
    fn infeasible_sweep_values_are_skipped() {
        // eps below the K=N floor A1/N = 0.0025 is infeasible.
        let report = base().sweep_epsilon(&[0.1, 0.001]);
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].value, 0.1);
    }

    #[test]
    fn fleet_sweep_reports_all_sizes() {
        let report = base().sweep_fleet(&[2, 10, 50]);
        assert_eq!(report.points.len(), 3);
        // Larger fleets can only help (weakly) — the optimum is never worse.
        let energies: Vec<f64> = report.points.iter().map(|p| p.energy).collect();
        assert!(
            energies.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "{energies:?}"
        );
    }

    #[test]
    fn savings_are_reported_when_baseline_feasible() {
        let report = base().sweep_b1(&[1.0]);
        let p = report.points[0];
        assert!(p.savings.is_some());
        assert!(p.savings.unwrap() >= 0.0);
    }
}
