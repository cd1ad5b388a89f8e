//! The high-level EE-FEI planning API.
//!
//! [`EeFeiPlanner`] composes the calibrated energy model and convergence
//! bound into the Eq. 12 objective, runs ACS, and reports the optimized
//! operating point next to the paper's `K = 1, E = 1` baseline — the
//! comparison behind the 49.8 % headline.

use crate::acs::{AcsOptimizer, AcsSolution};
use crate::bound::ConvergenceBound;
use crate::energy::RoundEnergyModel;
use crate::error::CoreError;
use crate::objective::EnergyObjective;

/// An optimized EE-FEI operating point with its baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EeFeiPlan {
    /// The ACS solution (optimal `K`, `E`, `T`, energy).
    pub solution: AcsSolution,
    /// Round budget of the `K = 1, E = 1` baseline.
    pub baseline_t: usize,
    /// Energy of the `K = 1, E = 1` baseline, joules.
    pub baseline_energy: f64,
    /// Fraction of baseline energy saved, in `[0, 1)` — the paper reports
    /// 0.498 for its prototype.
    pub savings_fraction: f64,
}

/// Composes energy model + bound + target into a solvable plan.
#[derive(Debug, Clone, PartialEq)]
pub struct EeFeiPlanner {
    energy: RoundEnergyModel,
    bound: ConvergenceBound,
    epsilon: f64,
    n: usize,
    optimizer: AcsOptimizer,
}

impl EeFeiPlanner {
    /// Creates a planner for a fleet of `n` edge servers targeting loss gap
    /// `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive `epsilon`
    /// or zero fleet, and [`CoreError::Infeasible`] when even `K = N, E = 1`
    /// cannot reach the target.
    pub fn new(
        energy: RoundEnergyModel,
        bound: ConvergenceBound,
        epsilon: f64,
        n: usize,
    ) -> Result<Self, CoreError> {
        // Validate by constructing the objective once.
        let _ = EnergyObjective::new(bound, energy.b0(), energy.b1(), epsilon, n)?;
        Ok(Self {
            energy,
            bound,
            epsilon,
            n,
            optimizer: AcsOptimizer::default(),
        })
    }

    /// Replaces the ACS settings (residual `ξ`, iteration cap, refinement
    /// radius).
    pub fn with_optimizer(mut self, optimizer: AcsOptimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// The Eq. 12 objective this planner optimizes.
    pub fn objective(&self) -> EnergyObjective {
        EnergyObjective::new(
            self.bound,
            self.energy.b0(),
            self.energy.b1(),
            self.epsilon,
            self.n,
        )
        .expect("invariant: the same objective was validated in EeFeiPlanner::new")
    }

    /// Re-plans `(K*, E*)` for a fleet that shrank to `surviving_n` devices
    /// — the graceful-degradation path when crashes take edge servers out
    /// mid-campaign. The energy model, bound, and target are unchanged;
    /// only the fleet ceiling moves, so `K*` is re-optimized against the
    /// survivors.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `surviving_n` is zero or grew
    /// beyond the planned fleet, and [`CoreError::Infeasible`] when the
    /// survivors cannot reach the accuracy target at all.
    pub fn replan_for_fleet(&self, surviving_n: usize) -> Result<EeFeiPlan, CoreError> {
        if surviving_n == 0 {
            return Err(CoreError::invalid(
                "surviving_n",
                "no devices survive; nothing to plan for",
            ));
        }
        if surviving_n > self.n {
            return Err(CoreError::invalid(
                "surviving_n",
                format!(
                    "surviving fleet {surviving_n} exceeds planned fleet {}",
                    self.n
                ),
            ));
        }
        Self::new(self.energy, self.bound, self.epsilon, surviving_n)?
            .with_optimizer(self.optimizer)
            .plan()
    }

    /// Re-plans `(K*, E*)` for a given uplink payload size: the constant
    /// `e_U` in `B₁ = ρ·n + e_U` (Eq. 12) is replaced by the energy `link`
    /// actually charges for `payload_bytes` — airtime power × duration plus
    /// `joules_per_byte × bytes`. This is the closing of the loop for wire
    /// compression: a smaller encoded model shrinks `B₁`, which shifts the
    /// optimizer away from batching local epochs and toward more frequent
    /// (now cheaper) rounds. Pass the true frame bytes per upload, e.g.
    /// `TransportStats::bytes_up / jobs` from a calibration run.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the derived `e_U` is not a
    /// usable energy, and [`CoreError::Infeasible`] when the unchanged
    /// bound/target cannot be met (it never regresses from the original
    /// plan, since only `B₁` moves).
    pub fn replan_for_payload(
        &self,
        link: &fei_net::Link,
        payload_bytes: usize,
    ) -> Result<EeFeiPlan, CoreError> {
        let upload = crate::energy::UploadModel::from_link(link, payload_bytes)?;
        Self::new(
            self.energy.with_upload(upload),
            self.bound,
            self.epsilon,
            self.n,
        )?
        .with_optimizer(self.optimizer)
        .plan()
    }

    /// Re-plans `(K*, E*)` for a fleet under Byzantine attack: of
    /// `surviving_n` live devices, an estimated `attacker_fraction` ship
    /// updates the coordinator's screen will reject (or a robust rule will
    /// discard), so the *effective* fleet contributing model progress is
    /// `⌊surviving_n · (1 − attacker_fraction)⌋`. `K*` is re-optimized
    /// against that honest core — the expected screening loss is priced in
    /// as a reduction of usable parallelism, exactly as crashes are in
    /// [`EeFeiPlanner::replan_for_fleet`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `attacker_fraction` is outside
    /// `[0, 1)`, the effective fleet is empty, or `surviving_n` grew beyond
    /// the planned fleet; [`CoreError::Infeasible`] when the honest core
    /// cannot reach the accuracy target at all.
    pub fn replan_for_fleet_under_attack(
        &self,
        surviving_n: usize,
        attacker_fraction: f64,
    ) -> Result<EeFeiPlan, CoreError> {
        if !(0.0..1.0).contains(&attacker_fraction) {
            return Err(CoreError::invalid(
                "attacker_fraction",
                format!("attacker fraction must be in [0, 1), got {attacker_fraction}"),
            ));
        }
        let honest = (surviving_n as f64 * (1.0 - attacker_fraction)).floor() as usize;
        if honest == 0 {
            return Err(CoreError::invalid(
                "attacker_fraction",
                format!(
                    "no honest devices left: {surviving_n} survivors at \
                     attacker fraction {attacker_fraction}"
                ),
            ));
        }
        self.replan_for_fleet(honest.min(surviving_n))
    }

    /// Runs ACS and compares against the `K = 1, E = 1` baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] if the baseline `(1, 1)` is itself
    /// infeasible (then there is nothing to compare against; the solution
    /// alone can still be obtained via [`EeFeiPlanner::objective`] and
    /// [`AcsOptimizer::solve`]).
    pub fn plan(&self) -> Result<EeFeiPlan, CoreError> {
        let objective = self.objective();
        let solution = self.optimizer.solve(&objective, self.n as f64, 1.0)?;
        let (baseline_t, baseline_energy) =
            objective
                .eval_integer(1, 1)
                .ok_or_else(|| CoreError::Infeasible {
                    detail: "baseline K = 1, E = 1 cannot reach the accuracy target".into(),
                })?;
        let savings_fraction = if baseline_energy > 0.0 {
            (1.0 - solution.energy / baseline_energy).max(0.0)
        } else {
            0.0
        };
        Ok(EeFeiPlan {
            solution,
            baseline_t,
            baseline_energy,
            savings_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::energy::{ComputationModel, DataCollectionModel, UploadModel};

    use super::*;

    fn planner() -> EeFeiPlanner {
        let energy = RoundEnergyModel::new(
            DataCollectionModel::new(0.01).unwrap(),
            ComputationModel::paper_fit(),
            UploadModel::wifi_default(),
            3_000,
        )
        .unwrap();
        let bound = ConvergenceBound::new(1.0, 0.05, 1e-4).unwrap();
        EeFeiPlanner::new(energy, bound, 0.1, 20).unwrap()
    }

    #[test]
    fn plan_beats_baseline() {
        let plan = planner().plan().unwrap();
        assert!(plan.solution.energy <= plan.baseline_energy);
        assert!((0.0..1.0).contains(&plan.savings_fraction));
        let recomputed = 1.0 - plan.solution.energy / plan.baseline_energy;
        assert!((plan.savings_fraction - recomputed).abs() < 1e-12);
    }

    #[test]
    fn optimized_e_exceeds_one_when_rounds_are_expensive() {
        // With a large fixed per-round cost B1, batching local work (E > 1)
        // must win — the mechanism behind the paper's 49.8 %.
        let plan = planner().plan().unwrap();
        assert!(plan.solution.e > 1, "E* = {}", plan.solution.e);
    }

    #[test]
    fn baseline_round_budget_matches_bound() {
        let p = planner();
        let plan = p.plan().unwrap();
        let t = p.objective().bound().t_star_rounds(0.1, 1, 1).unwrap();
        assert_eq!(plan.baseline_t, t);
    }

    #[test]
    fn infeasible_baseline_is_an_error() {
        // A1 = 1.5 > eps = 0.1 makes K = 1 infeasible while K = 20 works.
        let energy = RoundEnergyModel::paper_default();
        let bound = ConvergenceBound::new(1.0, 1.5, 1e-5).unwrap();
        let planner = EeFeiPlanner::new(energy, bound, 0.1, 20).unwrap();
        assert!(matches!(planner.plan(), Err(CoreError::Infeasible { .. })));
    }

    #[test]
    fn with_optimizer_overrides_settings() {
        let custom = AcsOptimizer {
            residual: 1e-3,
            max_iterations: 5,
            e_cap: 1_000,
        };
        let plan = planner().with_optimizer(custom).plan().unwrap();
        assert!(plan.solution.iterations <= 5);
    }

    #[test]
    fn replan_for_smaller_fleet_caps_k() {
        let p = planner();
        let degraded = p.replan_for_fleet(5).unwrap();
        assert!(degraded.solution.k <= 5, "K* = {}", degraded.solution.k);
        // Same-size replan reproduces the original plan exactly.
        assert_eq!(p.replan_for_fleet(20).unwrap(), p.plan().unwrap());
    }

    #[test]
    fn replan_rejects_empty_or_grown_fleet() {
        let p = planner();
        assert!(matches!(
            p.replan_for_fleet(0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            p.replan_for_fleet(21),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn replan_under_attack_shrinks_to_the_honest_core() {
        let p = planner();
        // 20 survivors at 30% attackers → 14 honest devices cap K*.
        let attacked = p.replan_for_fleet_under_attack(20, 0.3).unwrap();
        assert_eq!(attacked, p.replan_for_fleet(14).unwrap());
        assert!(attacked.solution.k <= 14, "K* = {}", attacked.solution.k);
        // Zero attackers reproduce the plain replan exactly.
        assert_eq!(
            p.replan_for_fleet_under_attack(20, 0.0).unwrap(),
            p.replan_for_fleet(20).unwrap()
        );
    }

    #[test]
    fn replan_under_attack_rejects_bad_fractions() {
        let p = planner();
        assert!(matches!(
            p.replan_for_fleet_under_attack(20, 1.0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            p.replan_for_fleet_under_attack(20, -0.1),
            Err(CoreError::InvalidParameter { .. })
        ));
        // 1 survivor at 60% attackers floors to zero honest devices.
        assert!(matches!(
            p.replan_for_fleet_under_attack(1, 0.6),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn replan_infeasible_when_survivors_cannot_reach_target() {
        // A1 = 1.5: K = 1 infeasible, larger K feasible — shrinking to a
        // single survivor makes the target unreachable.
        let energy = RoundEnergyModel::paper_default();
        let bound = ConvergenceBound::new(1.0, 1.5, 1e-5).unwrap();
        let planner = EeFeiPlanner::new(energy, bound, 0.2, 20).unwrap();
        assert!(matches!(
            planner.replan_for_fleet(1),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn replan_for_payload_cuts_energy_with_smaller_frames() {
        let p = planner();
        let link = fei_net::Link::wifi_uplink();
        // F64 lossless vs Q8+delta: the same 7 850-weight model at 8 B/weight
        // versus ~1 B/weight (+ block metadata).
        let lossless = p.replan_for_payload(&link, 7 + 7_850 * 8).unwrap();
        let q8 = p.replan_for_payload(&link, 7 + 7_850 + 31 * 8).unwrap();
        assert!(
            q8.solution.energy < lossless.solution.energy,
            "q8 {} vs lossless {}",
            q8.solution.energy,
            lossless.solution.energy
        );
        // Cheaper rounds mean less pressure to batch local epochs.
        assert!(
            q8.solution.e <= lossless.solution.e,
            "E* grew: {} -> {}",
            lossless.solution.e,
            q8.solution.e
        );
        // Same accuracy machinery: the round budget for a given (K, E) is
        // untouched, only the energy objective moved.
        assert_eq!(q8.baseline_t, lossless.baseline_t);
    }

    #[test]
    fn replan_for_payload_matches_manual_upload_swap() {
        let p = planner();
        let link = fei_net::Link::wifi_uplink();
        let payload = 62_800;
        let replanned = p.replan_for_payload(&link, payload).unwrap();
        let manual = EeFeiPlanner::new(
            p.energy
                .with_upload(UploadModel::from_link(&link, payload).unwrap()),
            p.bound,
            p.epsilon,
            p.n,
        )
        .unwrap()
        .plan()
        .unwrap();
        assert_eq!(replanned, manual);
    }

    #[test]
    fn unreachable_target_rejected_at_construction() {
        let energy = RoundEnergyModel::paper_default();
        let bound = ConvergenceBound::new(1.0, 10.0, 1e-4).unwrap();
        assert!(matches!(
            EeFeiPlanner::new(energy, bound, 0.1, 20),
            Err(CoreError::Infeasible { .. })
        ));
    }
}
