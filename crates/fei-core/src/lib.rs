//! EE-FEI: energy-efficient federated edge intelligence.
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! library:
//!
//! * [`energy`] — the per-step energy models of §IV: data collection
//!   (`e_I = ρ·n_k`, Eq. 4), local training (`e_P = c₀·E·n_k + c₁·E`,
//!   Eq. 5), and the per-upload constant `e_U`, composed into the system
//!   energy `ê(E, K, T) = T·K·(B₀E + B₁)`;
//! * [`bound`] — the local-SGD convergence bound (Proposition 1 / Eq. 10)
//!   and the induced round budget `T*(K, E)` (Eq. 11);
//! * [`objective`] — the biconvex energy objective `ê(K, E)` of Eq. 12 with
//!   the closed-form per-coordinate minimizers `K*` (Eq. 15) and `E*`
//!   (Eq. 17 — both the paper's printed form and the exact stationary
//!   point; see DESIGN.md on the discrepancy);
//! * [`acs`] — Alternate Convex Search (Algorithm 1) with integer
//!   refinement;
//! * `grid` — the exhaustive-search baseline used to validate ACS;
//! * [`calibration`] — least-squares fits for the energy coefficients
//!   (`c₀`, `c₁` from Table I) and the bound constants (`A₀`, `A₁`, `A₂`
//!   from training histories);
//! * [`planner`] — the high-level `optimize everything, report the savings`
//!   API behind the paper's 49.8 % headline.
//!
//! # Example
//!
//! ```
//! use fei_core::bound::ConvergenceBound;
//! use fei_core::objective::EnergyObjective;
//! use fei_core::acs::AcsOptimizer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bound = ConvergenceBound::new(1.0, 0.05, 1e-4)?;
//! let objective = EnergyObjective::new(bound, 0.5, 2.0, 0.1, 20)?;
//! let solution = AcsOptimizer::default().solve(&objective, 10.0, 10.0)?;
//! assert!(solution.energy <= objective.eval(10.0, 10.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod acs;
pub mod bound;
pub mod calibration;
pub mod energy;
mod error;
mod grid;
pub mod ledger;
pub mod objective;
pub mod planner;
pub mod sensitivity;

pub use acs::AcsOptimizer;
pub use bound::ConvergenceBound;
pub use energy::{ComputationModel, DataCollectionModel, RoundEnergyModel, UploadModel};
pub use error::CoreError;
pub use grid::GridSearch;
pub use ledger::{EnergyLedger, EnergyUse};
pub use objective::EnergyObjective;
pub use planner::{EeFeiPlan, EeFeiPlanner};
