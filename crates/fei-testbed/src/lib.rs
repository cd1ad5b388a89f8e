//! The simulated hardware prototype.
//!
//! The paper's measurements come from 20 Raspberry Pi 4B edge servers, a
//! laptop coordinator, a TP-Link WiFi router, and POWER-Z KM001C USB meters.
//! This crate assembles the workspace substrates into that prototype:
//!
//! * [`device::RaspberryPi`] — power plateaus (from `fei-power`) plus the
//!   Table-I-calibrated training-time law;
//! * [`testbed::Testbed`] — builds per-device power timelines for FL rounds,
//!   integrates energy, and samples meter traces (Fig. 3);
//! * [`fl::FlExperiment`] — glue that runs real FedAvg training (from
//!   `fei-fl`) on synthetic MNIST to obtain the `T(K, E)` round counts and
//!   loss curves behind Figs. 4–6;
//! * [`experiment`] — measurement campaigns: regenerate Table I, produce
//!   "measured" energy-vs-`K`/`E` curves, and extract calibration
//!   observations for the bound fit.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod chaos;
#[cfg(test)]
mod des;
mod device;
pub mod experiment;
mod faults;
mod fl;
mod testbed;

pub use chaos::{ChaosCampaign, ChaosCampaignConfig, ChaosCampaignReport};
pub use device::RaspberryPi;
pub use faults::FaultCampaign;
pub use fl::{FlExperiment, FlExperimentConfig, PartitionStrategy, EASY_TARGET, STRINGENT_TARGET};
pub use testbed::{Testbed, TestbedConfig};
