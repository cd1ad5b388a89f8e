//! Power and energy substrate for the EE-FEI testbed.
//!
//! The paper instruments each Raspberry Pi with a POWER-Z KM001C USB meter
//! sampling at 1 kHz and observes four power plateaus per global round
//! (Fig. 3): waiting 3.600 W, model downloading 4.286 W, local training
//! 5.553 W, and model uploading 5.015 W. This crate reproduces that
//! measurement chain:
//!
//! * [`state::PowerState`] / [`state::PowerProfile`] — the four states and a
//!   device's plateau powers (with the Pi 4B preset from the paper);
//! * [`timeline::PowerTimeline`] — the ground-truth sequence of state
//!   segments a device traverses during a round;
//! * [`meter::PowerMeter`] — the 1 kHz sampler, with Gaussian sensor noise
//!   and the download-start spikes visible in Fig. 3;
//! * [`meter::PowerTrace`] — sampled traces with energy integration and
//!   per-window statistics;
//! * `analysis` — recovery of per-state mean powers from a sampled trace
//!   (the numbers §VI-B reports);
//! * [`budget::BatteryFleet`] — per-device energy budgets for lifetime
//!   analysis and energy-aware participant scheduling.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod analysis;
mod budget;
mod meter;
mod state;
mod timeline;

pub use analysis::per_state_mean_power;
pub use budget::BatteryFleet;
pub use meter::{PowerMeter, PowerTrace};
pub use state::{PowerProfile, PowerState};
pub use timeline::PowerTimeline;
