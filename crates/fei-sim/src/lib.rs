//! Discrete-event simulation kernel for the EE-FEI testbed.
//!
//! The paper's measurements come from a physical prototype (20 Raspberry Pis
//! with USB power meters). This crate provides the deterministic substrate the
//! simulated prototype runs on:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — nanosecond-resolution virtual
//!   clock, enough to place 1 kHz power-meter samples exactly;
//! * [`queue::EventQueue`] — a stable priority queue of timestamped events
//!   (FIFO among equal timestamps, so runs are reproducible);
//! * [`sim::Simulation`] — a minimal run loop around the queue;
//! * [`rng::DetRng`] — a small deterministic SplitMix64 generator with the
//!   uniform/Gaussian/choice helpers the rest of the workspace needs.
//!
//! # Example
//!
//! ```
//! use fei_sim::{Simulation, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_after(SimDuration::from_millis(5), Ev::Ping);
//! sim.schedule_after(SimDuration::from_millis(2), Ev::Pong);
//! let (t1, e1) = sim.step().unwrap();
//! assert_eq!(e1, Ev::Pong);
//! assert_eq!(t1, SimTime::from_millis(2));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod queue;
mod rng;
mod sim;
mod time;

pub use queue::EventQueue;
pub use rng::DetRng;
pub use sim::Simulation;
pub use time::{SimDuration, SimTime};
