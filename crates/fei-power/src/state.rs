//! Device power states and plateau powers.

use serde::{Deserialize, Serialize};

/// The four power states of an edge server during a global round, in the
/// order the paper observes them (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Step (1): waiting for the coordinator/IoT data; idle draw.
    Waiting,
    /// Step (2): receiving the global model and loading it.
    Downloading,
    /// Step (3): running `E` local SGD epochs.
    Training,
    /// Step (4): uploading the local model to the coordinator.
    Uploading,
}

impl PowerState {
    /// All states in round order.
    pub const ALL: [PowerState; 4] = [
        PowerState::Waiting,
        PowerState::Downloading,
        PowerState::Training,
        PowerState::Uploading,
    ];
}

/// A device's mean power draw in each state, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Idle / waiting power.
    pub waiting_w: f64,
    /// Model-download power.
    pub downloading_w: f64,
    /// Local-training power.
    pub training_w: f64,
    /// Model-upload power.
    pub uploading_w: f64,
}

impl PowerProfile {
    /// The Raspberry Pi 4B plateaus measured by the paper's prototype
    /// (§VI-B): 3.600, 4.286, 5.553, and 5.015 W.
    pub fn raspberry_pi_4b() -> Self {
        Self {
            waiting_w: 3.600,
            downloading_w: 4.286,
            training_w: 5.553,
            uploading_w: 5.015,
        }
    }

    /// Power draw in `state`, in watts.
    pub fn power(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Waiting => self.waiting_w,
            PowerState::Downloading => self.downloading_w,
            PowerState::Training => self.training_w,
            PowerState::Uploading => self.uploading_w,
        }
    }
}

impl Default for PowerProfile {
    fn default() -> Self {
        Self::raspberry_pi_4b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_profile_matches_paper_plateaus() {
        let p = PowerProfile::raspberry_pi_4b();
        assert_eq!(p.power(PowerState::Waiting), 3.600);
        assert_eq!(p.power(PowerState::Downloading), 4.286);
        assert_eq!(p.power(PowerState::Training), 5.553);
        assert_eq!(p.power(PowerState::Uploading), 5.015);
        assert_eq!(PowerProfile::default(), p);
    }

    #[test]
    fn plateau_ordering_matches_fig3() {
        // Fig. 3: waiting < downloading < uploading < training.
        let p = PowerProfile::raspberry_pi_4b();
        assert!(p.waiting_w < p.downloading_w);
        assert!(p.downloading_w < p.uploading_w);
        assert!(p.uploading_w < p.training_w);
    }

    #[test]
    fn all_lists_states_in_round_order() {
        assert_eq!(
            PowerState::ALL,
            [
                PowerState::Waiting,
                PowerState::Downloading,
                PowerState::Training,
                PowerState::Uploading
            ]
        );
    }
}
