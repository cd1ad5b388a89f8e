//! Per-device energy budgets (battery model).
//!
//! The paper's motivation is fleet sustainability: edge devices run on
//! constrained power sources. This module tracks cumulative consumption per
//! device against a capacity, supporting lifetime analysis of a training
//! schedule ("how many rounds until the first device dies?") and
//! energy-aware participant scheduling (the online policy of the paper's
//! reference \[12\]).

/// A fleet of device batteries with fixed capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryFleet {
    capacity_j: Vec<f64>,
    consumed_j: Vec<f64>,
}

impl BatteryFleet {
    /// Creates a fleet where every device has the same capacity, in joules.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `capacity_j` is not positive and finite.
    // fei-lint: allow(ledger-discipline, reason = "battery capacity is a bound, not a spend; spends are classified where EnergyLedger::charge is called")
    pub fn uniform(devices: usize, capacity_j: f64) -> Self {
        assert!(devices > 0, "need at least one device");
        assert!(
            capacity_j.is_finite() && capacity_j > 0.0,
            "capacity must be positive and finite"
        );
        Self {
            capacity_j: vec![capacity_j; devices],
            consumed_j: vec![0.0; devices],
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.capacity_j.len()
    }

    /// Whether the fleet is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.capacity_j.is_empty()
    }

    /// Charges `joules` of consumption to `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or `joules` is negative/not
    /// finite.
    // fei-lint: allow(ledger-discipline, reason = "battery drain mirrors a spend already classified at the ledger; the budget tracks remaining capacity only")
    pub fn consume(&mut self, device: usize, joules: f64) {
        assert!(device < self.len(), "device {device} out of range");
        assert!(
            joules.is_finite() && joules >= 0.0,
            "consumption must be non-negative"
        );
        self.consumed_j[device] += joules;
    }

    /// Remaining energy of `device`, clamped at zero.
    pub(crate) fn remaining(&self, device: usize) -> f64 {
        (self.capacity_j[device] - self.consumed_j[device]).max(0.0)
    }

    /// Remaining state of charge of `device` in `[0, 1]`.
    pub fn state_of_charge(&self, device: usize) -> f64 {
        self.remaining(device) / self.capacity_j[device]
    }

    /// Whether `device` has exhausted its budget.
    pub(crate) fn is_depleted(&self, device: usize) -> bool {
        self.consumed_j[device] >= self.capacity_j[device]
    }

    /// Devices that still have energy left, ascending.
    pub fn alive_devices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&d| !self.is_depleted(d)).collect()
    }

    /// The `k` alive devices with the most remaining energy — a max-lifetime
    /// participant schedule. Returns fewer than `k` when not enough devices
    /// are alive. Ties break toward lower indices.
    pub fn top_k_by_remaining(&self, k: usize) -> Vec<usize> {
        let mut alive = self.alive_devices();
        alive.sort_by(|&a, &b| {
            self.remaining(b)
                .partial_cmp(&self.remaining(a))
                .expect("invariant: charges are validated finite, so remaining energy is never NaN")
                .then(a.cmp(&b))
        });
        alive.truncate(k);
        alive.sort_unstable();
        alive
    }

    /// Total energy consumed across the fleet.
    pub fn total_consumed(&self) -> f64 {
        self.consumed_j.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_fleet_is_fully_charged() {
        let fleet = BatteryFleet::uniform(5, 100.0);
        assert_eq!(fleet.len(), 5);
        assert!(!fleet.is_empty());
        for d in 0..5 {
            assert_eq!(fleet.remaining(d), 100.0);
            assert_eq!(fleet.state_of_charge(d), 1.0);
            assert!(!fleet.is_depleted(d));
        }
        assert_eq!(fleet.alive_devices(), vec![0, 1, 2, 3, 4]);
        assert_eq!(fleet.total_consumed(), 0.0);
    }

    #[test]
    fn consumption_accumulates_and_depletes() {
        let mut fleet = BatteryFleet::uniform(2, 10.0);
        fleet.consume(0, 4.0);
        fleet.consume(0, 4.0);
        assert_eq!(fleet.consumed_j[0], 8.0);
        assert_eq!(fleet.remaining(0), 2.0);
        assert!(!fleet.is_depleted(0));
        fleet.consume(0, 5.0);
        assert!(fleet.is_depleted(0));
        assert_eq!(fleet.remaining(0), 0.0);
        assert_eq!(fleet.state_of_charge(0), 0.0);
        assert_eq!(fleet.alive_devices(), vec![1]);
        assert_eq!(fleet.total_consumed(), 13.0);
    }

    #[test]
    fn top_k_prefers_fullest_batteries() {
        let mut fleet = BatteryFleet::uniform(4, 100.0);
        fleet.consume(0, 50.0);
        fleet.consume(1, 10.0);
        fleet.consume(2, 90.0);
        // remaining: 50, 90, 10, 100 -> top-2 = {3, 1}.
        assert_eq!(fleet.top_k_by_remaining(2), vec![1, 3]);
        assert_eq!(fleet.top_k_by_remaining(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn top_k_excludes_depleted_and_truncates() {
        let mut fleet = BatteryFleet::uniform(3, 10.0);
        fleet.consume(1, 10.0);
        assert_eq!(fleet.top_k_by_remaining(3), vec![0, 2]);
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        let fleet = BatteryFleet::uniform(4, 10.0);
        assert_eq!(fleet.top_k_by_remaining(2), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn consume_rejects_bad_device() {
        BatteryFleet::uniform(1, 1.0).consume(1, 0.1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn consume_rejects_negative() {
        BatteryFleet::uniform(1, 1.0).consume(0, -0.1);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Remaining + consumed never exceeds capacity by more than the
        /// overshoot, and state of charge stays in [0, 1].
        #[test]
        fn charge_invariants(
            charges in proptest::collection::vec((0usize..4, 0.0f64..50.0), 0..32),
        ) {
            let mut fleet = BatteryFleet::uniform(4, 100.0);
            for (d, j) in charges {
                fleet.consume(d, j);
            }
            for d in 0..4 {
                let soc = fleet.state_of_charge(d);
                prop_assert!((0.0..=1.0).contains(&soc));
                prop_assert!(fleet.remaining(d) <= 100.0);
                prop_assert_eq!(fleet.is_depleted(d), fleet.remaining(d) == 0.0);
            }
            let alive = fleet.alive_devices();
            let top = fleet.top_k_by_remaining(4);
            prop_assert_eq!(alive.len(), top.len());
        }
    }
}
