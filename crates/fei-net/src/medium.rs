//! Shared-medium (router airtime) modelling.
//!
//! When `K` selected edge servers upload their models in the same
//! coordination step, they share the WiFi router's airtime. We use the
//! standard fair-share (processor-sharing) approximation: with `m`
//! concurrent transfers each proceeds at `1/m` of the link rate. For the
//! equal-size uploads of FedAvg this collapses to a simple closed form —
//! every upload takes `m ×` the solo serialization time — which is what the
//! testbed uses to place upload windows on the timeline.

use fei_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::link::Link;

/// A link shared fairly among concurrent transmitters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedMedium {
    link: Link,
}

impl SharedMedium {
    /// Wraps a point-to-point link as a fair-shared medium.
    pub fn new(link: Link) -> Self {
        Self { link }
    }

    /// Duration of each transfer when `concurrent` equal transfers of
    /// `bytes` each start simultaneously (fair airtime sharing: all finish
    /// together at `concurrent ×` the solo serialization time, plus one
    /// latency).
    ///
    /// # Panics
    ///
    /// Panics if `concurrent == 0`.
    pub fn concurrent_transfer_duration(&self, bytes: usize, concurrent: usize) -> SimDuration {
        assert!(concurrent > 0, "need at least one transmitter");
        let solo_serialization = (bytes as f64 * 8.0) / self.link.bandwidth_bps();
        self.link.latency() + SimDuration::from_secs_f64(solo_serialization * concurrent as f64)
    }

    /// Transmit-side energy of **one** participant in a `concurrent`-way
    /// equal transfer: radio power is burned for the (stretched) airtime
    /// window, plus any per-byte term.
    ///
    /// # Panics
    ///
    /// Panics if `concurrent == 0`.
    pub fn concurrent_transfer_energy_joules(&self, bytes: usize, concurrent: usize) -> f64 {
        let duration = self.concurrent_transfer_duration(bytes, concurrent);
        self.link.tx_power_watts() * duration.as_secs_f64()
            + self.link.joules_per_byte() * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> SharedMedium {
        SharedMedium::new(Link::new(8e6, SimDuration::from_millis(2), 5.0, 0.0))
    }

    #[test]
    fn single_transfer_matches_link() {
        let m = medium();
        assert_eq!(
            m.concurrent_transfer_duration(10_000, 1),
            m.link.transfer_duration(10_000)
        );
    }

    #[test]
    fn contention_stretches_duration_linearly() {
        let m = medium();
        // 1 MB at 8 Mbit/s = 1 s solo serialization.
        let solo = m.concurrent_transfer_duration(1_000_000, 1);
        let four = m.concurrent_transfer_duration(1_000_000, 4);
        let solo_ser = solo.as_secs_f64() - 0.002;
        let four_ser = four.as_secs_f64() - 0.002;
        assert!((four_ser - 4.0 * solo_ser).abs() < 1e-9);
    }

    #[test]
    fn per_participant_energy_grows_with_contention() {
        let m = medium();
        let e1 = m.concurrent_transfer_energy_joules(1_000_000, 1);
        let e4 = m.concurrent_transfer_energy_joules(1_000_000, 4);
        assert!(e4 > e1 * 3.5, "contention should stretch airtime energy");
    }

    #[test]
    fn per_byte_term_unaffected_by_contention() {
        let m = SharedMedium::new(Link::nb_iot());
        let e1 = m.concurrent_transfer_energy_joules(100, 1);
        let e5 = m.concurrent_transfer_energy_joules(100, 5);
        // NB-IoT preset has zero radio power, so energy is purely per-byte.
        assert_eq!(e1, e5);
    }

    #[test]
    #[should_panic(expected = "at least one transmitter")]
    fn rejects_zero_transmitters() {
        let _ = medium().concurrent_transfer_duration(1, 0);
    }
}
