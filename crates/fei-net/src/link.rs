//! Point-to-point link model.
//!
//! A link is characterized by bandwidth, a fixed per-transfer latency, and an
//! energy cost. Energy can be dominated either by radio airtime (`power ×
//! duration`, the WiFi case measured in Fig. 3) or by a per-byte constant
//! (the NB-IoT constant the paper quotes for IoT uplinks); the model supports
//! both terms so each preset uses whichever the paper used.

use fei_sim::SimDuration;

/// A point-to-point link with a bandwidth, a fixed latency, and energy costs.
///
/// # Example
///
/// ```
/// use fei_net::Link;
///
/// let wifi = Link::wifi_uplink();
/// let dur = wifi.transfer_duration(62_800);
/// assert!(dur.as_secs_f64() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    bandwidth_bps: f64,
    latency: SimDuration,
    /// Transmit-side power draw while the transfer is active, in watts.
    tx_power_watts: f64,
    /// Additional per-byte transmit energy in joules (NB-IoT-style).
    joules_per_byte: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps <= 0`, or either energy term is negative or
    /// non-finite.
    pub(crate) fn new(
        bandwidth_bps: f64,
        latency: SimDuration,
        tx_power_watts: f64,
        joules_per_byte: f64,
    ) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive"
        );
        assert!(
            tx_power_watts.is_finite() && tx_power_watts >= 0.0,
            "power must be non-negative"
        );
        assert!(
            joules_per_byte.is_finite() && joules_per_byte >= 0.0,
            "per-byte energy must be non-negative"
        );
        Self {
            bandwidth_bps,
            latency,
            tx_power_watts,
            joules_per_byte,
        }
    }

    /// Edge-server → coordinator WiFi uplink.
    ///
    /// 20 Mbit/s effective throughput and 2 ms setup latency are typical for
    /// the 802.11n router in the prototype; the 5.015 W uplink power is the
    /// paper's measured step-(4) plateau.
    pub fn wifi_uplink() -> Self {
        Self::new(20e6, SimDuration::from_millis(2), 5.015, 0.0)
    }

    /// Coordinator → edge-server WiFi downlink (model dispatch).
    ///
    /// Same airtime, with the paper's measured 4.286 W download plateau on
    /// the receiving Pi.
    pub fn wifi_downlink() -> Self {
        Self::new(20e6, SimDuration::from_millis(2), 4.286, 0.0)
    }

    /// IoT-device → edge-server NB-IoT-style uplink.
    ///
    /// NB-IoT's uplink peak is ~60 kbit/s; energy is dominated by the
    /// per-byte constant 7.74 mW·s/byte quoted in §IV-A.
    pub fn nb_iot() -> Self {
        Self::new(60e3, SimDuration::from_millis(10), 0.0, 7.74e-3)
    }

    /// Link bandwidth in bits per second.
    pub(crate) fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// Fixed per-transfer latency.
    pub(crate) fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Transmit power in watts while active.
    pub(crate) fn tx_power_watts(&self) -> f64 {
        self.tx_power_watts
    }

    /// Per-byte transmit energy in joules.
    pub(crate) fn joules_per_byte(&self) -> f64 {
        self.joules_per_byte
    }

    /// Time to move `bytes` across the link: latency + serialization time.
    pub fn transfer_duration(&self, bytes: usize) -> SimDuration {
        let serialization = (bytes as f64 * 8.0) / self.bandwidth_bps;
        self.latency + SimDuration::from_secs_f64(serialization)
    }

    /// Transmit-side energy to move `bytes`: airtime power plus the per-byte
    /// term.
    pub fn transfer_energy_joules(&self, bytes: usize) -> f64 {
        let airtime = self.transfer_duration(bytes).as_secs_f64();
        self.tx_power_watts * airtime + self.joules_per_byte * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_is_latency_plus_serialization() {
        let link = Link::new(8e6, SimDuration::from_millis(5), 1.0, 0.0);
        // 1 MB at 8 Mbit/s = 1 s, plus 5 ms latency.
        let d = link.transfer_duration(1_000_000);
        assert!((d.as_secs_f64() - 1.005).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let link = Link::wifi_uplink();
        assert_eq!(link.transfer_duration(0), link.latency());
    }

    #[test]
    fn power_term_energy() {
        let link = Link::new(8e6, SimDuration::ZERO, 2.0, 0.0);
        // 1 MB at 8 Mbit/s = 1 s at 2 W = 2 J.
        assert!((link.transfer_energy_joules(1_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_byte_term_energy() {
        let link = Link::nb_iot();
        let e = link.transfer_energy_joules(100);
        assert!((e - 0.774).abs() < 1e-12, "{e}");
    }

    #[test]
    fn energy_is_monotone_in_bytes() {
        let link = Link::wifi_uplink();
        assert!(link.transfer_energy_joules(2_000) > link.transfer_energy_joules(1_000));
    }

    #[test]
    fn presets_have_paper_power_plateaus() {
        assert_eq!(Link::wifi_uplink().tx_power_watts(), 5.015);
        assert_eq!(Link::wifi_downlink().tx_power_watts(), 4.286);
        assert_eq!(Link::nb_iot().joules_per_byte(), 7.74e-3);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = Link::new(0.0, SimDuration::ZERO, 0.0, 0.0);
    }
}
