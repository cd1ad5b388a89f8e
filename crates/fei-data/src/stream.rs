//! IoT-side data-upload modelling.
//!
//! Step (1) of every global round in the paper is *data collection*: IoT
//! devices upload `n_k` fixed-size samples to their edge server. The energy
//! model (Eq. 4) reduces this to `e_I = rho_k * n_k`; the testbed also needs
//! the byte volume and an arrival schedule to place the upload on the
//! simulated network. NB-IoT's published per-byte transmit energy
//! (7.74 mW·s/byte, quoted in the paper) is the default.

/// NB-IoT uplink energy per byte, in joules (7.74 mW·s per byte; §IV-A).
pub const NB_IOT_JOULES_PER_BYTE: f64 = 7.74e-3;

/// Byte size of one sample: a 28 × 28 single-byte image plus a label byte.
pub(crate) const DEFAULT_SAMPLE_BYTES: usize = 28 * 28 + 1;

/// Description of one round's IoT data upload to a single edge server.
///
/// # Example
///
/// ```
/// use fei_data::IotStream;
///
/// let stream = IotStream::new(3_000, 785, 10);
/// assert_eq!(stream.total_bytes(), 3_000 * 785);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IotStream {
    samples_per_round: usize,
    bytes_per_sample: usize,
    device_count: usize,
}

impl IotStream {
    /// Creates a stream of `samples_per_round` samples of
    /// `bytes_per_sample` bytes, produced collectively by `device_count`
    /// IoT devices.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sample == 0` or `device_count == 0`.
    pub fn new(samples_per_round: usize, bytes_per_sample: usize, device_count: usize) -> Self {
        assert!(bytes_per_sample > 0, "samples must have non-zero size");
        assert!(device_count > 0, "need at least one IoT device");
        Self {
            samples_per_round,
            bytes_per_sample,
            device_count,
        }
    }

    /// Stream with the paper's defaults: 785-byte samples from 10 devices.
    pub fn with_defaults(samples_per_round: usize) -> Self {
        Self::new(samples_per_round, DEFAULT_SAMPLE_BYTES, 10)
    }

    /// Size of each sample in bytes.
    pub fn bytes_per_sample(&self) -> usize {
        self.bytes_per_sample
    }

    /// Total bytes uploaded per round.
    pub fn total_bytes(&self) -> usize {
        self.samples_per_round * self.bytes_per_sample
    }

    /// Per-sample upload energy `rho` in joules given a per-byte cost.
    pub fn rho_joules(&self, joules_per_byte: f64) -> f64 {
        self.bytes_per_sample as f64 * joules_per_byte
    }

    /// Round upload energy `e_I = rho * n_k` (Eq. 4) in joules.
    pub fn upload_energy_joules(&self, joules_per_byte: f64) -> f64 {
        self.rho_joules(joules_per_byte) * self.samples_per_round as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        let s = IotStream::new(100, 785, 4);
        assert_eq!(s.samples_per_round, 100);
        assert_eq!(s.bytes_per_sample(), 785);
        assert_eq!(s.device_count, 4);
        assert_eq!(s.total_bytes(), 78_500);
    }

    #[test]
    fn defaults_match_paper_sample_shape() {
        let s = IotStream::with_defaults(3_000);
        assert_eq!(s.bytes_per_sample(), 785);
        assert_eq!(s.total_bytes(), 3_000 * 785);
    }

    #[test]
    fn energy_follows_eq4() {
        let s = IotStream::new(10, 100, 1);
        let rho = s.rho_joules(NB_IOT_JOULES_PER_BYTE);
        assert!((rho - 0.774).abs() < 1e-12);
        assert!((s.upload_energy_joules(NB_IOT_JOULES_PER_BYTE) - 7.74).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_linearly_in_samples() {
        let a = IotStream::new(10, 50, 1).upload_energy_joules(1e-3);
        let b = IotStream::new(20, 50, 1).upload_energy_joules(1e-3);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn zero_samples_zero_energy() {
        let s = IotStream::new(0, 100, 1);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.upload_energy_joules(NB_IOT_JOULES_PER_BYTE), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero size")]
    fn rejects_zero_byte_samples() {
        let _ = IotStream::new(1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "IoT device")]
    fn rejects_zero_devices() {
        let _ = IotStream::new(1, 1, 0);
    }
}
