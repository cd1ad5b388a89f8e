//! Per-step energy models (§IV).
//!
//! All energies are in joules. The models are deliberately the paper's —
//! linear in the knobs — with the coefficients either taken from the paper's
//! fits or recalibrated from testbed traces via [`crate::calibration`].

use serde::{Deserialize, Serialize};

use crate::error::{require_non_negative, CoreError};

/// Data-collection energy: `e_I(n_k) = ρ·n_k` (Eq. 4), the IoT network's cost
/// of uploading `n_k` samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataCollectionModel {
    /// Energy per uploaded sample, joules (`ρ_k`).
    rho: f64,
}

impl DataCollectionModel {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `rho` is negative or not
    /// finite.
    pub fn new(rho: f64) -> Result<Self, CoreError> {
        require_non_negative("rho", rho)?;
        Ok(Self { rho })
    }

    /// NB-IoT default: 7.74 mJ per byte × 785-byte samples.
    pub(crate) fn nb_iot_default() -> Self {
        Self {
            rho: 7.74e-3 * 785.0,
        }
    }

    /// Per-sample energy `ρ`, joules.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Energy to upload `n_k` samples (Eq. 4).
    pub fn energy_joules(&self, n_k: usize) -> f64 {
        self.rho * n_k as f64
    }
}

/// Local-training energy: `e_P(E, n_k) = c₀·E·n_k + c₁·E` (Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputationModel {
    /// Energy per sample per epoch, joules (`c₀`).
    c0: f64,
    /// Per-epoch fixed energy, joules (`c₁`).
    c1: f64,
}

impl ComputationModel {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if either coefficient is
    /// negative or not finite, or both are zero.
    pub fn new(c0: f64, c1: f64) -> Result<Self, CoreError> {
        require_non_negative("c0", c0)?;
        require_non_negative("c1", c1)?;
        // fei-lint: allow(float-eq, reason = "rejecting the exactly-degenerate all-zero coefficient pair; near-zero models are legal")
        if c0 == 0.0 && c1 == 0.0 {
            return Err(CoreError::invalid(
                "c0/c1",
                "at least one coefficient must be positive",
            ));
        }
        Ok(Self { c0, c1 })
    }

    /// The paper's least-squares fit over Table I: `c₀ = 7.79 × 10⁻⁵`,
    /// `c₁ = 3.34 × 10⁻³` (§VI-B).
    pub fn paper_fit() -> Self {
        Self {
            c0: 7.79e-5,
            c1: 3.34e-3,
        }
    }

    /// Energy per sample per epoch `c₀`, joules.
    pub fn c0(&self) -> f64 {
        self.c0
    }

    /// Per-epoch fixed energy `c₁`, joules.
    pub fn c1(&self) -> f64 {
        self.c1
    }

    /// Energy of `e` local epochs over `n_k` samples (Eq. 5).
    pub fn energy_joules(&self, e: usize, n_k: usize) -> f64 {
        self.energy_joules_f(e as f64, n_k as f64)
    }

    /// Continuous-domain version used inside the optimizer.
    pub(crate) fn energy_joules_f(&self, e: f64, n_k: f64) -> f64 {
        self.c0 * e * n_k + self.c1 * e
    }
}

/// Model-upload energy: a constant `e_U` per selected server per round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UploadModel {
    /// Joules per model upload (`e_U`).
    e_u: f64,
}

impl UploadModel {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `e_u` is negative or not
    /// finite.
    pub fn new(e_u: f64) -> Result<Self, CoreError> {
        require_non_negative("e_u", e_u)?;
        Ok(Self { e_u })
    }

    /// Prototype default: a 62.8 kB logistic-regression payload at 20 Mbit/s
    /// and the measured 5.015 W upload plateau (≈ 0.136 J including the 2 ms
    /// setup).
    pub fn wifi_default() -> Self {
        let payload_bytes = (784 * 10 + 10) * 8;
        let seconds = 0.002 + payload_bytes as f64 * 8.0 / 20e6;
        Self {
            e_u: 5.015 * seconds,
        }
    }

    /// Byte-accurate upload energy: `e_U` is what the link charges for the
    /// actual frame — airtime power × transfer duration plus the per-byte
    /// term — instead of the paper's constant. Feeding the wire codec's true
    /// frame length here is how compression tiers move the `B₁` term of
    /// Eq. 12 and shift the planned `(K*, E*)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the link's energy for
    /// this payload is not a valid `e_U` (non-finite — impossible for the
    /// bundled presets at sane sizes, but links are caller-constructible).
    pub(crate) fn from_link(link: &fei_net::Link, payload_bytes: usize) -> Result<Self, CoreError> {
        Self::new(link.transfer_energy_joules(payload_bytes))
    }

    /// Joules per upload.
    pub fn e_u(&self) -> f64 {
        self.e_u
    }
}

/// The composed per-round, per-server energy model with a fixed local
/// dataset size `n_k` — everything problem (6a) needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundEnergyModel {
    data: DataCollectionModel,
    compute: ComputationModel,
    upload: UploadModel,
    n_k: usize,
}

impl RoundEnergyModel {
    /// Composes the three step models for servers holding `n_k` samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `n_k == 0`.
    pub fn new(
        data: DataCollectionModel,
        compute: ComputationModel,
        upload: UploadModel,
        n_k: usize,
    ) -> Result<Self, CoreError> {
        if n_k == 0 {
            return Err(CoreError::invalid("n_k", "local dataset must be non-empty"));
        }
        Ok(Self {
            data,
            compute,
            upload,
            n_k,
        })
    }

    /// The prototype's defaults: NB-IoT collection, the paper's Table-I fit,
    /// WiFi upload, 3 000 samples per server.
    pub fn paper_default() -> Self {
        Self {
            data: DataCollectionModel::nb_iot_default(),
            compute: ComputationModel::paper_fit(),
            upload: UploadModel::wifi_default(),
            n_k: 3_000,
        }
    }

    /// The same model with a different upload component — the hook that
    /// swaps the constant `e_U` for a payload-derived one (see
    /// [`UploadModel::from_link`]).
    pub(crate) fn with_upload(mut self, upload: UploadModel) -> Self {
        self.upload = upload;
        self
    }

    /// Local dataset size `n_k`.
    pub fn n_k(&self) -> usize {
        self.n_k
    }

    /// The data-collection component.
    pub fn data(&self) -> &DataCollectionModel {
        &self.data
    }

    /// The computation component.
    pub fn compute(&self) -> &ComputationModel {
        &self.compute
    }

    /// The upload component.
    pub fn upload(&self) -> &UploadModel {
        &self.upload
    }

    /// `B₀ = c₀·n_k + c₁` — the per-epoch energy slope in Eq. 12.
    pub fn b0(&self) -> f64 {
        self.compute.c0 * self.n_k as f64 + self.compute.c1
    }

    /// `B₁ = ρ·n_k + e_U` — the per-round fixed energy in Eq. 12.
    pub fn b1(&self) -> f64 {
        self.data.rho * self.n_k as f64 + self.upload.e_u
    }

    /// Total system energy `ê(E, K, T) = T·K·(B₀E + B₁)` (problem (6a) with
    /// homogeneous servers).
    pub fn system_energy_joules(&self, e: usize, k: usize, t: usize) -> f64 {
        self.system_energy_joules_f(e as f64, k as f64, t as f64)
    }

    /// Continuous-domain version used inside the optimizer.
    pub(crate) fn system_energy_joules_f(&self, e: f64, k: f64, t: f64) -> f64 {
        t * k * (self.b0() * e + self.b1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_collection_is_linear() {
        let m = DataCollectionModel::new(0.5).unwrap();
        assert_eq!(m.energy_joules(0), 0.0);
        assert_eq!(m.energy_joules(10), 5.0);
        assert_eq!(m.rho(), 0.5);
    }

    #[test]
    fn nb_iot_default_matches_constants() {
        let m = DataCollectionModel::nb_iot_default();
        assert!((m.rho() - 7.74e-3 * 785.0).abs() < 1e-12);
    }

    #[test]
    fn computation_follows_eq5() {
        let m = ComputationModel::new(2.0, 3.0).unwrap();
        // c0*E*n + c1*E = 2*4*10 + 3*4 = 92.
        assert_eq!(m.energy_joules(4, 10), 92.0);
        assert_eq!(m.energy_joules(0, 10), 0.0);
    }

    #[test]
    fn paper_fit_constants() {
        let m = ComputationModel::paper_fit();
        assert_eq!(m.c0(), 7.79e-5);
        assert_eq!(m.c1(), 3.34e-3);
    }

    #[test]
    fn upload_default_is_plausible() {
        let e = UploadModel::wifi_default().e_u();
        // Millijoule-to-sub-joule scale for a 62.8 kB payload.
        assert!(e > 0.01 && e < 1.0, "e_U = {e}");
    }

    #[test]
    fn from_link_at_the_default_payload_matches_wifi_default() {
        // The same 62.8 kB payload over the same WiFi uplink preset must
        // reproduce the constant-e_U default (up to the link's clock
        // granularity).
        let payload_bytes = (784 * 10 + 10) * 8;
        let derived = UploadModel::from_link(&fei_net::Link::wifi_uplink(), payload_bytes).unwrap();
        let constant = UploadModel::wifi_default();
        assert!(
            (derived.e_u() - constant.e_u()).abs() < 1e-6,
            "derived {} vs constant {}",
            derived.e_u(),
            constant.e_u()
        );
    }

    #[test]
    fn from_link_scales_with_payload_bytes() {
        let link = fei_net::Link::wifi_uplink();
        let full = UploadModel::from_link(&link, 62_800).unwrap().e_u();
        let q8 = UploadModel::from_link(&link, 8_100).unwrap().e_u();
        assert!(q8 < full, "q8 {q8} vs full {full}");
        // Both still pay the 2 ms setup airtime.
        assert!(q8 > 5.015 * 0.002);
    }

    #[test]
    fn with_upload_moves_only_b1() {
        let base = RoundEnergyModel::paper_default();
        let cheap = base.with_upload(UploadModel::new(0.01).unwrap());
        assert_eq!(base.b0(), cheap.b0());
        assert!(cheap.b1() < base.b1());
        // ρ·n ≈ 18 kJ dominates b1, so the subtraction cancels ~4 ulp of it.
        assert!((base.b1() - cheap.b1() - (base.upload().e_u() - 0.01)).abs() < 1e-9);
    }

    #[test]
    fn b0_b1_compose_components() {
        let m = RoundEnergyModel::new(
            DataCollectionModel::new(0.1).unwrap(),
            ComputationModel::new(0.01, 0.5).unwrap(),
            UploadModel::new(2.0).unwrap(),
            100,
        )
        .unwrap();
        assert!((m.b0() - (0.01 * 100.0 + 0.5)).abs() < 1e-12);
        assert!((m.b1() - (0.1 * 100.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn system_energy_scales_multiplicatively() {
        let m = RoundEnergyModel::paper_default();
        let base = m.system_energy_joules(2, 3, 5);
        assert!((m.system_energy_joules(2, 6, 5) - 2.0 * base).abs() < 1e-9);
        assert!((m.system_energy_joules(2, 3, 10) - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn integer_and_continuous_agree() {
        let m = RoundEnergyModel::paper_default();
        assert_eq!(
            m.system_energy_joules(3, 4, 7),
            m.system_energy_joules_f(3.0, 4.0, 7.0)
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(DataCollectionModel::new(-1.0).is_err());
        assert!(ComputationModel::new(-1.0, 0.0).is_err());
        assert!(ComputationModel::new(0.0, 0.0).is_err());
        assert!(UploadModel::new(f64::NAN).is_err());
        assert!(RoundEnergyModel::new(
            DataCollectionModel::nb_iot_default(),
            ComputationModel::paper_fit(),
            UploadModel::wifi_default(),
            0,
        )
        .is_err());
    }
}
