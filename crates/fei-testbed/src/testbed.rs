//! The assembled prototype: 20 Pis, a coordinator, a router, and meters.

use fei_core::calibration::TRAINING_POWER_WATTS;
use fei_core::energy::{DataCollectionModel, RoundEnergyModel, UploadModel};
use fei_data::stream::NB_IOT_JOULES_PER_BYTE;
use fei_data::IotStream;
use fei_net::{Link, SharedMedium};
use fei_power::{PowerMeter, PowerState, PowerTimeline, PowerTrace};
use fei_sim::{DetRng, SimDuration};

use crate::device::RaspberryPi;
use crate::experiment::{EnergyBreakdown, ExperimentRun};

/// Configuration of the simulated prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedConfig {
    /// Fleet size `N` (the paper: 20).
    pub num_devices: usize,
    /// Samples per edge server `n_k` (the paper: 3 000).
    pub samples_per_device: usize,
    /// Bytes of one serialized model transfer (LR parameters + framing).
    pub model_payload_bytes: usize,
    /// Idle wait inserted at the head of every round, seconds (coordination
    /// latency between rounds; the prototype's data is pre-loaded, so this
    /// is short).
    pub waiting_secs: f64,
    /// Whether local datasets are pre-loaded on the edge servers (the
    /// paper's prototype setting, §VI-B step 1). When `true`, IoT
    /// data-collection energy is excluded from measurements and from the
    /// analytic model, exactly as it is absent from the paper's traces.
    pub preloaded_data: bool,
    /// Whether unselected devices' idle energy is charged to the experiment.
    /// The paper's model (Eq. 3) charges only selected servers, so this
    /// defaults to `false`.
    pub include_idle_of_unselected: bool,
    /// Seed for all measurement noise.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            num_devices: 20,
            samples_per_device: 3_000,
            // 10×784 weights + 10 biases as f64, plus codec framing.
            model_payload_bytes: (784 * 10 + 10) * 8 + 11,
            waiting_secs: 0.02,
            preloaded_data: true,
            include_idle_of_unselected: false,
            seed: 0xBED,
        }
    }
}

/// The simulated prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct Testbed {
    config: TestbedConfig,
    pi: RaspberryPi,
    downlink: Link,
    uplink: SharedMedium,
    iot: IotStream,
    meter: PowerMeter,
    /// Per-device compute speed factors (1.0 = the calibrated Pi; 0.5 =
    /// half speed). Homogeneous (all 1.0) by default, like the prototype.
    speed_factors: Vec<f64>,
}

impl Testbed {
    /// The paper's prototype: 20 Table-I-calibrated Pis on WiFi, NB-IoT
    /// sample uplinks, KM001C meters.
    pub fn paper_prototype() -> Self {
        Self::new(TestbedConfig::default(), RaspberryPi::paper_calibrated())
    }

    /// Assembles a testbed from a configuration and a device model.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0` or `samples_per_device == 0`.
    pub fn new(config: TestbedConfig, pi: RaspberryPi) -> Self {
        assert!(config.num_devices > 0, "need at least one device");
        assert!(config.samples_per_device > 0, "devices need data");
        let iot = IotStream::with_defaults(config.samples_per_device);
        let speed_factors = vec![1.0; config.num_devices];
        Self {
            config,
            pi,
            downlink: Link::wifi_downlink(),
            uplink: SharedMedium::new(Link::wifi_uplink()),
            iot,
            meter: PowerMeter::km001c(),
            speed_factors,
        }
    }

    /// Replaces the per-device compute speed factors, making the fleet
    /// heterogeneous. A factor of 0.5 doubles that device's training time.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fleet size or any factor is
    /// not positive and finite.
    pub fn with_speed_factors(mut self, factors: Vec<f64>) -> Self {
        assert_eq!(
            factors.len(),
            self.config.num_devices,
            "one factor per device"
        );
        assert!(
            factors.iter().all(|f| f.is_finite() && *f > 0.0),
            "speed factors must be positive and finite"
        );
        self.speed_factors = factors;
        self
    }

    /// The per-device speed factors, for the discrete-event cross-check.
    #[cfg(test)]
    pub(crate) fn speed_factors(&self) -> &[f64] {
        &self.speed_factors
    }

    /// The testbed configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// The device model.
    pub fn pi(&self) -> &RaspberryPi {
        &self.pi
    }

    /// Duration of the model download (step 2) for one device.
    pub fn download_duration(&self) -> SimDuration {
        self.downlink
            .transfer_duration(self.config.model_payload_bytes)
    }

    /// Duration of the model upload (step 4) when `k` devices upload
    /// concurrently.
    pub fn upload_duration(&self, k: usize) -> SimDuration {
        self.uplink
            .concurrent_transfer_duration(self.config.model_payload_bytes, k)
    }

    /// Builds the power timeline of one device over one global round.
    ///
    /// Selected devices walk waiting → downloading → training → uploading;
    /// unselected devices wait for the whole round. `round_span` (the
    /// selected-device round length) is returned so unselected timelines can
    /// be aligned.
    pub(crate) fn device_round_timeline(
        &self,
        selected: bool,
        epochs: usize,
        k_concurrent: usize,
        rng: &mut DetRng,
    ) -> PowerTimeline {
        let waiting = SimDuration::from_secs_f64(self.config.waiting_secs);
        let mut tl = PowerTimeline::new();
        if selected {
            let train =
                self.pi
                    .measure_training_duration(epochs, self.config.samples_per_device, rng);
            tl.push(PowerState::Waiting, waiting);
            tl.push(PowerState::Downloading, self.download_duration());
            tl.push(PowerState::Training, train);
            tl.push(PowerState::Uploading, self.upload_duration(k_concurrent));
        } else {
            let span = waiting
                + self.download_duration()
                + self
                    .pi
                    .training_duration(epochs, self.config.samples_per_device)
                + self.upload_duration(k_concurrent);
            tl.push(PowerState::Waiting, span);
        }
        tl
    }

    /// Runs a `(K, E, T)` experiment and integrates energy exactly from the
    /// per-device timelines. Device selection rotates deterministically from
    /// the experiment seed.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the fleet, or `epochs`/`rounds` is 0.
    pub fn run(&self, k: usize, epochs: usize, rounds: usize) -> ExperimentRun {
        assert!(k >= 1 && k <= self.config.num_devices, "K out of range");
        assert!(epochs >= 1, "E must be at least 1");
        assert!(rounds >= 1, "T must be at least 1");
        let mut rng = DetRng::new(self.config.seed).fork(0xE0);
        let profile = *self.pi.profile();

        let mut breakdown = EnergyBreakdown::default();
        let mut wall_clock = SimDuration::ZERO;
        for round in 0..rounds {
            let selected = self.select_round(round, k, &mut rng);
            let mut round_span = SimDuration::ZERO;
            for device in 0..self.config.num_devices {
                let is_selected = selected.contains(&device);
                if !is_selected && !self.config.include_idle_of_unselected {
                    continue;
                }
                let tl = self.device_round_timeline(is_selected, epochs, k, &mut rng);
                round_span = round_span.max(tl.total_duration());
                breakdown.waiting_j += tl.energy_in_state_joules(&profile, PowerState::Waiting);
                breakdown.download_j +=
                    tl.energy_in_state_joules(&profile, PowerState::Downloading);
                breakdown.training_j += tl.energy_in_state_joules(&profile, PowerState::Training);
                breakdown.upload_j += tl.energy_in_state_joules(&profile, PowerState::Uploading);
            }
            // IoT data collection (Eq. 4) for each selected server — absent
            // when data is pre-loaded, as in the paper's prototype.
            if !self.config.preloaded_data {
                breakdown.collection_j +=
                    k as f64 * self.iot.upload_energy_joules(NB_IOT_JOULES_PER_BYTE);
            }
            wall_clock += round_span;
        }
        ExperimentRun {
            k,
            e: epochs,
            rounds,
            breakdown,
            wall_clock,
        }
    }

    /// Builds a Fig.-3-style artifact: one device's ground-truth timeline
    /// over `rounds` consecutive rounds plus its sampled meter trace.
    pub fn fig3_trace(&self, epochs: usize, rounds: usize) -> (PowerTimeline, PowerTrace) {
        let mut rng = DetRng::new(self.config.seed).fork(0xF13);
        let mut tl = PowerTimeline::new();
        for _ in 0..rounds {
            let round = self.device_round_timeline(true, epochs, 1, &mut rng);
            tl.extend_with(&round);
        }
        let trace = self.meter.sample(&tl, self.pi.profile(), &mut rng);
        (tl, trace)
    }

    /// The analytic per-round energy model (Eqs. 4–5) calibrated to this
    /// testbed — what the optimizer sees. `c₀`/`c₁` convert the timing law
    /// through the 5.553 W training plateau exactly as §VI-B does; `e_U` is
    /// the solo-upload airtime energy.
    pub fn energy_model(&self) -> RoundEnergyModel {
        let compute = self
            .pi
            .timing()
            .to_computation_model(TRAINING_POWER_WATTS)
            .expect("invariant: the calibrated timing law was validated when the Pi was built");
        let rho = if self.config.preloaded_data {
            0.0
        } else {
            self.iot.rho_joules(NB_IOT_JOULES_PER_BYTE)
        };
        let data = DataCollectionModel::new(rho)
            .expect("invariant: rho is 0 or a finite per-byte cost times a payload size");
        let e_u = self
            .uplink
            .concurrent_transfer_energy_joules(self.config.model_payload_bytes, 1);
        let upload = UploadModel::new(e_u).expect(
            "invariant: airtime energy from the calibrated uplink is finite and non-negative",
        );
        RoundEnergyModel::new(data, compute, upload, self.config.samples_per_device)
            .expect("invariant: TestbedConfig validated samples_per_device at construction")
    }

    /// Runs a `(K, E, T)` experiment with *synchronous-barrier* semantics on
    /// a possibly heterogeneous fleet: in each round every selected device
    /// trains at its own speed, then idles at waiting power until the
    /// slowest selected device finishes (the straggler barrier), and only
    /// then do the `K` uploads start together. Returns the run plus the
    /// total straggler-wait energy.
    ///
    /// For a homogeneous fleet this differs from [`Testbed::run`] only by
    /// the jitter-sized barrier waits.
    ///
    /// # Panics
    ///
    /// Same domain checks as [`Testbed::run`].
    pub fn run_synchronous(&self, k: usize, epochs: usize, rounds: usize) -> (ExperimentRun, f64) {
        assert!(k >= 1 && k <= self.config.num_devices, "K out of range");
        assert!(epochs >= 1, "E must be at least 1");
        assert!(rounds >= 1, "T must be at least 1");
        let mut rng = DetRng::new(self.config.seed).fork(0xE1);
        let profile = *self.pi.profile();
        let waiting = SimDuration::from_secs_f64(self.config.waiting_secs);

        let mut breakdown = EnergyBreakdown::default();
        let mut straggler_wait_j = 0.0;
        let mut wall_clock = SimDuration::ZERO;
        for round in 0..rounds {
            let selected = self.select_round(round, k, &mut rng);
            // Per-device training durations at each device's speed.
            let durations: Vec<SimDuration> = selected
                .iter()
                .map(|&d| {
                    self.pi
                        .measure_training_duration(epochs, self.config.samples_per_device, &mut rng)
                        .mul_f64(1.0 / self.speed_factors[d])
                })
                .collect();
            let slowest = durations.iter().copied().max().unwrap_or(SimDuration::ZERO);

            let mut round_span = SimDuration::ZERO;
            for (idx, &_device) in selected.iter().enumerate() {
                let train = durations[idx];
                let barrier = slowest - train;
                let mut tl = PowerTimeline::new();
                tl.push(PowerState::Waiting, waiting);
                tl.push(PowerState::Downloading, self.download_duration());
                tl.push(PowerState::Training, train);
                tl.push(PowerState::Waiting, barrier);
                tl.push(PowerState::Uploading, self.upload_duration(k));
                round_span = round_span.max(tl.total_duration());
                breakdown.waiting_j += tl.energy_in_state_joules(&profile, PowerState::Waiting);
                breakdown.download_j +=
                    tl.energy_in_state_joules(&profile, PowerState::Downloading);
                breakdown.training_j += tl.energy_in_state_joules(&profile, PowerState::Training);
                breakdown.upload_j += tl.energy_in_state_joules(&profile, PowerState::Uploading);
                straggler_wait_j += profile.waiting_w * barrier.as_secs_f64();
            }
            if !self.config.preloaded_data {
                breakdown.collection_j +=
                    k as f64 * self.iot.upload_energy_joules(NB_IOT_JOULES_PER_BYTE);
            }
            wall_clock += round_span;
        }
        (
            ExperimentRun {
                k,
                e: epochs,
                rounds,
                breakdown,
                wall_clock,
            },
            straggler_wait_j,
        )
    }

    fn select_round(&self, round: usize, k: usize, rng: &mut DetRng) -> Vec<usize> {
        // Uniformly random K-subset per round, matching the FL runtime's
        // strategy (the specific subset does not change energy because the
        // devices are homogeneous; it does change which timeline carries
        // the jitter).
        let _ = round;
        rng.sample_indices(self.config.num_devices, k)
    }
}

impl Default for Testbed {
    fn default() -> Self {
        Self::paper_prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_timeline_walks_the_four_steps() {
        let tb = Testbed::paper_prototype();
        let mut rng = DetRng::new(1);
        let tl = tb.device_round_timeline(true, 10, 5, &mut rng);
        let states: Vec<PowerState> = tl.segments().iter().map(|s| s.state).collect();
        assert_eq!(
            states,
            vec![
                PowerState::Waiting,
                PowerState::Downloading,
                PowerState::Training,
                PowerState::Uploading
            ]
        );
    }

    #[test]
    fn unselected_device_just_waits() {
        let tb = Testbed::paper_prototype();
        let mut rng = DetRng::new(1);
        let tl = tb.device_round_timeline(false, 10, 5, &mut rng);
        assert_eq!(tl.segments().len(), 1);
        assert_eq!(tl.segments()[0].state, PowerState::Waiting);
    }

    #[test]
    fn energy_scales_with_t_and_k() {
        let tb = Testbed::paper_prototype();
        let base = tb.run(5, 10, 10).breakdown.total_joules();
        let double_t = tb.run(5, 10, 20).breakdown.total_joules();
        let double_k = tb.run(10, 10, 10).breakdown.total_joules();
        assert!(
            (double_t / base - 2.0).abs() < 0.05,
            "T scaling: {}",
            double_t / base
        );
        // Doubling K doubles per-round energy except the upload-contention
        // stretch, which grows superlinearly.
        assert!(double_k / base > 1.9, "K scaling: {}", double_k / base);
    }

    #[test]
    fn training_energy_dominates_at_large_e() {
        let tb = Testbed::paper_prototype();
        let run = tb.run(1, 200, 5);
        let b = &run.breakdown;
        assert!(b.training_j > b.download_j + b.upload_j + b.waiting_j);
    }

    #[test]
    fn collection_energy_matches_eq4_when_not_preloaded() {
        let config = TestbedConfig {
            preloaded_data: false,
            ..Default::default()
        };
        let tb = Testbed::new(config, RaspberryPi::paper_calibrated());
        let run = tb.run(3, 1, 7);
        let expected = 3.0 * 7.0 * 3_000.0 * 785.0 * NB_IOT_JOULES_PER_BYTE;
        assert!((run.breakdown.collection_j - expected).abs() < 1e-6);
        // Pre-loaded prototype (the default) excludes collection entirely.
        let preloaded = Testbed::paper_prototype().run(3, 1, 7);
        assert_eq!(preloaded.breakdown.collection_j, 0.0);
    }

    #[test]
    fn idle_fleet_accounting_is_optional() {
        let config = TestbedConfig {
            include_idle_of_unselected: true,
            ..Default::default()
        };
        let with_idle = Testbed::new(config, RaspberryPi::paper_calibrated());
        let without_idle = Testbed::paper_prototype();
        let a = with_idle.run(1, 10, 5).breakdown.total_joules();
        let b = without_idle.run(1, 10, 5).breakdown.total_joules();
        assert!(a > b, "counting 19 idle Pis must increase energy");
    }

    #[test]
    fn fig3_trace_covers_two_rounds_with_four_plateaus() {
        let tb = Testbed::paper_prototype();
        let (tl, trace) = tb.fig3_trace(40, 2);
        // Two rounds x four states.
        assert_eq!(tl.segments().len(), 8);
        assert!(!trace.is_empty());
        // The trace's energy is close to the exact timeline integral.
        let exact = tl.energy_joules(tb.pi().profile());
        assert!((trace.energy_joules() - exact).abs() / exact < 0.05);
    }

    #[test]
    fn energy_model_matches_paper_constants() {
        let tb = Testbed::paper_prototype();
        let m = tb.energy_model();
        assert!(
            (m.compute().c0() - 7.79e-5).abs() / 7.79e-5 < 0.15,
            "c0 {}",
            m.compute().c0()
        );
        assert_eq!(m.n_k(), 3_000);
        assert!(m.b0() > 0.0 && m.b1() > 0.0);
        // Pre-loaded prototype: no collection term in B1.
        assert_eq!(m.data().rho(), 0.0);
        // Full EE-FEI deployment: NB-IoT collection dominates B1.
        let full = Testbed::new(
            TestbedConfig {
                preloaded_data: false,
                ..Default::default()
            },
            RaspberryPi::paper_calibrated(),
        );
        assert!(full.energy_model().b1() > 1_000.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let tb = Testbed::paper_prototype();
        let a = tb.run(5, 20, 3);
        let b = tb.run(5, 20, 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "K out of range")]
    fn rejects_k_beyond_fleet() {
        let _ = Testbed::paper_prototype().run(21, 1, 1);
    }

    #[test]
    fn homogeneous_synchronous_run_has_tiny_barrier() {
        let tb = Testbed::paper_prototype();
        let (run, straggle) = tb.run_synchronous(5, 20, 4);
        // Jitter-sized barriers only: a few percent of total energy at most.
        assert!(straggle < run.total_joules() * 0.03, "straggle {straggle}");
    }

    #[test]
    fn slow_devices_create_straggler_waste() {
        let mut speeds = vec![1.0; 20];
        speeds[0] = 0.25; // one device at quarter speed
        let uniform = Testbed::paper_prototype();
        let mixed = Testbed::paper_prototype().with_speed_factors(speeds);
        // K = 20 guarantees the slow device participates every round.
        let (u_run, u_straggle) = uniform.run_synchronous(20, 20, 3);
        let (m_run, m_straggle) = mixed.run_synchronous(20, 20, 3);
        assert!(
            m_straggle > u_straggle * 10.0,
            "{m_straggle} vs {u_straggle}"
        );
        assert!(m_run.wall_clock > u_run.wall_clock);
        assert!(m_run.total_joules() > u_run.total_joules());
    }

    #[test]
    fn speed_factors_scale_training_time() {
        let slow_fleet = Testbed::paper_prototype().with_speed_factors(vec![0.5; 20]);
        let (slow, _) = slow_fleet.run_synchronous(1, 40, 2);
        let (fast, _) = Testbed::paper_prototype().run_synchronous(1, 40, 2);
        let ratio = slow.breakdown.training_j / fast.breakdown.training_j;
        assert!((ratio - 2.0).abs() < 0.1, "training energy ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "one factor per device")]
    fn rejects_wrong_factor_count() {
        let _ = Testbed::paper_prototype().with_speed_factors(vec![1.0; 3]);
    }
}
