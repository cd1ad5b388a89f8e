//! The simulated USB power meter.
//!
//! The POWER-Z KM001C in the prototype samples voltage/current/power at
//! 1 kHz. [`PowerMeter`] reproduces that: it walks a ground-truth
//! [`PowerTimeline`] on a regular sampling grid, reads the plateau power of
//! the current state, adds Gaussian sensor noise, and injects the brief
//! power spikes the paper observes at the start of every model download
//! (the "two peaks" of step (2) in Fig. 3).

use fei_sim::{DetRng, SimDuration, SimTime};

use crate::state::{PowerProfile, PowerState};
use crate::timeline::PowerTimeline;

/// Configuration and sampler for the simulated power meter.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMeter {
    sample_rate_hz: f64,
    noise_std_w: f64,
    spike_amplitude_w: f64,
    spike_duration: SimDuration,
}

impl PowerMeter {
    /// The prototype's meter: 1 kHz sampling, 50 mW sensor noise, and
    /// ~1.2 W × 8 ms spikes at download start.
    pub fn km001c() -> Self {
        Self {
            sample_rate_hz: 1_000.0,
            noise_std_w: 0.05,
            spike_amplitude_w: 1.2,
            spike_duration: SimDuration::from_millis(8),
        }
    }

    /// A meter with explicit characteristics: the noise-free fixture the
    /// sampling and analysis tests compare against exact plateaus.
    #[cfg(test)]
    pub(crate) fn new(
        sample_rate_hz: f64,
        noise_std_w: f64,
        spike_amplitude_w: f64,
        spike_duration: SimDuration,
    ) -> Self {
        Self {
            sample_rate_hz,
            noise_std_w,
            spike_amplitude_w,
            spike_duration,
        }
    }

    /// Samples a timeline into a [`PowerTrace`].
    ///
    /// Samples are taken at `k / rate` seconds for every grid point inside
    /// the timeline. Noise and spikes are drawn from `rng`, so traces are
    /// reproducible per seed.
    pub fn sample(
        &self,
        timeline: &PowerTimeline,
        profile: &PowerProfile,
        rng: &mut DetRng,
    ) -> PowerTrace {
        let period = SimDuration::from_secs_f64(1.0 / self.sample_rate_hz);
        // Start instants of Downloading segments host the Fig. 3 spikes.
        let spike_starts: Vec<SimTime> = timeline
            .segments()
            .iter()
            .filter(|s| s.state == PowerState::Downloading)
            .map(|s| s.start)
            .collect();

        let mut samples = Vec::new();
        let mut t = SimTime::ZERO;
        while t < timeline.end() {
            if let Some(state) = timeline.state_at(t) {
                let mut watts = profile.power(state);
                // Double-peak spike: one at segment start, one half a spike
                // later, decaying linearly over the spike duration.
                for &s0 in &spike_starts {
                    for peak in [s0, s0 + self.spike_duration] {
                        if t >= peak && t < peak + self.spike_duration {
                            let frac = t.duration_since(peak).as_secs_f64()
                                / self.spike_duration.as_secs_f64();
                            watts += self.spike_amplitude_w * (1.0 - frac);
                        }
                    }
                }
                watts += rng.gaussian_with(0.0, self.noise_std_w);
                samples.push(watts.max(0.0));
            }
            t += period;
        }
        PowerTrace { period, samples }
    }
}

impl Default for PowerMeter {
    fn default() -> Self {
        Self::km001c()
    }
}

/// A sampled power trace: regularly spaced wattage readings.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    period: SimDuration,
    samples: Vec<f64>,
}

impl PowerTrace {
    /// The wattage samples in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Timestamp of sample `i`.
    pub(crate) fn time_of(&self, i: usize) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.period.as_nanos() * i as u64)
    }

    /// Rectangle-rule energy integral of the whole trace, in joules.
    pub fn energy_joules(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.period.as_secs_f64()
    }

    /// Peak sampled power, or `None` on an empty trace.
    pub fn peak_power(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_timeline() -> PowerTimeline {
        let mut tl = PowerTimeline::new();
        tl.push(PowerState::Waiting, SimDuration::from_millis(200));
        tl.push(PowerState::Downloading, SimDuration::from_millis(100));
        tl.push(PowerState::Training, SimDuration::from_millis(400));
        tl.push(PowerState::Uploading, SimDuration::from_millis(100));
        tl
    }

    fn noiseless_meter() -> PowerMeter {
        PowerMeter::new(1_000.0, 0.0, 0.0, SimDuration::from_millis(8))
    }

    #[test]
    fn sample_count_matches_rate() {
        let tl = simple_timeline();
        let trace = noiseless_meter().sample(&tl, &PowerProfile::default(), &mut DetRng::new(1));
        // 800 ms at 1 kHz -> 800 samples.
        assert_eq!(trace.len(), 800);
        assert!(!trace.is_empty());
    }

    #[test]
    fn noiseless_energy_matches_timeline_exactly() {
        let tl = simple_timeline();
        let profile = PowerProfile::default();
        let trace = noiseless_meter().sample(&tl, &profile, &mut DetRng::new(1));
        let exact = tl.energy_joules(&profile);
        assert!(
            (trace.energy_joules() - exact).abs() < exact * 1e-6,
            "trace {} vs exact {exact}",
            trace.energy_joules()
        );
    }

    #[test]
    fn noisy_energy_is_close_to_timeline() {
        let tl = simple_timeline();
        let profile = PowerProfile::default();
        let trace = PowerMeter::km001c().sample(&tl, &profile, &mut DetRng::new(2));
        let exact = tl.energy_joules(&profile);
        assert!(
            (trace.energy_joules() - exact).abs() < exact * 0.02,
            "trace {} vs exact {exact}",
            trace.energy_joules()
        );
    }

    #[test]
    fn spikes_appear_at_download_start() {
        let tl = simple_timeline();
        let meter = PowerMeter::new(1_000.0, 0.0, 2.0, SimDuration::from_millis(8));
        let trace = meter.sample(&tl, &PowerProfile::default(), &mut DetRng::new(3));
        // The download plateau is 4.286 W; the spike peaks well above it.
        let spike_window_peak = trace.samples()[200..216]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!(spike_window_peak > 5.0, "peak {spike_window_peak}");
        // Steady-state training shows no spike.
        let training_peak = trace.samples()[400..600]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!((training_peak - 5.553).abs() < 1e-9);
    }

    #[test]
    fn traces_are_reproducible_per_seed() {
        let tl = simple_timeline();
        let meter = PowerMeter::km001c();
        let a = meter.sample(&tl, &PowerProfile::default(), &mut DetRng::new(7));
        let b = meter.sample(&tl, &PowerProfile::default(), &mut DetRng::new(7));
        let c = meter.sample(&tl, &PowerProfile::default(), &mut DetRng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn peak_power_and_times() {
        let trace = PowerTrace {
            period: SimDuration::from_millis(1),
            samples: vec![1.0, 3.0, 2.0],
        };
        assert_eq!(trace.peak_power(), Some(3.0));
        assert_eq!(trace.time_of(2), SimTime::from_millis(2));
        let empty = PowerTrace {
            period: SimDuration::from_millis(1),
            samples: vec![],
        };
        assert_eq!(empty.peak_power(), None);
        assert_eq!(empty.energy_joules(), 0.0);
    }

    #[test]
    fn empty_timeline_empty_trace() {
        let tl = PowerTimeline::new();
        let trace = noiseless_meter().sample(&tl, &PowerProfile::default(), &mut DetRng::new(1));
        assert!(trace.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Meter energy converges to the exact timeline integral for any
        /// noiseless sampling of any timeline (within discretization error).
        #[test]
        fn meter_energy_tracks_timeline(
            segs in proptest::collection::vec((0usize..4, 50u64..500), 1..8),
            seed in any::<u64>(),
        ) {
            let mut tl = PowerTimeline::new();
            for (si, ms) in segs {
                tl.push(PowerState::ALL[si], SimDuration::from_millis(ms));
            }
            let profile = PowerProfile::raspberry_pi_4b();
            let meter = PowerMeter::new(1_000.0, 0.0, 0.0, SimDuration::from_millis(1));
            let trace = meter.sample(&tl, &profile, &mut DetRng::new(seed));
            let exact = tl.energy_joules(&profile);
            // One sample of error per segment boundary at most.
            let tolerance = 6.0e-3 * 8.0 + exact * 1e-9;
            prop_assert!((trace.energy_joules() - exact).abs() <= tolerance,
                "trace {} vs exact {}", trace.energy_joules(), exact);
        }
    }
}
