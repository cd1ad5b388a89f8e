//! Discrete-event execution of testbed experiments: the test oracle for
//! the closed-form executor.
//!
//! [`crate::Testbed::run_synchronous`] computes round timelines in closed
//! form. This module executes the *same* experiment as a discrete-event
//! simulation on the `fei-sim` kernel: downloads, per-device training
//! completions, the synchronous barrier, and the shared upload window are
//! all scheduled as events. Both paths consume identical random draws, so
//! they must produce identical energies; the `des_matches_closed_form_*`
//! unit tests below pin that equivalence. The module is compiled for tests
//! only.

use fei_power::{PowerState, PowerTimeline};
use fei_sim::{DetRng, SimDuration, SimTime, Simulation};

use crate::experiment::{EnergyBreakdown, ExperimentRun};
use crate::testbed::Testbed;

/// Events of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A new global round begins.
    RoundStart { round: usize },
    /// A selected device finished its local training.
    TrainDone { slot: usize, round: usize },
    /// The synchronized upload window completed; the round is over.
    UploadDone { round: usize },
}

/// Per-round scratch state while its events are in flight.
#[derive(Debug, Clone)]
struct RoundState {
    /// Selected device ids, in selection order.
    devices: Vec<usize>,
    /// Training durations per slot.
    train: Vec<SimDuration>,
    /// Training-completion instants per slot.
    train_done_at: Vec<Option<SimTime>>,
    /// Remaining TrainDone events.
    pending: usize,
    /// Round start instant.
    started_at: SimTime,
}

impl Testbed {
    /// Runs a `(K, E, T)` experiment by discrete-event simulation, with
    /// synchronous-barrier semantics identical to
    /// [`Testbed::run_synchronous`]. Returns the run and the straggler-wait
    /// energy.
    ///
    /// # Panics
    ///
    /// Same domain checks as [`Testbed::run`].
    pub(crate) fn run_des(&self, k: usize, epochs: usize, rounds: usize) -> (ExperimentRun, f64) {
        assert!(k >= 1 && k <= self.config().num_devices, "K out of range");
        assert!(epochs >= 1, "E must be at least 1");
        assert!(rounds >= 1, "T must be at least 1");
        // The same RNG stream as run_synchronous, consumed in the same
        // order (selection, then per-slot training durations).
        let mut rng = DetRng::new(self.config().seed).fork(0xE1);
        let waiting = SimDuration::from_secs_f64(self.config().waiting_secs);
        let download = self.download_duration();
        let upload = self.upload_duration(k);
        let profile = *self.pi().profile();

        let mut sim: Simulation<Event> = Simulation::new();
        sim.schedule_at(SimTime::ZERO, Event::RoundStart { round: 0 });

        let mut state: Option<RoundState> = None;
        let mut breakdown = EnergyBreakdown::default();
        let mut straggler_wait_j = 0.0;
        let mut wall_clock = SimDuration::ZERO;

        while let Some((now, event)) = sim.step() {
            match event {
                Event::RoundStart { round } => {
                    let devices = rng.sample_indices(self.config().num_devices, k);
                    let train: Vec<SimDuration> = devices
                        .iter()
                        .map(|&d| {
                            self.pi()
                                .measure_training_duration(
                                    epochs,
                                    self.config().samples_per_device,
                                    &mut rng,
                                )
                                .mul_f64(1.0 / self.speed_factors()[d])
                        })
                        .collect();
                    for (slot, &dur) in train.iter().enumerate() {
                        sim.schedule_at(
                            now + waiting + download + dur,
                            Event::TrainDone { slot, round },
                        );
                    }
                    state = Some(RoundState {
                        devices,
                        train,
                        train_done_at: vec![None; k],
                        pending: k,
                        started_at: now,
                    });
                }
                Event::TrainDone { slot, round } => {
                    let st = state.as_mut().expect(
                        "invariant: TrainDone is only scheduled by RoundStart, which set the state",
                    );
                    st.train_done_at[slot] = Some(now);
                    st.pending -= 1;
                    if st.pending == 0 {
                        // Barrier reached: all devices upload together.
                        sim.schedule_at(now + upload, Event::UploadDone { round });
                    }
                }
                Event::UploadDone { round } => {
                    let st = state.take().expect("invariant: UploadDone is only scheduled at the barrier, while the state is live");
                    let barrier_end = now.duration_since(st.started_at) - upload;
                    for slot in 0..st.devices.len() {
                        let train = st.train[slot];
                        let done = st.train_done_at[slot].expect(
                            "invariant: the barrier fires only after every slot recorded TrainDone",
                        );
                        // Idle between this slot's TrainDone and the barrier.
                        let idle_after_training =
                            (st.started_at + barrier_end).duration_since(done);
                        let mut tl = PowerTimeline::new();
                        tl.push(PowerState::Waiting, waiting);
                        tl.push(PowerState::Downloading, download);
                        tl.push(PowerState::Training, train);
                        tl.push(PowerState::Waiting, idle_after_training);
                        tl.push(PowerState::Uploading, upload);
                        breakdown.waiting_j +=
                            tl.energy_in_state_joules(&profile, PowerState::Waiting);
                        breakdown.download_j +=
                            tl.energy_in_state_joules(&profile, PowerState::Downloading);
                        breakdown.training_j +=
                            tl.energy_in_state_joules(&profile, PowerState::Training);
                        breakdown.upload_j +=
                            tl.energy_in_state_joules(&profile, PowerState::Uploading);
                        straggler_wait_j += profile.waiting_w * idle_after_training.as_secs_f64();
                    }
                    if !self.config().preloaded_data {
                        breakdown.collection_j += k as f64
                            * fei_data::IotStream::with_defaults(self.config().samples_per_device)
                                .upload_energy_joules(fei_data::stream::NB_IOT_JOULES_PER_BYTE);
                    }
                    wall_clock += now.duration_since(st.started_at);
                    if round + 1 < rounds {
                        sim.schedule_at(now, Event::RoundStart { round: round + 1 });
                    }
                }
            }
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
}

#[cfg(test)]
mod tests {
    use crate::testbed::TestbedConfig;
    use crate::RaspberryPi;

    use super::*;

    #[test]
    fn des_matches_closed_form_on_homogeneous_fleet() {
        let tb = Testbed::paper_prototype();
        let (closed, closed_straggle) = tb.run_synchronous(5, 20, 4);
        let (des, des_straggle) = tb.run_des(5, 20, 4);
        assert!((closed.total_joules() - des.total_joules()).abs() < 1e-6);
        assert!((closed_straggle - des_straggle).abs() < 1e-6);
        assert_eq!(closed.wall_clock, des.wall_clock);
    }

    #[test]
    fn des_matches_closed_form_on_heterogeneous_fleet() {
        let mut speeds = vec![1.0; 20];
        speeds[3] = 0.4;
        speeds[11] = 1.6;
        let tb = Testbed::paper_prototype().with_speed_factors(speeds);
        let (closed, closed_straggle) = tb.run_synchronous(20, 10, 3);
        let (des, des_straggle) = tb.run_des(20, 10, 3);
        assert!(
            (closed.total_joules() - des.total_joules()).abs() < 1e-6,
            "closed {} vs des {}",
            closed.total_joules(),
            des.total_joules()
        );
        assert!((closed_straggle - des_straggle).abs() < 1e-6);
    }

    #[test]
    fn des_accounts_collection_when_not_preloaded() {
        let tb = Testbed::new(
            TestbedConfig {
                preloaded_data: false,
                ..Default::default()
            },
            RaspberryPi::paper_calibrated(),
        );
        let (des, _) = tb.run_des(2, 1, 3);
        assert!(des.breakdown.collection_j > 0.0);
        let (closed, _) = tb.run_synchronous(2, 1, 3);
        assert!((des.breakdown.collection_j - closed.breakdown.collection_j).abs() < 1e-9);
    }

    #[test]
    fn des_wall_clock_tracks_slowest_chain() {
        let tb = Testbed::paper_prototype();
        let (one_round, _) = tb.run_des(3, 40, 1);
        // One round: waiting + download + slowest training + upload.
        let lower_bound = tb
            .pi()
            .training_duration(40, tb.config().samples_per_device)
            .as_secs_f64()
            * 0.9;
        assert!(one_round.wall_clock.as_secs_f64() > lower_bound);
    }
}
