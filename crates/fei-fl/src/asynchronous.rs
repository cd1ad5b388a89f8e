//! Asynchronous federated averaging.
//!
//! The paper's FedAvg is synchronous: every round barriers on `K` uploads,
//! so one slow device stalls the fleet (quantified by the straggler
//! ablation). The asynchronous variant removes the barrier: each edge server
//! trains continuously against its latest snapshot of the global model and
//! the coordinator merges each update the moment it arrives, discounted by its
//! *staleness* (how many merges happened since the snapshot was taken):
//!
//! ```text
//! w = mixing_rate / (1 + staleness)^staleness_exponent
//! global ← (1 − w)·global + w·local
//! ```
//!
//! Arrival order is driven by per-client job durations on the `fei-sim`
//! virtual clock, so runs are deterministic and wall-clock comparisons
//! against the synchronous engine are meaningful.

use fei_data::Dataset;
use fei_ml::{Evaluation, LocalTrainer, LogisticRegression, Model, SgdConfig};
use fei_proto::{DeviceReport, LivenessTracker, RoundMachine, RoundPolicy};
use fei_sim::{SimDuration, SimTime, Simulation};
use serde::{Deserialize, Serialize};

/// Configuration of an asynchronous run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Local SGD epochs per job (`E`).
    pub local_epochs: usize,
    /// Local optimizer settings.
    pub sgd: SgdConfig,
    /// Base mixing rate `α ∈ (0, 1]` applied to a fresh (staleness-0) update.
    pub mixing_rate: f64,
    /// Staleness-discount exponent `a ≥ 0`; `0` ignores staleness.
    pub staleness_exponent: f64,
    /// Wall-clock duration of one local job per client, seconds. Length
    /// fixes the fleet size; unequal values model heterogeneous hardware.
    pub job_seconds: Vec<f64>,
    /// Evaluate the global model every this many applied updates.
    pub eval_every: usize,
}

impl AsyncConfig {
    /// A homogeneous fleet of `n` clients with `job_seconds` each and the
    /// common staleness discount `α = 0.6, a = 0.5`.
    pub fn uniform(n: usize, job_seconds: f64, local_epochs: usize) -> Self {
        Self {
            local_epochs,
            sgd: SgdConfig::paper_default(),
            mixing_rate: 0.6,
            staleness_exponent: 0.5,
            job_seconds: vec![job_seconds; n],
            eval_every: 1,
        }
    }
}

/// One applied asynchronous update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncUpdateRecord {
    /// 0-based index of the merge.
    pub update: usize,
    /// Client that delivered it.
    pub client: usize,
    /// Merges applied between the client's snapshot and its delivery.
    pub staleness: usize,
    /// Mixing weight actually used.
    pub weight: f64,
    /// Virtual time of the merge.
    pub at: SimTime,
    /// Test evaluation after the merge, on evaluation updates.
    pub test_eval: Option<Evaluation>,
}

/// History of an asynchronous run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AsyncHistory {
    records: Vec<AsyncUpdateRecord>,
}

impl AsyncHistory {
    /// All records, in merge order.
    pub fn records(&self) -> &[AsyncUpdateRecord] {
        &self.records
    }

    /// Number of merges recorded.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Virtual time at which test accuracy first reached `target`, if ever.
    pub fn time_to_accuracy(&self, target: f64) -> Option<SimTime> {
        self.records
            .iter()
            .find(|r| r.test_eval.is_some_and(|e| e.accuracy >= target))
            .map(|r| r.at)
    }

    /// Number of merges until test accuracy first reached `target`.
    pub fn updates_to_accuracy(&self, target: f64) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.test_eval.is_some_and(|e| e.accuracy >= target))
            .map(|r| r.update + 1)
    }

    /// Per-client update counts (length = fleet size implied by the run).
    pub fn updates_per_client(&self, n: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n];
        for r in &self.records {
            counts[r.client] += 1;
        }
        counts
    }
}

/// The asynchronous coordinator.
#[derive(Debug, Clone)]
pub struct AsyncFedAvg<M: Model = LogisticRegression> {
    config: AsyncConfig,
    clients: Vec<Dataset>,
    test: Dataset,
    global: M,
    trainer: LocalTrainer,
}

impl AsyncFedAvg<LogisticRegression> {
    /// Creates a run training a zero-initialized logistic regression.
    ///
    /// # Panics
    ///
    /// Same validation as [`AsyncFedAvg::with_model`].
    pub fn new(config: AsyncConfig, clients: Vec<Dataset>, test: Dataset) -> Self {
        assert!(!clients.is_empty(), "need at least one client dataset");
        let global = LogisticRegression::zeros(clients[0].dim(), clients[0].num_classes());
        Self::with_model(config, clients, test, global)
    }
}

impl<M: Model> AsyncFedAvg<M> {
    /// Creates a run from client datasets, a test set, and an initial model.
    ///
    /// # Panics
    ///
    /// Panics on empty/mismatched datasets, a `job_seconds` length different
    /// from the client count or containing non-positive values,
    /// `mixing_rate` outside `(0, 1]`, a negative `staleness_exponent`, or
    /// zero `local_epochs`/`eval_every`.
    pub fn with_model(
        config: AsyncConfig,
        clients: Vec<Dataset>,
        test: Dataset,
        global: M,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client dataset");
        assert!(
            clients.iter().all(|c| !c.is_empty()),
            "every client needs data"
        );
        let dim = clients[0].dim();
        let classes = clients[0].num_classes();
        assert!(
            clients
                .iter()
                .all(|c| c.dim() == dim && c.num_classes() == classes),
            "client datasets must share a shape"
        );
        assert_eq!(test.dim(), dim, "test set dimension mismatch");
        assert_eq!(global.dim(), dim, "model dimension mismatch");
        assert_eq!(
            config.job_seconds.len(),
            clients.len(),
            "one job duration per client"
        );
        assert!(
            config.job_seconds.iter().all(|&s| s.is_finite() && s > 0.0),
            "job durations must be positive"
        );
        assert!(
            config.mixing_rate > 0.0 && config.mixing_rate <= 1.0,
            "mixing rate must be in (0, 1]"
        );
        assert!(
            config.staleness_exponent >= 0.0,
            "staleness exponent must be non-negative"
        );
        assert!(config.local_epochs > 0, "E must be at least 1");
        assert!(config.eval_every > 0, "eval_every must be at least 1");
        config.sgd.validate();
        let trainer = LocalTrainer::new(config.sgd.clone());
        Self {
            config,
            clients,
            test,
            global,
            trainer,
        }
    }

    /// Runs until `max_updates` merges have been applied (or until
    /// `target_accuracy` is reached, when given), returning the history.
    pub fn run(&mut self, max_updates: usize, target_accuracy: Option<f64>) -> AsyncHistory {
        let n = self.clients.len();
        let mut sim: Simulation<usize> = Simulation::new();
        // Every client starts training against version 0 immediately.
        let mut snapshot_version = vec![0usize; n];
        let mut snapshots: Vec<M> = vec![self.global.clone(); n];
        for client in 0..n {
            sim.schedule_after(
                SimDuration::from_secs_f64(self.config.job_seconds[client]),
                client,
            );
        }

        let mut history = AsyncHistory::default();
        let mut version = 0usize;
        // Heartbeat leases on the merge clock: a client is expected to
        // deliver at least every 4·n merges (four full waves of an equal
        // fleet) or its lease lapses and it rejoins on the next delivery.
        let mut liveness = LivenessTracker::new(4 * n as u64);
        for client in 0..n {
            liveness.register(client as u64, 0);
        }
        while history.len() < max_updates {
            let Some((now, client)) = sim.step() else {
                break;
            };
            // The client finished a job it started against snapshot_version.
            let mut local = snapshots[client].clone();
            // Deterministic per-client round id: its own snapshot version.
            self.trainer.train(
                &mut local,
                &self.clients[client],
                self.config.local_epochs,
                snapshot_version[client],
            );

            let staleness = version - snapshot_version[client];

            // Each arrival is a degenerate one-client round driven through
            // the shared fei-proto decision core: quorum 1, no deadline —
            // asynchrony discounts staleness instead of rejecting it.
            liveness.expire(version as u64);
            if liveness.contains(client as u64) {
                let _ = liveness.beat(client as u64, version as u64);
            } else {
                // The lease lapsed while the job ran; the client rejoins.
                liveness.register(client as u64, version as u64);
            }
            let policy = RoundPolicy {
                k: 1,
                over_select: 0,
                quorum: 1,
                deadline_s: None,
            };
            let Ok(mut machine) = RoundMachine::begin(policy, version as u64, 1) else {
                // Unreachable: one delivering client satisfies a quorum of 1.
                break;
            };
            machine.offer(
                client,
                DeviceReport {
                    straggle_factor: 1.0 + staleness as f64,
                    delivered: true,
                    arrival_s: 0.0,
                },
            );
            let closed = machine.close();
            if !closed.quorum_met {
                break;
            }

            let weight = self.config.mixing_rate
                / (1.0 + staleness as f64).powf(self.config.staleness_exponent);
            merge_into(&mut self.global, &local, weight);
            version += 1;

            let update = history.len();
            let evaluated = (update + 1) % self.config.eval_every == 0;
            let test_eval = evaluated.then(|| Evaluation::of(&self.global, &self.test));
            history.records.push(AsyncUpdateRecord {
                update,
                client,
                staleness,
                weight,
                at: now,
                test_eval,
            });

            let reached = match (target_accuracy, test_eval) {
                (Some(t), Some(e)) => e.accuracy >= t,
                _ => false,
            };
            if reached {
                break;
            }

            // The client snapshots the fresh global model and goes again.
            snapshots[client] = self.global.clone();
            snapshot_version[client] = version;
            sim.schedule_after(
                SimDuration::from_secs_f64(self.config.job_seconds[client]),
                client,
            );
        }
        history
    }
}

/// `global ← (1 − w)·global + w·local` over the flat parameters.
fn merge_into<M: Model>(global: &mut M, local: &M, weight: f64) {
    let merged: Vec<f64> = global
        .to_flat()
        .iter()
        .zip(local.to_flat())
        .map(|(g, l)| (1.0 - weight) * g + weight * l)
        .collect();
    global.set_flat(&merged);
}

#[cfg(test)]
mod tests {
    use fei_data::{Partition, SyntheticMnist, SyntheticMnistConfig};
    use fei_sim::DetRng;

    use super::*;

    fn setup(n: usize, samples: usize) -> (Vec<Dataset>, Dataset) {
        let gen = SyntheticMnist::new(SyntheticMnistConfig {
            pixel_noise_std: 0.2,
            label_flip_prob: 0.0,
            ..Default::default()
        });
        let train = gen.generate(samples, 0);
        let test = gen.generate(samples / 4, 1);
        let parts = Partition::iid(train.len(), n, &mut DetRng::new(3)).apply(&train);
        (parts, test)
    }

    fn fast_config(n: usize) -> AsyncConfig {
        AsyncConfig {
            sgd: SgdConfig::new(0.1, 1.0, None),
            ..AsyncConfig::uniform(n, 1.0, 5)
        }
    }

    #[test]
    fn async_training_converges() {
        let (clients, test) = setup(4, 240);
        let mut run = AsyncFedAvg::new(fast_config(4), clients, test);
        let history = run.run(200, Some(0.8));
        let reached = history.updates_to_accuracy(0.8);
        assert!(reached.is_some(), "async run never reached 80%");
        assert!(history.len() <= 200);
    }

    #[test]
    fn staleness_is_bounded_by_fleet_size_under_equal_speeds() {
        // With equal job durations every client delivers once per "wave",
        // so at most n − 1 merges happen between snapshot and delivery.
        let (clients, test) = setup(5, 100);
        let mut run = AsyncFedAvg::new(fast_config(5), clients, test);
        let history = run.run(60, None);
        let max_staleness = history.records().iter().map(|r| r.staleness).max();
        assert!(max_staleness <= Some(5), "staleness {max_staleness:?}");
        // The very first delivery has staleness 0.
        assert_eq!(history.records()[0].staleness, 0);
    }

    #[test]
    fn staleness_discount_shrinks_weights() {
        let (clients, test) = setup(4, 80);
        let config = AsyncConfig {
            staleness_exponent: 1.0,
            ..fast_config(4)
        };
        let mut run = AsyncFedAvg::new(config, clients, test);
        let history = run.run(40, None);
        for r in history.records() {
            let expected = 0.6 / (1.0 + r.staleness as f64);
            assert!((r.weight - expected).abs() < 1e-12);
            assert!(r.weight <= 0.6);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let (clients, test) = setup(3, 90);
        let mut a = AsyncFedAvg::new(fast_config(3), clients.clone(), test.clone());
        let mut b = AsyncFedAvg::new(fast_config(3), clients, test);
        let ha = a.run(30, None);
        let hb = b.run(30, None);
        assert_eq!(ha, hb);
        assert_eq!(a.global, b.global);
    }

    #[test]
    fn slow_clients_contribute_fewer_updates() {
        let (clients, test) = setup(3, 90);
        let config = AsyncConfig {
            job_seconds: vec![1.0, 1.0, 10.0],
            ..fast_config(3)
        };
        let mut run = AsyncFedAvg::new(config, clients, test);
        let history = run.run(60, None);
        let counts = history.updates_per_client(3);
        assert!(
            counts[2] < counts[0] / 3,
            "slow client contributed {counts:?}"
        );
        // Yet the fleet keeps merging at full speed: virtual time for 60
        // updates stays near 30 waves of the fast pair.
        let last = history.records().last().unwrap().at;
        assert!(last < fei_sim::SimTime::from_secs_f64(35.0), "took {last}");
    }

    #[test]
    fn virtual_clock_orders_merges() {
        let (clients, test) = setup(2, 60);
        let config = AsyncConfig {
            job_seconds: vec![1.0, 2.5],
            ..fast_config(2)
        };
        let mut run = AsyncFedAvg::new(config, clients, test);
        let history = run.run(10, None);
        // Timestamps are non-decreasing and the fast client leads 2.5:1.
        for pair in history.records().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        let counts = history.updates_per_client(2);
        assert!(counts[0] > counts[1]);
    }

    #[test]
    fn slow_client_lease_lapses_and_rejoins() {
        // A 20x-slow client goes ~40 merges between deliveries while the
        // lease allows 4·n = 12: it expires and rejoins each time — and its
        // merges still apply, staleness-discounted, exactly as before.
        let (clients, test) = setup(3, 90);
        let config = AsyncConfig {
            job_seconds: vec![1.0, 1.0, 20.0],
            ..fast_config(3)
        };
        let mut run = AsyncFedAvg::new(config, clients, test);
        let history = run.run(80, None);
        assert!(
            history.updates_per_client(3)[2] >= 1,
            "lapsed client must still contribute after rejoining"
        );
        // Its last beat is no later than the snapshot it trained on, so a
        // staleness of a whole lease means the lease had lapsed: every one
        // of its deliveries takes the rejoin branch.
        let lease = 4 * 3;
        let slow = history.records().iter().filter(|r| r.client == 2);
        for record in slow {
            assert!(record.staleness >= lease, "{record:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one job duration per client")]
    fn rejects_mismatched_speed_vector() {
        let (clients, test) = setup(3, 60);
        let config = AsyncConfig::uniform(2, 1.0, 1);
        let _ = AsyncFedAvg::new(config, clients, test);
    }

    #[test]
    #[should_panic(expected = "mixing rate")]
    fn rejects_zero_mixing() {
        let (clients, test) = setup(2, 60);
        let config = AsyncConfig {
            mixing_rate: 0.0,
            ..AsyncConfig::uniform(2, 1.0, 1)
        };
        let _ = AsyncFedAvg::new(config, clients, test);
    }
}
