//! Glue: real FedAvg training on synthetic MNIST, parameterized like the
//! paper's evaluation.
//!
//! The paper uniformly spreads 60 000 training samples over 20 servers and
//! measures convergence for combinations of `(K, E)`. [`FlExperiment`]
//! reproduces that campaign at a configurable scale factor (`scale = 1.0`
//! is the paper's full size; benches default to a laptop-friendly fraction,
//! which preserves curve shapes because the data generator's difficulty is
//! scale-free).

use fei_data::{Dataset, Partition, SyntheticMnist, SyntheticMnistConfig};
use fei_fl::{FedAvg, FedAvgConfig, StopCondition, ThreadedFedAvg, TrainingHistory, WireConfig};
use fei_ml::SgdConfig;
use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

/// The "relatively low" accuracy target of Fig. 4(b) — reached quickly at
/// any `K`. (Paper: 0.89 on MNIST; same position relative to our synthetic
/// ceiling of ~0.925.)
pub const EASY_TARGET: f64 = 0.89;

/// The stringent accuracy target of the paper's energy experiments
/// (Figs. 5–6 fix 92 %). Our synthetic ceiling sits at ~0.925, mirroring
/// multinomial LR's ~92.6 % on MNIST, so the same 0.92 is used.
pub const STRINGENT_TARGET: f64 = 0.92;

/// How training data is spread across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PartitionStrategy {
    /// Uniform random split — the paper's prototype setting.
    #[default]
    Iid,
    /// Symmetric Dirichlet label skew; smaller `alpha` = more heterogeneous.
    Dirichlet {
        /// Concentration parameter.
        alpha: f64,
    },
    /// Pathological label sharding (each client sees few classes).
    LabelShards {
        /// Shards dealt to each client.
        shards_per_client: usize,
    },
}

/// Configuration of an FL convergence campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlExperimentConfig {
    /// Number of edge servers `N`.
    pub num_devices: usize,
    /// Fraction of the paper's 60 000-sample training set to generate.
    pub scale: f64,
    /// Fraction of the paper's 10 000-sample test set to generate (kept
    /// larger than `scale` in small campaigns so accuracy granularity stays
    /// fine enough to resolve the targets).
    pub test_scale: f64,
    /// Synthetic data difficulty.
    pub data: SyntheticMnistConfig,
    /// Local optimizer settings.
    pub sgd: SgdConfig,
    /// Evaluate the global model every this many rounds.
    pub eval_every: usize,
    /// How the training data is spread across devices.
    pub partition: PartitionStrategy,
    /// Uplink wire encoding for model uploads (lossless `F64` by default;
    /// see [`fei_fl::WireConfig`]).
    #[serde(default)]
    pub transport: WireConfig,
    /// Seed for partitioning and client selection.
    pub seed: u64,
}

impl Default for FlExperimentConfig {
    fn default() -> Self {
        Self {
            num_devices: 20,
            scale: 0.05,
            test_scale: 0.2,
            data: SyntheticMnistConfig::default(),
            sgd: SgdConfig::paper_default(),
            eval_every: 1,
            partition: PartitionStrategy::Iid,
            transport: WireConfig::default(),
            seed: 0xF1,
        }
    }
}

impl FlExperimentConfig {
    /// The tuned campaign used by the table/figure benches: a 20-server
    /// fleet on a scaled synthetic-MNIST task whose convergence structure
    /// matches the paper's (finite `T` at `E = 1`, interior optimum of
    /// `E·T`, near-linear `T` reduction in `K` at the stringent target).
    ///
    /// Slower-than-Table-II SGD (lr 0.005, decay 0.998) compensates for the
    /// synthetic task being better conditioned than MNIST; see
    /// EXPERIMENTS.md.
    pub fn paper_like() -> Self {
        Self {
            num_devices: 20,
            scale: 0.05,
            test_scale: 0.2,
            data: SyntheticMnistConfig {
                pixel_noise_std: 0.5,
                ..Default::default()
            },
            sgd: SgdConfig::new(0.005, 0.998, None),
            eval_every: 1,
            partition: PartitionStrategy::Iid,
            transport: WireConfig::default(),
            seed: 0xF1,
        }
    }

    /// The same campaign under a different uplink wire encoding.
    pub fn with_transport(mut self, transport: WireConfig) -> Self {
        self.transport = transport;
        self
    }
}

/// A prepared FL campaign: generated data, fixed partition, reusable across
/// `(K, E)` combinations so every run sees identical datasets.
#[derive(Debug, Clone)]
pub struct FlExperiment {
    config: FlExperimentConfig,
    clients: Vec<Dataset>,
    test: Dataset,
}

impl FlExperiment {
    /// Generates data and partitions it IID across the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`, `scale <= 0`, or the scaled dataset is
    /// too small to give every device a sample.
    pub fn prepare(config: FlExperimentConfig) -> Self {
        assert!(config.num_devices > 0, "need at least one device");
        assert!(config.scale > 0.0, "scale must be positive");
        assert!(config.test_scale > 0.0, "test_scale must be positive");
        let gen = SyntheticMnist::new(config.data.clone());
        let train = gen.generate((60_000.0 * config.scale).round() as usize, 0);
        let test = gen.generate((10_000.0 * config.test_scale).round() as usize, 1);
        assert!(
            train.len() >= config.num_devices,
            "scaled train set ({}) smaller than fleet ({})",
            train.len(),
            config.num_devices
        );
        let mut part_rng = DetRng::new(config.seed).fork(0x9A87);
        let partition = match config.partition {
            PartitionStrategy::Iid => {
                Partition::iid(train.len(), config.num_devices, &mut part_rng)
            }
            PartitionStrategy::Dirichlet { alpha } => {
                Partition::dirichlet(&train, config.num_devices, alpha, &mut part_rng)
            }
            PartitionStrategy::LabelShards { shards_per_client } => Partition::by_label_shards(
                &train,
                config.num_devices,
                shards_per_client,
                &mut part_rng,
            ),
        };
        let clients = partition.apply(&train);
        Self {
            config,
            clients,
            test,
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FlExperimentConfig {
        &self.config
    }

    /// Samples held by the first device (`n_k`; exactly equal across devices
    /// only under the IID split).
    pub fn samples_per_device(&self) -> usize {
        self.clients[0].len()
    }

    /// The held-out test set.
    pub fn test_set(&self) -> &Dataset {
        &self.test
    }

    /// The union of all client datasets — the centralized view used to
    /// estimate the minimal loss `F(ω*)` for bound calibration.
    pub fn training_union(&self) -> Dataset {
        let mut union = Dataset::empty(self.clients[0].dim(), self.clients[0].num_classes());
        for client in &self.clients {
            for (x, y) in client.iter() {
                union.push(x, y);
            }
        }
        union
    }

    /// The engine configuration for one `(K, E)` combination; every engine
    /// builder starts from it, so they differ only in what they add.
    fn fedavg_config(&self, k: usize, e: usize) -> FedAvgConfig {
        FedAvgConfig {
            clients_per_round: k,
            local_epochs: e,
            sgd: self.config.sgd.clone(),
            eval_every: self.config.eval_every,
            transport: self.config.transport,
            seed: self.config.seed ^ ((k as u64) << 32) ^ e as u64,
            ..Default::default()
        }
    }

    /// Builds the FedAvg engine for one `(K, E)` combination.
    pub fn engine(&self, k: usize, e: usize) -> FedAvg {
        let config = self.fedavg_config(k, e);
        FedAvg::new(config, self.clients.clone(), self.test.clone())
    }

    /// Builds the pooled, transport-backed engine for the same
    /// `(K, E)` combination — configured identically to
    /// [`FlExperiment::engine`], so the two runs are bit-for-bit
    /// interchangeable (see `tests/golden_numerics.rs`).
    pub fn threaded_engine(&self, k: usize, e: usize) -> ThreadedFedAvg {
        let config = self.fedavg_config(k, e);
        ThreadedFedAvg::new(config, self.clients.clone(), self.test.clone())
    }

    /// Builds a FedAvg engine for `(K, E)` under Byzantine conditions: an
    /// optional fault schedule, an optional adversarial cohort, and an
    /// optional coordinator defense (screen + robust rule). All three
    /// `None` reproduces [`FlExperiment::engine`] exactly.
    pub(crate) fn byzantine_engine(
        &self,
        k: usize,
        e: usize,
        tolerance: fei_fl::ToleranceConfig,
        injector: Option<fei_fl::FaultInjector>,
        adversary: Option<fei_fl::AdversarySpec>,
        defense: Option<fei_fl::DefenseConfig>,
    ) -> FedAvg {
        let config = FedAvgConfig {
            tolerance,
            defense,
            ..self.fedavg_config(k, e)
        };
        let mut engine = FedAvg::new(config, self.clients.clone(), self.test.clone());
        if let Some(injector) = injector {
            engine = engine.with_faults(injector);
        }
        if let Some(spec) = adversary {
            engine = engine.with_adversary(spec);
        }
        engine
    }

    /// Runs `(K, E)` for a fixed number of rounds.
    pub fn run_rounds(&self, k: usize, e: usize, rounds: usize) -> TrainingHistory {
        self.engine(k, e).run_until(StopCondition::rounds(rounds))
    }

    /// Runs `(K, E)` until `target_accuracy`, capped at `max_rounds`.
    /// Returns the history and `T(target)` — the paper's required number of
    /// global coordinations — when reached.
    pub fn run_to_accuracy(
        &self,
        k: usize,
        e: usize,
        target_accuracy: f64,
        max_rounds: usize,
    ) -> (TrainingHistory, Option<usize>) {
        let history = self
            .engine(k, e)
            .run_until(StopCondition::accuracy(target_accuracy, max_rounds));
        let t = history.rounds_to_accuracy(target_accuracy);
        (history, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FlExperimentConfig {
        FlExperimentConfig {
            num_devices: 5,
            scale: 0.01,
            test_scale: 0.01,
            data: SyntheticMnistConfig {
                pixel_noise_std: 0.2,
                label_flip_prob: 0.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn prepare_splits_evenly() {
        let exp = FlExperiment::prepare(small_config());
        assert_eq!(exp.samples_per_device(), 600 / 5);
        assert_eq!(exp.test_set().len(), 100);
    }

    #[test]
    fn run_rounds_produces_history() {
        let exp = FlExperiment::prepare(small_config());
        let h = exp.run_rounds(2, 3, 4);
        assert_eq!(h.len(), 4);
        assert_eq!(h.total_local_epochs(), 4 * 2 * 3);
    }

    #[test]
    fn identical_campaigns_are_reproducible() {
        let a = FlExperiment::prepare(small_config()).run_rounds(2, 2, 3);
        let b = FlExperiment::prepare(small_config()).run_rounds(2, 2, 3);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn run_to_accuracy_reports_t() {
        let mut cfg = small_config();
        cfg.sgd = SgdConfig::new(0.3, 1.0, None);
        let exp = FlExperiment::prepare(cfg);
        let (history, t) = exp.run_to_accuracy(5, 5, 0.6, 300);
        let t = t.expect("should reach 60% on clean data");
        assert!(t <= 300);
        assert_eq!(history.rounds_to_accuracy(0.6), Some(t));
    }

    #[test]
    fn more_epochs_converge_in_fewer_rounds() {
        // The paper's central observation (Fig. 4c-d): larger E cuts the
        // required T.
        let mut cfg = small_config();
        cfg.sgd = SgdConfig::new(0.1, 1.0, None);
        let exp = FlExperiment::prepare(cfg);
        let (_, t_e1) = exp.run_to_accuracy(5, 1, 0.6, 400);
        let (_, t_e10) = exp.run_to_accuracy(5, 10, 0.6, 400);
        let (t_e1, t_e10) = (t_e1.unwrap(), t_e10.unwrap());
        assert!(
            t_e10 < t_e1,
            "E=10 needed {t_e10} rounds, E=1 needed {t_e1}"
        );
    }

    #[test]
    fn dirichlet_partition_skews_devices() {
        let mut cfg = small_config();
        cfg.partition = PartitionStrategy::Dirichlet { alpha: 0.1 };
        let exp = FlExperiment::prepare(cfg);
        let counts: Vec<usize> = exp.clients.iter().map(Dataset::len).collect();
        assert_eq!(counts.iter().sum::<usize>(), 600);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > min,
            "Dirichlet(0.1) should produce uneven devices: {counts:?}"
        );
    }

    #[test]
    fn label_shards_partition_trains() {
        let mut cfg = small_config();
        cfg.partition = PartitionStrategy::LabelShards {
            shards_per_client: 2,
        };
        let exp = FlExperiment::prepare(cfg);
        let h = exp.run_rounds(5, 2, 3);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn noniid_converges_slower_than_iid() {
        // The mechanism behind the paper's K* = 1 caveat: heterogeneity
        // slows small-K convergence.
        let mut iid_cfg = small_config();
        iid_cfg.sgd = SgdConfig::new(0.05, 1.0, None);
        let mut skew_cfg = iid_cfg.clone();
        skew_cfg.partition = PartitionStrategy::LabelShards {
            shards_per_client: 1,
        };
        let iid = FlExperiment::prepare(iid_cfg);
        let skewed = FlExperiment::prepare(skew_cfg);
        let (_, t_iid) = iid.run_to_accuracy(1, 5, 0.6, 300);
        let (_, t_skew) = skewed.run_to_accuracy(1, 5, 0.6, 300);
        let t_iid = t_iid.expect("IID converges");
        // A skewed split never reaching the target is the extreme slow case.
        if let Some(t) = t_skew {
            assert!(t >= t_iid, "skewed ({t}) vs IID ({t_iid})");
        }
    }

    #[test]
    #[should_panic(expected = "smaller than fleet")]
    fn rejects_overscaled_fleet() {
        let mut cfg = small_config();
        cfg.num_devices = 1_000;
        let _ = FlExperiment::prepare(cfg);
    }
}
