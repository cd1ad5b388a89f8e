//! The FedAvg round: its configuration, its record, and the one driver
//! that runs it.

use std::sync::Arc;

use fei_data::Dataset;
use fei_ml::{Evaluation, GradScratch, LogisticRegression, Model, SgdConfig, TrainStats};
use fei_net::wire::WireConfig;
use fei_proto::{control_round_bytes, DeviceReport, RoundMachine, RoundPolicy};
use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversarySpec};
use crate::aggregate::{try_aggregate, AggregationRule};
use crate::error::FlError;
use crate::executor::{ClientUpdate, Executor, Inline};
use crate::fault::{FaultInjector, RetryPolicy};
use crate::history::TrainingHistory;
use crate::resume::EngineCheckpoint;
use crate::robust::{robust_aggregate, DefenseConfig, UpdateScreen};
use crate::runtime::TransportStats;
use crate::selection::{ClientSelector, SelectionStrategy};

/// Configuration of a FedAvg run — the knobs of the paper's §III-A loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedAvgConfig {
    /// `K`: edge servers selected per global round.
    pub clients_per_round: usize,
    /// `E`: local SGD epochs per selected server per round.
    pub local_epochs: usize,
    /// Local optimizer settings (Table II defaults).
    pub sgd: SgdConfig,
    /// How participants are chosen each round.
    pub selection: SelectionStrategy,
    /// How uploads are combined (Eq. 2 uniform by default).
    pub aggregation: AggregationRule,
    /// Evaluate the global model every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Probability that a selected server fails to deliver its update this
    /// round (crash, radio loss). The coordinator aggregates the survivors;
    /// a round in which everyone drops leaves the global model unchanged.
    pub dropout_prob: f64,
    /// Coordinator-side tolerance knobs: over-selection, quorum, deadline,
    /// and upload retry policy.
    pub tolerance: ToleranceConfig,
    /// Byzantine defense: update screening plus a robust aggregation rule.
    /// `None` aggregates every delivered update with [`Self::aggregation`]
    /// (the undefended baseline). When set, [`Self::aggregation`] is only
    /// consulted by [`crate::robust::RobustRule::Mean`].
    pub defense: Option<DefenseConfig>,
    /// Wire encoding for worker → coordinator model uploads. The default
    /// lossless `F64` reproduces the uncompressed path bit-for-bit; lossy
    /// tiers shrink uplink bytes (and upload energy) at a bounded accuracy
    /// cost. The downlink broadcast is always lossless `F64`, so every
    /// device holds the bit-exact delta base.
    #[serde(default)]
    pub transport: WireConfig,
    /// Seed for selection and dropout randomness.
    pub seed: u64,
}

/// Coordinator-side fault-tolerance settings for each global round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleranceConfig {
    /// Over-selection margin `m`: the coordinator selects `K + m` servers
    /// and aggregates the first `K` arrivals, hedging against dropouts.
    pub over_select: usize,
    /// Minimum delivered updates required to commit a round. `None` commits
    /// on any non-empty arrival set (the classic FedAvg behavior).
    pub quorum: Option<usize>,
    /// Per-round deadline in virtual seconds; arrivals after it are
    /// discarded. `None` waits for every delivered update.
    pub deadline_s: Option<f64>,
    /// Nominal (fault-free) duration of one device round, virtual seconds.
    /// Straggle factors and retry backoff scale and add to this.
    pub nominal_round_s: f64,
    /// Bounded exponential-backoff retry applied to lost or corrupted
    /// uploads.
    pub retry: RetryPolicy,
}

impl Default for ToleranceConfig {
    fn default() -> Self {
        Self {
            over_select: 0,
            quorum: None,
            deadline_s: None,
            nominal_round_s: 1.0,
            retry: RetryPolicy::default(),
        }
    }
}

impl ToleranceConfig {
    /// The effective quorum: the configured minimum, or 1.
    pub(crate) fn effective_quorum(&self) -> usize {
        self.quorum.unwrap_or(1).max(1)
    }
}

/// How a round concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundOutcome {
    /// Every selected server's update was aggregated.
    Full,
    /// A quorum-satisfying subset was aggregated.
    Partial,
    /// Quorum was missed; the global model is unchanged and the round's
    /// energy is wasted.
    Abandoned,
}

impl RoundOutcome {
    /// Classifies a round from its delivered-update count.
    pub fn of(committed: usize, selected: usize, quorum: usize) -> Self {
        if committed < quorum {
            Self::Abandoned
        } else if committed == selected {
            Self::Full
        } else {
            Self::Partial
        }
    }

    /// Whether the round updated the global model.
    pub fn committed(&self) -> bool {
        !matches!(self, Self::Abandoned)
    }
}

/// Per-round fault bookkeeping (all zero on a clean round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoundFaultStats {
    /// Selected servers that were down (crashed, not yet restarted).
    pub crashed: usize,
    /// Selected servers that ran slow this round.
    pub stragglers: usize,
    /// Failed upload attempts that were retried.
    pub upload_retries: usize,
    /// Uploads abandoned after exhausting their retry budget.
    pub abandoned_uploads: usize,
    /// Upload attempts that arrived corrupted (checksum failure).
    pub corrupted_frames: usize,
    /// Delivered updates discarded for missing the round deadline.
    pub deadline_misses: usize,
    /// Servers the threaded engine lost mid-round: a job that panicked (then
    /// and in every later round) or timed out. Counted as dropouts, never a
    /// hang.
    pub worker_losses: usize,
    /// Delivered updates rejected by the coordinator's update screen
    /// (non-finite values, wrong dimension, or norm outliers).
    pub screened_updates: usize,
    /// Delivered updates norm-clipped (down-weighted) by the screen.
    pub clipped_updates: usize,
}

impl RoundFaultStats {
    /// Whether anything went wrong this round.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        Self {
            clients_per_round: 1,
            local_epochs: 1,
            sgd: SgdConfig::paper_default(),
            selection: SelectionStrategy::UniformRandom,
            aggregation: AggregationRule::Uniform,
            eval_every: 1,
            dropout_prob: 0.0,
            tolerance: ToleranceConfig::default(),
            defense: None,
            transport: WireConfig::default(),
            seed: 0x0FED,
        }
    }
}

/// When a `FedAvg::run_until` loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopCondition {
    /// Hard cap on global rounds.
    pub max_rounds: usize,
    /// Stop early once test accuracy reaches this level (checked on
    /// evaluation rounds).
    pub target_accuracy: Option<f64>,
}

impl StopCondition {
    /// Runs exactly `rounds` rounds.
    pub fn rounds(rounds: usize) -> Self {
        Self {
            max_rounds: rounds,
            target_accuracy: None,
        }
    }

    /// Runs until `accuracy` is reached, at most `max_rounds` rounds.
    pub fn accuracy(accuracy: f64, max_rounds: usize) -> Self {
        Self {
            max_rounds,
            target_accuracy: Some(accuracy),
        }
    }
}

/// What happened in one global round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// 0-based round index `t`.
    pub round: usize,
    /// Selected edge servers `𝒦_t`, ascending.
    pub selected: Vec<usize>,
    /// The subset of `selected` that actually delivered an update (equal to
    /// `selected` unless dropout is enabled), ascending.
    pub responded: Vec<usize>,
    /// Per-responding-server local training statistics, in `responded`
    /// order.
    pub local_stats: Vec<TrainStats>,
    /// Loss of the *new* global model over all training data, when this was
    /// an evaluation round.
    pub global_train_loss: Option<f64>,
    /// Test-set evaluation of the new global model, when evaluated.
    pub test_eval: Option<Evaluation>,
    /// Whether the round committed fully, partially, or not at all.
    pub outcome: RoundOutcome,
    /// Fault bookkeeping (all zero on a clean round).
    pub faults: RoundFaultStats,
}

/// The FedAvg round driver: one implementation of the paper's §III-A loop
/// over a fixed set of client datasets, generic over the trained [`Model`]
/// and over *where* local training runs (the sealed [`Executor`]).
///
/// Everything a round decides lives here exactly once — constructor
/// validation, selection, dropout and fault planning, poisoning, retransmit
/// billing, screening, quorum, control bytes, aggregation, the record,
/// checkpoints. The executor only trains the planned clients and carries
/// their updates back, so both public engines, [`FedAvg`] and
/// [`crate::ThreadedFedAvg`], are this type and agree bit for bit.
#[derive(Debug, Clone)]
pub struct RoundDriver<M: Model, X: Executor> {
    config: FedAvgConfig,
    clients: Vec<Arc<Dataset>>,
    test: Dataset,
    global: M,
    selector: ClientSelector,
    dropout_rng: DetRng,
    injector: Option<FaultInjector>,
    adversary: Option<Adversary>,
    /// Transport totals, summed from the frame bytes the executor reports.
    transport: TransportStats,
    round: usize,
    /// Workspace of the coordinator-side evaluation passes, reused across
    /// rounds: an evaluated round forwards `Σ n_k + n_test` samples through
    /// it, each once, and allocates nothing once it is warm.
    eval: GradScratch,
    pub(crate) exec: X,
}

/// In-process FedAvg (multinomial logistic regression by default): the
/// round driver over the `Inline` executor. Used by experiments that
/// sweep many `(K, E)` combinations.
pub type FedAvg<M = LogisticRegression> = RoundDriver<M, Inline>;

impl<X: Executor> RoundDriver<LogisticRegression, X> {
    /// Creates a run training the paper's model — multinomial logistic
    /// regression starting at zero (`ω₀ = 0`).
    ///
    /// # Panics
    ///
    /// Panics if there are no clients, any client dataset is empty, shapes
    /// are inconsistent, `clients_per_round` is 0 or exceeds the client
    /// count, `local_epochs == 0`, `eval_every == 0`, or `sgd` has an [`SgdConfig::violation`].
    pub fn new(config: FedAvgConfig, clients: Vec<Dataset>, test: Dataset) -> Self {
        assert!(!clients.is_empty(), "need at least one client dataset");
        let global = LogisticRegression::zeros(clients[0].dim(), clients[0].num_classes());
        Self::with_model(config, clients, test, global)
    }
}

impl<M: Model, X: Executor> RoundDriver<M, X> {
    /// Creates a run from per-client datasets, a test set, and an initial
    /// global model `ω₀` of any [`Model`] type, and starts the executor.
    ///
    /// # Panics
    ///
    /// Same validation as [`RoundDriver::new`], plus a model/dataset shape
    /// check.
    pub fn with_model(
        config: FedAvgConfig,
        clients: Vec<Dataset>,
        test: Dataset,
        global: M,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client dataset");
        assert!(
            clients.iter().all(|c| !c.is_empty()),
            "every client needs at least one sample"
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
        assert_eq!(test.num_classes(), classes, "test set class mismatch");
        assert_eq!(global.dim(), dim, "model dimension mismatch");
        assert_eq!(global.num_classes(), classes, "model class mismatch");
        assert!(config.clients_per_round > 0, "K must be at least 1");
        assert!(
            config.clients_per_round <= clients.len(),
            "K = {} exceeds N = {}",
            config.clients_per_round,
            clients.len()
        );
        assert!(config.local_epochs > 0, "E must be at least 1");
        assert!(config.eval_every > 0, "eval_every must be at least 1");
        config.sgd.validate();
        assert!(
            (0.0..1.0).contains(&config.dropout_prob),
            "dropout probability must be in [0, 1)"
        );
        if let Some(defense) = &config.defense {
            defense.screen.validate();
        }

        let clients: Vec<Arc<Dataset>> = clients.into_iter().map(Arc::new).collect();
        let exec = X::start(&config, &clients, &global);
        Self {
            selector: ClientSelector::new(config.selection, clients.len(), config.seed),
            dropout_rng: DetRng::new(config.seed).fork(0xD80),
            config,
            clients,
            test,
            global,
            injector: None,
            adversary: None,
            transport: TransportStats::default(),
            round: 0,
            eval: GradScratch::new(),
            exec,
        }
    }

    /// Attaches a seeded fault injector: crashes, stragglers, and lossy or
    /// corrupting uplinks now perturb every round, and the coordinator
    /// responds with over-selection, deadlines, retry, and quorum from
    /// [`FedAvgConfig::tolerance`]. Fault decisions are made
    /// coordinator-side from a pure schedule, so every executor sees the
    /// same faults under the same seed.
    ///
    /// # Panics
    ///
    /// Panics when `dropout_prob` is also set — the injector subsumes it,
    /// and mixing the two RNG streams would break reproducibility.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        assert_eq!(
            self.config.dropout_prob, 0.0,
            "use either dropout_prob or a fault injector, not both"
        );
        self.injector = Some(injector);
        self
    }

    /// Compromises a seeded fraction of the fleet: those devices now run
    /// `spec.behavior` every round they are selected. Attacks on uploaded
    /// parameters are applied coordinator-side to the decoded updates, and
    /// label-flip cohorts are flagged to the executor so they train on
    /// flipped copies of their data — every executor observes bit-identical
    /// attacks under the same spec.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`AdversarySpec`] (see [`Adversary::new`]).
    pub fn with_adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = Some(Adversary::new(spec, self.clients.len()));
        self
    }

    /// The attached adversary, if any.
    pub fn adversary(&self) -> Option<&Adversary> {
        self.adversary.as_ref()
    }

    /// Changes `(K, E)` in place, keeping the global model, round counter,
    /// and RNG streams — the live re-planning hook. When crashes shrink the
    /// fleet, the coordinator re-runs ACS against the survivors and applies
    /// the fresh `(K*, E*)` here without restarting training.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the fleet, or `e` is 0.
    pub fn set_participation(&mut self, k: usize, e: usize) {
        assert!(k >= 1 && k <= self.clients.len(), "K = {k} out of range");
        assert!(e >= 1, "E must be at least 1");
        self.config.clients_per_round = k;
        self.config.local_epochs = e;
    }

    /// Devices that are up at the current round (everyone, without an
    /// injector). Useful for re-planning `(K*, E*)` when the fleet shrinks.
    pub fn live_fleet(&self) -> Vec<usize> {
        match &self.injector {
            Some(inj) => inj.live_fleet(self.clients.len(), self.round),
            None => (0..self.clients.len()).collect(),
        }
    }

    /// Number of edge servers `N`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The current global model.
    pub fn global_model(&self) -> &M {
        &self.global
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> usize {
        self.round
    }

    /// Cumulative transport totals: lossless `F64` downlink broadcasts,
    /// uplink updates under [`FedAvgConfig::transport`], retransmissions
    /// from the fault schedule, and control-plane bytes. The framed
    /// executor measures its frames and the inline one charges the same
    /// lengths, so the totals are equal byte for byte across engines.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport
    }

    /// Loss of the current global model over the union of all client data
    /// (the "global loss value" of Fig. 4).
    pub(crate) fn global_train_loss(&mut self) -> f64 {
        let total: usize = self.clients.iter().map(|c| c.len()).sum();
        let weighted: f64 = self
            .clients
            .iter()
            .map(|c| self.global.loss_with(c, &mut self.eval) * c.len() as f64)
            .sum();
        weighted / total as f64
    }

    /// Test-set evaluation of the current global model: loss and accuracy
    /// from one forward pass per test sample.
    pub fn evaluate(&mut self) -> Evaluation {
        self.global.evaluate_with(&self.test, &mut self.eval)
    }

    /// Executes one global round (§III-A steps 2–4) and returns its record.
    ///
    /// With dropout enabled, each selected server independently fails to
    /// respond with the configured probability; the coordinator aggregates
    /// whoever answered. A fully dropped round leaves the model unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the round fails outright (see
    /// [`RoundDriver::try_run_round`]); impossible without a fault injector.
    pub fn run_round(&mut self) -> RoundRecord {
        // fei-lint: allow(no-panic, reason = "documented panicking convenience wrapper; fallible callers use try_run_round")
        self.try_run_round().expect("federated round failed")
    }

    /// Executes one global round — plan, execute, finish — reporting fleet
    /// exhaustion as a typed error instead of panicking.
    ///
    /// Without a fault injector this never fails. With one, the round plays
    /// out under the injected fault schedule and the coordinator's
    /// [`ToleranceConfig`]: `K + m` servers are selected, crashed servers
    /// and abandoned uploads drop out, late arrivals miss the deadline, the
    /// first `K` surviving arrivals are aggregated if they meet the quorum,
    /// and a quorum miss leaves the model unchanged
    /// ([`RoundOutcome::Abandoned`]). A worker the executor loses mid-round
    /// is one more dropout ([`RoundFaultStats::worker_losses`]).
    ///
    /// # Errors
    ///
    /// [`FlError::FleetBelowQuorum`] when fewer devices are up than the
    /// quorum requires — no round can commit until restarts (if any)
    /// replenish the fleet, so the caller should re-plan or abort. The
    /// round counter is not advanced.
    ///
    /// [`FlError::Aggregate`] when the delivered updates could not be
    /// combined (undefined weights, or malformed input that survived
    /// screening). The global model is unchanged.
    pub fn try_run_round(&mut self) -> Result<RoundRecord, FlError> {
        let t = self.round;
        let (selected, planned, mut faults) = self.plan(t)?;
        let jobs: Vec<(usize, bool)> = planned
            .into_iter()
            .map(|client| {
                let flip = self
                    .adversary
                    .as_ref()
                    .is_some_and(|adv| adv.flips_labels(client));
                (client, flip)
            })
            .collect();
        let (updates, lost) = self
            .exec
            .execute(t, self.config.local_epochs, &self.global, &jobs);
        faults.worker_losses = lost;
        self.finish(t, selected, updates, faults)
    }

    /// Decides the round coordinator-side: who is selected, and which of
    /// them will deliver an update (before any executor-level worker loss).
    fn plan(&mut self, t: usize) -> Result<(Vec<usize>, Vec<usize>, RoundFaultStats), FlError> {
        let mut faults = RoundFaultStats::default();
        let Some(injector) = self.injector.as_ref().filter(|i| i.is_enabled()) else {
            let selected = self.selector.select(t, self.config.clients_per_round);
            let dropout = self.config.dropout_prob;
            let planned = selected
                .iter()
                .copied()
                // fei-lint: allow(float-eq, reason = "configuration sentinel: exactly-zero dropout must not consume RNG draws, or seeds diverge")
                .filter(|_| dropout == 0.0 || self.dropout_rng.next_f64() >= dropout)
                .collect();
            return Ok((selected, planned, faults));
        };
        let tol = &self.config.tolerance;
        let n = self.clients.len();

        // The protocol's round decision core: quorum gate, over-selection
        // width, deadline admission, and the first-K-by-arrival race all
        // live in fei-proto, shared with the frame-driven coordinator.
        let policy = RoundPolicy {
            k: self.config.clients_per_round,
            over_select: tol.over_select,
            quorum: tol.effective_quorum(),
            deadline_s: tol.deadline_s,
        };
        let alive = injector.live_fleet(n, t).len();
        // `RoundMachine::begin` fails only on quorum loss.
        let mut machine = RoundMachine::begin(policy, t as u64, alive).map_err(|_| {
            FlError::FleetBelowQuorum {
                round: t,
                alive,
                required: policy.quorum,
            }
        })?;

        // Over-select K + m as a dropout hedge.
        let selected = self.selector.select(t, machine.selection_width(n));
        for &device in &selected {
            if injector.is_down(device, t) {
                machine.offer_crashed(device);
                continue;
            }
            let factor = injector.straggle_factor(device, t);
            let upload = injector.upload_outcome(device, t, &tol.retry);
            faults.corrupted_frames += upload.corrupted;
            faults.upload_retries += upload.attempts - 1;
            machine.offer(
                device,
                DeviceReport {
                    straggle_factor: factor,
                    delivered: upload.delivered,
                    arrival_s: tol.nominal_round_s * factor + upload.backoff_s,
                },
            );
        }

        let closed = machine.close();
        faults.crashed = closed.tally.crashed;
        faults.stragglers = closed.tally.stragglers;
        faults.abandoned_uploads = closed.tally.abandoned_uploads;
        faults.deadline_misses = closed.tally.deadline_misses;
        Ok((selected, closed.accepted, faults))
    }

    /// Takes the executor's updates through the coordinator's side of the
    /// round: compromised clients attack, bytes are billed, the screen and
    /// quorum decide, the survivors are aggregated, the round advances, and
    /// the record is assembled.
    fn finish(
        &mut self,
        t: usize,
        selected: Vec<usize>,
        updates: Vec<ClientUpdate>,
        mut faults: RoundFaultStats,
    ) -> Result<RoundRecord, FlError> {
        let injector = self.injector.as_ref().filter(|i| i.is_enabled());
        let mut responded = Vec::with_capacity(updates.len());
        let mut local_stats = Vec::with_capacity(updates.len());
        let mut pairs = Vec::with_capacity(updates.len());
        for mut update in updates {
            // Parameter attacks act on the decoded update, so the poisoned
            // values do not depend on how the executor moved it.
            if let Some(adversary) = &self.adversary {
                adversary.poison(update.client, t, self.global.to_flat(), &mut update.params);
            }
            self.transport.bytes_down += update.bytes_down;
            self.transport.bytes_up += update.bytes_up;
            self.transport.jobs += 1;
            // Uplink retransmissions decided by the fault schedule: each
            // failed attempt resent the whole update frame.
            if let Some(injector) = injector {
                let retry = &self.config.tolerance.retry;
                let attempts = injector.upload_outcome(update.client, t, retry).attempts;
                self.transport.bytes_retransmitted += (attempts as u64 - 1) * update.bytes_up;
            }
            responded.push(update.client);
            local_stats.push(update.stats);
            pairs.push((update.params, update.samples));
        }

        // The coordinator's screening boundary: malformed or outlying
        // uploads are discarded before they can reach aggregation, and a
        // screened-out update counts as undelivered for quorum purposes.
        if let Some(defense) = &self.config.defense {
            let report =
                UpdateScreen::new(defense.screen).screen(&mut pairs, self.global.num_params());
            faults.screened_updates = report.rejected_count();
            faults.clipped_updates = report.clipped;
        }
        let quorum = self.config.tolerance.effective_quorum();
        let outcome = RoundOutcome::of(pairs.len(), selected.len(), quorum);

        // Control-plane traffic of the protocol round: a selection notice
        // down to every selected device, one heartbeat up from each device
        // that was up, and the commit-or-abort verdict back down.
        self.transport.bytes_control += control_round_bytes(
            selected.len(),
            selected.len() - faults.crashed,
            outcome.committed(),
            responded.len(),
        );

        if outcome.committed() && !pairs.is_empty() {
            let merged = match &self.config.defense {
                Some(defense) => robust_aggregate(&pairs, defense.rule),
                None => try_aggregate(&pairs, self.config.aggregation),
            }
            .map_err(|source| FlError::Aggregate { round: t, source })?;
            self.global.set_flat(&merged);
        }
        self.round += 1;

        let evaluated = self.round.is_multiple_of(self.config.eval_every);
        Ok(RoundRecord {
            round: t,
            selected,
            responded,
            local_stats,
            global_train_loss: evaluated.then(|| self.global_train_loss()),
            test_eval: evaluated.then(|| self.evaluate()),
            outcome,
            faults,
        })
    }

    /// Captures the engine's resumable state: round counter, global model,
    /// RNG streams, transport totals, and the current `(K, E)`. A driver
    /// recovering from a coordinator crash rebuilds the engine from its
    /// construction inputs and [`RoundDriver::restore`]s this checkpoint;
    /// future rounds are then bit-identical to the uncrashed run. The
    /// checkpoint does not depend on the executor — either engine restores
    /// from it.
    pub fn checkpoint(&self) -> EngineCheckpoint<M> {
        EngineCheckpoint {
            round: self.round,
            global: self.global.clone(),
            selector: self.selector.clone(),
            dropout_rng: self.dropout_rng.clone(),
            transport: self.transport,
            clients_per_round: self.config.clients_per_round,
            local_epochs: self.config.local_epochs,
        }
    }

    /// Rewinds the engine to a checkpoint taken from either engine over the
    /// same fleet and configuration. Only coordinator-side state rewinds,
    /// which is all a round depends on (executors are stateless between
    /// rounds).
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed model's shape does not match this
    /// engine's datasets, or its `K` exceeds the fleet.
    pub fn restore(&mut self, checkpoint: EngineCheckpoint<M>) {
        assert_eq!(
            checkpoint.global.dim(),
            self.clients[0].dim(),
            "checkpoint model dimension mismatch"
        );
        assert_eq!(
            checkpoint.global.num_classes(),
            self.clients[0].num_classes(),
            "checkpoint model class mismatch"
        );
        assert!(
            checkpoint.clients_per_round >= 1 && checkpoint.clients_per_round <= self.clients.len(),
            "checkpoint K = {} out of range for N = {}",
            checkpoint.clients_per_round,
            self.clients.len()
        );
        assert!(
            checkpoint.local_epochs >= 1,
            "checkpoint E must be at least 1"
        );
        self.round = checkpoint.round;
        self.global = checkpoint.global;
        self.selector = checkpoint.selector;
        self.dropout_rng = checkpoint.dropout_rng;
        self.transport = checkpoint.transport;
        self.config.clients_per_round = checkpoint.clients_per_round;
        self.config.local_epochs = checkpoint.local_epochs;
    }

    /// Runs rounds until `stop` is satisfied, returning the full history.
    ///
    /// # Panics
    ///
    /// Panics if a round fails outright (see
    /// [`RoundDriver::try_run_until`]); impossible without a fault injector.
    pub fn run_until(&mut self, stop: StopCondition) -> TrainingHistory {
        // fei-lint: allow(no-panic, reason = "documented panicking convenience wrapper; fallible callers use try_run_until")
        self.try_run_until(stop).expect("federated round failed")
    }

    /// Runs rounds until `stop` is satisfied. An unreachable accuracy
    /// target terminates at `max_rounds` and is recorded on the history
    /// ([`TrainingHistory::missed_target`]) rather than looping forever.
    ///
    /// # Errors
    ///
    /// Propagates [`FlError::FleetBelowQuorum`] from a failed round; the
    /// rounds completed up to that point are lost, matching the semantics
    /// of an aborted run.
    pub fn try_run_until(&mut self, stop: StopCondition) -> Result<TrainingHistory, FlError> {
        let mut history = TrainingHistory::new();
        let mut reached = false;
        for _ in 0..stop.max_rounds {
            let record = self.try_run_round()?;
            reached = match (stop.target_accuracy, &record.test_eval) {
                (Some(target), Some(eval)) => eval.accuracy >= target,
                _ => false,
            };
            history.push(record);
            if reached {
                break;
            }
        }
        if let (Some(target), false) = (stop.target_accuracy, reached) {
            history.record_missed_target(target);
        }
        Ok(history)
    }
}

impl<M: Model> RoundDriver<M, Inline> {
    /// Heap-allocation events of the inline executor's reused gradient
    /// workspace. Stops increasing after the first round in steady state —
    /// the property the perf harness (`fei-bench --bin perf`) records in
    /// `BENCH_perf.json`.
    pub fn scratch_allocations(&self) -> u64 {
        self.exec.scratch.allocations()
    }

    /// Heap-allocation events of the inline executor's wire-codec
    /// workspace. Like [`FedAvg::scratch_allocations`], constant after the
    /// first round in steady state — the zero-allocation property
    /// `BENCH_compression.json` records for the transport hot path.
    pub fn wire_allocations(&self) -> u64 {
        self.exec.wire.allocations()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use fei_data::{Partition, SyntheticMnist, SyntheticMnistConfig};
    use fei_sim::DetRng;

    use super::*;
    use crate::runtime::Framed;

    pub(crate) fn setup(n_clients: usize, samples: usize) -> (Vec<Dataset>, Dataset) {
        let gen = SyntheticMnist::new(SyntheticMnistConfig {
            pixel_noise_std: 0.2,
            label_flip_prob: 0.0,
            ..Default::default()
        });
        let train = gen.generate(samples, 0);
        let test = gen.generate(samples / 4, 1);
        let parts = Partition::iid(train.len(), n_clients, &mut DetRng::new(7)).apply(&train);
        (parts, test)
    }

    #[test]
    fn round_selects_k_and_records_stats() {
        let (clients, test) = setup(5, 100);
        let config = FedAvgConfig {
            clients_per_round: 3,
            local_epochs: 2,
            ..Default::default()
        };
        let mut fed = FedAvg::new(config, clients, test);
        let rec = fed.run_round();
        assert_eq!(rec.round, 0);
        assert_eq!(rec.selected.len(), 3);
        assert_eq!(rec.responded, rec.selected);
        assert_eq!(rec.local_stats.len(), 3);
        assert!(rec.local_stats.iter().all(|s| s.epochs_run == 2));
        assert!(rec.test_eval.is_some());
        assert_eq!(fed.rounds_completed(), 1);
    }

    #[test]
    fn training_improves_loss_and_accuracy() {
        let (clients, test) = setup(4, 400);
        let config = FedAvgConfig {
            clients_per_round: 4,
            local_epochs: 5,
            sgd: SgdConfig::new(0.3, 1.0, None),
            ..Default::default()
        };
        let mut fed = FedAvg::new(config, clients, test);
        let initial_loss = fed.global_train_loss();
        let initial_acc = fed.evaluate().accuracy;
        let history = fed.run_until(StopCondition::rounds(15));
        assert_eq!(history.len(), 15);
        let final_rec = history.last().unwrap();
        assert!(final_rec.global_train_loss.unwrap() < initial_loss * 0.7);
        assert!(final_rec.test_eval.unwrap().accuracy > initial_acc);
    }

    #[test]
    fn an_evaluated_round_forwards_every_sample_once_without_allocating() {
        // 5 clients x 60 samples, 75 test samples, K = 2, E = 3, evaluated
        // every second round.
        let (clients, test) = setup(5, 300);
        let (n_train, n_test) = (300u64, test.len() as u64);
        let per_client = clients[0].len() as u64;
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 3,
            eval_every: 2,
            ..Default::default()
        };

        fn check<X: Executor>(fed: &mut RoundDriver<LogisticRegression, X>, per_round: u64) {
            fed.run_until(StopCondition::rounds(2));
            let warm = fed.eval.allocations();
            assert_eq!(fed.eval.forward_passes(), per_round);
            let history = fed.run_until(StopCondition::rounds(6));
            assert_eq!(history.accuracy_curve().len(), 3);
            assert_eq!(fed.eval.forward_passes(), 4 * per_round);
            assert_eq!(fed.eval.allocations(), warm);
        }
        let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
        check(&mut serial, n_train + n_test);
        let mut threaded = RoundDriver::<_, Framed>::new(config, clients, test);
        check(&mut threaded, n_train + n_test);

        // Device side of the same rounds: each of the K jobs forwards its
        // n_k samples E times, once per gradient step; the initial loss
        // rides on the first step.
        assert_eq!(serial.exec.scratch.forward_passes(), 8 * 2 * 3 * per_client);
    }

    #[test]
    fn k_equals_n_with_e1_matches_centralized_gradient_direction() {
        // With K = N, E = 1, uniform aggregation on an exactly even split,
        // FedAvg's first round equals one full-batch gradient step on the
        // union (the mini-batch-SGD equivalence the paper cites).
        let (clients, test) = setup(4, 400);
        let union: Dataset = {
            let mut u = Dataset::empty(clients[0].dim(), clients[0].num_classes());
            for c in &clients {
                for (x, y) in c.iter() {
                    u.push(x, y);
                }
            }
            u
        };
        let config = FedAvgConfig {
            clients_per_round: 4,
            local_epochs: 1,
            sgd: SgdConfig::new(0.01, 1.0, None),
            ..Default::default()
        };
        let mut fed = FedAvg::new(config, clients, test);
        fed.run_round();

        let mut central = LogisticRegression::zeros(union.dim(), union.num_classes());
        let all: Vec<usize> = (0..union.len()).collect();
        let (_, grad) = central.loss_and_gradient(&union, &all);
        central.apply_gradient(&grad, 0.01);

        let dist = fed.global_model().param_distance_sq(&central);
        assert!(dist < 1e-12, "distance {dist}");
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let (clients, test) = setup(6, 120);
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let mut a = FedAvg::new(config.clone(), clients.clone(), test.clone());
        let mut b = FedAvg::new(config, clients, test);
        let ha = a.run_until(StopCondition::rounds(5));
        let hb = b.run_until(StopCondition::rounds(5));
        assert_eq!(ha.records(), hb.records());
        assert_eq!(a.global_model(), b.global_model());
    }

    #[test]
    fn early_stop_on_target_accuracy() {
        let (clients, test) = setup(4, 400);
        let config = FedAvgConfig {
            clients_per_round: 4,
            local_epochs: 5,
            sgd: SgdConfig::new(0.3, 1.0, None),
            ..Default::default()
        };
        let mut fed = FedAvg::new(config, clients, test);
        let history = fed.run_until(StopCondition::accuracy(0.5, 500));
        assert!(history.len() < 500, "should stop before the cap");
        assert!(history.last().unwrap().test_eval.unwrap().accuracy >= 0.5);
    }

    #[test]
    fn dropout_shrinks_responders_but_training_continues() {
        let (clients, test) = setup(6, 180);
        let config = FedAvgConfig {
            clients_per_round: 6,
            local_epochs: 1,
            dropout_prob: 0.4,
            ..Default::default()
        };
        let mut fed = FedAvg::new(config, clients, test);
        let mut dropped_any = false;
        let initial_loss = fed.global_train_loss();
        for _ in 0..10 {
            let rec = fed.run_round();
            assert!(rec.responded.iter().all(|c| rec.selected.contains(c)));
            assert_eq!(rec.responded.len(), rec.local_stats.len());
            dropped_any |= rec.responded.len() < rec.selected.len();
        }
        assert!(dropped_any, "40% dropout over 60 draws must drop someone");
        assert!(
            fed.global_train_loss() < initial_loss,
            "training still progresses"
        );
    }

    #[test]
    fn zero_dropout_is_the_default_and_identical() {
        let (clients, test) = setup(4, 80);
        let base = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let explicit = FedAvgConfig {
            dropout_prob: 0.0,
            ..base.clone()
        };
        let mut a = FedAvg::new(base, clients.clone(), test.clone());
        let mut b = FedAvg::new(explicit, clients, test);
        for _ in 0..3 {
            assert_eq!(a.run_round(), b.run_round());
        }
    }

    #[test]
    fn defended_run_with_no_attacker_matches_undefended_bit_for_bit() {
        use crate::robust::{DefenseConfig, RobustRule};
        let (clients, test) = setup(6, 180);
        let base = FedAvgConfig {
            clients_per_round: 4,
            local_epochs: 2,
            ..Default::default()
        };
        for rule in [
            RobustRule::CoordinateMedian {
                assumed_byzantine: 0,
            },
            RobustRule::TrimmedMean {
                assumed_byzantine: 0,
            },
            RobustRule::Krum {
                assumed_byzantine: 0,
            },
            RobustRule::MultiKrum {
                assumed_byzantine: 0,
            },
        ] {
            let defended = FedAvgConfig {
                defense: Some(DefenseConfig::with_rule(rule)),
                ..base.clone()
            };
            let mut plain = FedAvg::new(base.clone(), clients.clone(), test.clone());
            let mut robust = FedAvg::new(defended, clients.clone(), test.clone());
            for _ in 0..4 {
                assert_eq!(plain.run_round(), robust.run_round(), "{}", rule.name());
            }
            assert_eq!(plain.global_model(), robust.global_model());
        }
    }

    #[test]
    fn boosted_updates_are_screened_out() {
        use crate::adversary::{AdversarySpec, AttackBehavior};
        use crate::robust::{DefenseConfig, RobustRule};
        let (clients, test) = setup(10, 300);
        let config = FedAvgConfig {
            clients_per_round: 10,
            local_epochs: 1,
            defense: Some(DefenseConfig::with_rule(RobustRule::CoordinateMedian {
                assumed_byzantine: 2,
            })),
            ..Default::default()
        };
        let spec = AdversarySpec {
            fraction: 0.2,
            behavior: AttackBehavior::ScaledUpdate { boost: 100.0 },
            seed: 0xAD50,
        };
        let mut fed = FedAvg::new(config, clients, test).with_adversary(spec);
        // Round 0 trains from ω₀ = 0, so every norm is small and similar;
        // give training a round to differentiate honest from boosted norms.
        fed.run_round();
        let rec = fed.run_round();
        assert_eq!(rec.faults.screened_updates, 2, "{:?}", rec.faults);
        assert_eq!(rec.outcome, RoundOutcome::Partial);
    }

    #[test]
    fn median_defense_resists_sign_flip_where_mean_does_not() {
        use crate::adversary::AdversarySpec;
        use crate::robust::{DefenseConfig, RobustRule, ScreenPolicy};
        let (clients, test) = setup(10, 400);
        let undefended = FedAvgConfig {
            clients_per_round: 10,
            local_epochs: 3,
            sgd: SgdConfig::new(0.3, 1.0, None),
            ..Default::default()
        };
        let defended = FedAvgConfig {
            defense: Some(DefenseConfig {
                screen: ScreenPolicy::structural_only(),
                rule: RobustRule::CoordinateMedian {
                    assumed_byzantine: 3,
                },
            }),
            ..undefended.clone()
        };
        let spec = AdversarySpec::sign_flip(0.3);
        let mut plain = FedAvg::new(undefended, clients.clone(), test.clone()).with_adversary(spec);
        let mut robust = FedAvg::new(defended, clients, test).with_adversary(spec);
        let ha = plain.run_until(StopCondition::rounds(12));
        let hb = robust.run_until(StopCondition::rounds(12));
        let acc_plain = ha.last().unwrap().test_eval.unwrap().accuracy;
        let acc_robust = hb.last().unwrap().test_eval.unwrap().accuracy;
        assert!(
            acc_robust > acc_plain + 0.1,
            "median {acc_robust} vs mean {acc_plain}"
        );
    }

    #[test]
    fn label_flip_cohort_trains_on_flipped_data_and_reports_it() {
        use crate::adversary::{AdversarySpec, AttackBehavior};
        let (clients, test) = setup(5, 100);
        let config = FedAvgConfig {
            clients_per_round: 5,
            local_epochs: 1,
            ..Default::default()
        };
        let spec = AdversarySpec {
            fraction: 0.4,
            behavior: AttackBehavior::LabelFlip,
            seed: 3,
        };
        let mut fed = FedAvg::new(config, clients, test).with_adversary(spec);
        // K = N: every compromised device trains, building its flipped copy.
        fed.run_round();
        let adv = fed.adversary().expect("adversary attached");
        let malicious: Vec<usize> = (0..fed.clients.len())
            .filter(|&d| adv.is_malicious(d))
            .collect();
        assert_eq!(malicious.len(), 2);
        for device in malicious {
            let flipped = fed.exec.flipped[device].as_ref().expect("flipped dataset");
            let orig = &fed.clients[device];
            assert_eq!(flipped.len(), orig.len());
            let classes = orig.num_classes();
            for ((_, yf), (_, yo)) in flipped.iter().zip(orig.iter()) {
                assert_eq!(yf, classes - 1 - yo);
            }
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let (clients, test) = setup(6, 120);
        let config = FedAvgConfig {
            clients_per_round: 3,
            local_epochs: 2,
            dropout_prob: 0.3,
            ..Default::default()
        };
        let mut straight = FedAvg::new(config.clone(), clients.clone(), test.clone());
        let mut crashed = FedAvg::new(config.clone(), clients.clone(), test.clone());
        for _ in 0..3 {
            straight.run_round();
            crashed.run_round();
        }
        // "Crash": the driver loses the engine, keeps only the checkpoint,
        // and rebuilds from construction inputs.
        let ckpt = crashed.checkpoint();
        assert_eq!(ckpt.round(), 3);
        let mut rebuilt = FedAvg::new(config, clients, test);
        rebuilt.restore(ckpt);
        for _ in 0..3 {
            assert_eq!(straight.run_round(), rebuilt.run_round());
        }
        assert_eq!(straight.global_model(), rebuilt.global_model());
        assert_eq!(straight.transport_stats(), rebuilt.transport_stats());
    }

    /// Driver behaviour does not depend on where training runs: every test
    /// in the block is instantiated once per executor, as
    /// `inline::<name>` and `framed::<name>`, with `$x` bound to it.
    macro_rules! on_both_executors {
        ($($(#[$attr:meta])* fn $name:ident<$x:ident>() $body:block)*) => {
            mod inline {
                use super::*;
                $(#[test] $(#[$attr])* fn $name() { type $x = Inline; $body })*
            }
            mod framed {
                use super::*;
                $(#[test] $(#[$attr])* fn $name() { type $x = Framed; $body })*
            }
        };
    }

    on_both_executors! {
        fn eval_every_skips_evaluations<X>() {
            let (clients, test) = setup(3, 60);
            let config = FedAvgConfig {
                clients_per_round: 1,
                local_epochs: 1,
                eval_every: 3,
                ..Default::default()
            };
            let mut fed = RoundDriver::<_, X>::new(config, clients, test);
            let history = fed.run_until(StopCondition::rounds(6));
            let evaluated: Vec<bool> = history
                .records()
                .iter()
                .map(|r| r.test_eval.is_some())
                .collect();
            assert_eq!(evaluated, vec![false, false, true, false, false, true]);
        }

        fn fully_dropped_round_is_a_no_op<X>() {
            let (clients, test) = setup(2, 40);
            let config = FedAvgConfig {
                clients_per_round: 1,
                local_epochs: 1,
                dropout_prob: 0.999_999,
                ..Default::default()
            };
            let mut fed = RoundDriver::<_, X>::new(config, clients, test);
            let before = fed.global_model().clone();
            let rec = fed.run_round();
            assert!(rec.responded.is_empty());
            assert_eq!(fed.global_model(), &before);
            assert_eq!(fed.rounds_completed(), 1);
        }

        fn checkpoint_carries_replanned_participation<X>() {
            let (clients, test) = setup(6, 120);
            let config = FedAvgConfig {
                clients_per_round: 4,
                local_epochs: 3,
                ..Default::default()
            };
            let mut fed = RoundDriver::<_, X>::new(config.clone(), clients.clone(), test.clone());
            fed.run_round();
            fed.set_participation(2, 5);
            let ckpt = fed.checkpoint();
            let mut rebuilt = RoundDriver::<_, X>::new(config, clients, test);
            rebuilt.restore(ckpt);
            assert_eq!(rebuilt.config.clients_per_round, 2);
            assert_eq!(rebuilt.config.local_epochs, 5);
            assert_eq!(fed.run_round(), rebuilt.run_round());
        }

        #[should_panic(expected = "out of range")]
        fn restore_rejects_oversized_k<X>() {
            let (clients, test) = setup(4, 80);
            let config = FedAvgConfig {
                clients_per_round: 4,
                ..Default::default()
            };
            let ckpt = RoundDriver::<_, X>::new(config, clients.clone(), test.clone()).checkpoint();
            let (small_clients, small_test) = setup(2, 40);
            let shrunk = FedAvgConfig {
                clients_per_round: 2,
                ..Default::default()
            };
            let mut fed = RoundDriver::<_, X>::new(shrunk, small_clients, small_test);
            fed.restore(ckpt);
        }

        #[should_panic(expected = "dropout probability")]
        fn rejects_certain_dropout<X>() {
            let (clients, test) = setup(2, 40);
            let config = FedAvgConfig {
                dropout_prob: 1.0,
                ..Default::default()
            };
            let _ = RoundDriver::<_, X>::new(config, clients, test);
        }

        #[should_panic(expected = "exceeds N")]
        fn rejects_k_above_n<X>() {
            let (clients, test) = setup(2, 40);
            let config = FedAvgConfig {
                clients_per_round: 3,
                ..Default::default()
            };
            let _ = RoundDriver::<_, X>::new(config, clients, test);
        }

        #[should_panic(expected = "E must be")]
        fn rejects_zero_epochs<X>() {
            let (clients, test) = setup(2, 40);
            let config = FedAvgConfig {
                local_epochs: 0,
                ..Default::default()
            };
            let _ = RoundDriver::<_, X>::new(config, clients, test);
        }

        #[should_panic(expected = "test set dimension mismatch")]
        fn rejects_mismatched_test_set<X>() {
            let (clients, _) = setup(2, 40);
            let test = Dataset::from_parts(3, vec![0.0; 6], vec![0, 1], 10);
            let _ = RoundDriver::<_, X>::new(FedAvgConfig::default(), clients, test);
        }
    }
}
