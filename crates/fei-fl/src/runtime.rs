//! The framed executor: a pool of worker threads, one per core, serving
//! every edge server over the full communication path of a deployment. The
//! coordinator serializes the global model into a byte frame (`fei-net`
//! codec) and queues one job per planned server; each job ships its trained
//! model back the same way. Everything else about a round is
//! [`crate::RoundDriver`]'s, shared with the in-process engine — so the
//! results are bit-identical to [`crate::FedAvg`], as the tests pin down.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use fei_data::Dataset;
use fei_ml::{GradScratch, LocalTrainer, LogisticRegression, Model, SgdConfig, TrainStats};
use fei_net::codec::{decode_frame, encode_frame_into, encode_frame_with, FRAME_OVERHEAD};
use fei_net::wire::{WireConfig, WireScratch};

use crate::adversary::flip_dataset_labels;
use crate::executor::{ClientUpdate, Executor};
use crate::fedavg::{FedAvgConfig, RoundDriver};

/// Wall-clock safety net for a wedged job (a panicking one reports at once):
/// the round proceeds without it instead of hanging.
const DEFAULT_WORKER_TIMEOUT: Duration = Duration::from_secs(30);

/// Frame tag for coordinator → worker global-model dispatch.
const MSG_GLOBAL: u8 = 1;
/// Frame tag for worker → coordinator model upload.
const MSG_UPDATE: u8 = 2;

/// Meta bytes in a global-model frame payload: round and epochs.
const GLOBAL_META: usize = 4 + 4;
/// Meta bytes in an update frame payload: round (`u32` BE), client (`u32`
/// BE), samples (`u64` BE) and the initial local loss (`f64` LE).
const UPDATE_META: usize = 4 + 4 + 8 + 8;

/// Exact length of a coordinator → worker global-model frame for an
/// `n`-parameter model. The downlink broadcast is always lossless `F64`, so
/// every worker holds a bit-exact copy of the global model — the shared base
/// that makes delta uploads decodable and keeps both engines bit-identical.
pub(crate) fn global_frame_len(n: usize) -> usize {
    FRAME_OVERHEAD + GLOBAL_META + WireConfig::lossless().payload_len(n)
}

/// Exact length of a worker → coordinator update frame for an `n`-parameter
/// model under `transport`. The inline executor reports these same lengths
/// for the frames it does not build, byte for byte.
pub(crate) fn update_frame_len(transport: WireConfig, n: usize) -> usize {
    FRAME_OVERHEAD + UPDATE_META + transport.payload_len(n)
}

/// Bytes moved over the wire in both directions, summed over every job.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes of global-model frames received by workers.
    pub bytes_down: u64,
    /// Bytes of update frames sent by workers.
    pub bytes_up: u64,
    /// Bytes retransmitted on the uplink: every lost or corrupted upload
    /// attempt resends the full update frame.
    pub bytes_retransmitted: u64,
    /// Control-plane bytes (selection notices, heartbeats, round verdicts)
    /// of the coordinator protocol, both directions. Model payloads ride
    /// the data-plane frames counted above.
    pub bytes_control: u64,
    /// Number of local-training jobs executed.
    pub jobs: u64,
}

/// One edge server: every worker serving it shares its dataset and the
/// label-flipped copy, built on first use.
struct Server {
    data: Arc<Dataset>,
    flipped: OnceLock<Dataset>,
    /// Chaos hook: every job of this server panics inside its worker.
    poisoned: AtomicBool,
    /// A job of this server panicked: it is lost for the rest of the run.
    dead: AtomicBool,
}

/// One server's round: the server, the round's shared broadcast frame (round,
/// `E`, global model), and whether it trains on its label-flipped copy.
type Job = (usize, Arc<[u8]>, bool);

/// A job's reply: the update frame, or the server whose job panicked.
type Reply = Result<Vec<u8>, usize>;

/// Takes the next job off the shared queue, or `None` once it is closed and
/// drained. The lock is held only while waiting, never while a job runs, and
/// `recv` cannot leave the queue half-updated, so a poisoned lock is reused.
fn next_job(jobs: &Mutex<Receiver<Job>>) -> Option<Job> {
    let queue = jobs.lock().unwrap_or_else(PoisonError::into_inner);
    queue.recv().ok()
}

/// An update frame's fields: borrowed to encode, owned once decoded.
struct Update<P> {
    round: u32,
    client: usize,
    samples: usize,
    params: P,
    initial_loss: f64,
}

fn encode_global(round: u32, epochs: u32, params: &[f64], wire: &mut WireScratch) -> Arc<[u8]> {
    let mut frame = Vec::with_capacity(global_frame_len(params.len()));
    encode_frame_with(MSG_GLOBAL, &mut frame, |payload| {
        payload.extend_from_slice(&round.to_be_bytes());
        payload.extend_from_slice(&epochs.to_be_bytes());
        wire.encode_into(WireConfig::lossless(), params, None, payload);
    });
    frame.into()
}

/// Splits the next `N` bytes off the front of an in-process frame's
/// payload, for its fixed-width header fields.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (field, rest) = buf
        .split_first_chunk::<N>()
        .expect("invariant: in-process frames carry their whole header");
    *buf = rest;
    *field
}

/// Decodes a global-model frame into a reused parameter buffer, allocation-free
/// once the buffer reaches model size.
fn decode_global_into(frame: &[u8], params: &mut Vec<f64>, wire: &mut WireScratch) -> (u32, u32) {
    let (frame, _) = decode_frame(frame)
        .expect("invariant: coordinator frames are encoded in-process and cannot be malformed");
    assert_eq!(frame.msg_type, MSG_GLOBAL, "expected a global-model frame");
    let mut buf = &frame.payload[..];
    let round = u32::from_be_bytes(take(&mut buf));
    let epochs = u32::from_be_bytes(take(&mut buf));
    let config = wire
        .decode_into(buf, None, params)
        .expect("invariant: coordinator payloads are encoded in-process and cannot be malformed");
    debug_assert!(config.is_lossless(), "the downlink broadcast is lossless");
    (round, epochs)
}

/// Encodes an update frame under the run's transport tier; with a delta tier
/// `base` is the worker's bit-exact copy of this round's global model. The
/// parameters are borrowed and the payload staged in `payload_buf`, so once
/// warm only the returned frame (the channel takes it) is allocated.
fn encode_update<P: AsRef<[f64]>>(
    update: &Update<P>,
    transport: WireConfig,
    base: &[f64],
    wire: &mut WireScratch,
    payload_buf: &mut Vec<u8>,
) -> Vec<u8> {
    payload_buf.clear();
    payload_buf.extend_from_slice(&update.round.to_be_bytes());
    payload_buf.extend_from_slice(&(update.client as u32).to_be_bytes());
    payload_buf.extend_from_slice(&(update.samples as u64).to_be_bytes());
    payload_buf.extend_from_slice(&update.initial_loss.to_le_bytes());
    wire.encode_into(transport, update.params.as_ref(), Some(base), payload_buf);
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload_buf.len());
    encode_frame_into(MSG_UPDATE, payload_buf, &mut frame);
    frame
}

/// Decodes an update frame against `base`, the coordinator's global model
/// (not yet aggregated this round) that every worker encoded deltas against.
fn decode_update(frame: &[u8], base: &[f64], wire: &mut WireScratch) -> Update<Vec<f64>> {
    let (frame, _) = decode_frame(frame).expect(
        "invariant: worker frames survived the codec checksum before reaching the coordinator",
    );
    assert_eq!(frame.msg_type, MSG_UPDATE, "expected an update frame");
    let mut buf = &frame.payload[..];
    let mut update = Update {
        round: u32::from_be_bytes(take(&mut buf)),
        client: u32::from_be_bytes(take(&mut buf)) as usize,
        samples: u64::from_be_bytes(take(&mut buf)) as usize,
        initial_loss: f64::from_le_bytes(take(&mut buf)),
        params: Vec::new(),
    };
    wire.decode_into(buf, Some(base), &mut update.params)
        .expect("invariant: worker payloads are encoded in-process against the shared base");
    update
}

/// The pooled executor: `min(cores, servers)` worker threads pull jobs from
/// one shared queue, and models cross to them and back as `fei-net` byte
/// frames. A server whose job panics is lost; its worker serves on.
pub struct Framed {
    jobs: Sender<Job>,
    replies: Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
    servers: Arc<[Server]>,
    /// Encodes the broadcast and decodes every update, allocation-free warm.
    wire: WireScratch,
    /// Derives each update's gradient steps from its sample count.
    sgd: SgdConfig,
    worker_timeout: Duration,
}

/// FedAvg over the [`Framed`] executor (multinomial logistic regression by
/// default): bit-identical to [`crate::FedAvg`] for equal configuration and
/// seed.
pub type ThreadedFedAvg<M = LogisticRegression> = RoundDriver<M, Framed>;

impl<M: Model> RoundDriver<M, Framed> {
    /// Overrides the wall-clock reply timeout used to detect wedged jobs.
    pub fn with_worker_timeout(mut self, timeout: Duration) -> Self {
        self.exec.worker_timeout = timeout;
        self
    }

    /// Chaos hook: `client`'s next job panics inside its worker (a process
    /// crash); that round and every later one count it a dropout at once.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn inject_worker_panic(&self, client: usize) {
        // The job queue orders this store before the job that reads it.
        self.exec.servers[client].poisoned.store(true, Relaxed);
    }
}

impl Framed {
    /// Spawns `workers` threads serving every client dataset.
    pub(crate) fn with_workers<M: Model>(
        config: &FedAvgConfig,
        clients: &[Arc<Dataset>],
        template: &M,
        workers: usize,
    ) -> Self {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (reply_tx, replies) = mpsc::channel::<Reply>();
        let servers: Arc<[Server]> = clients
            .iter()
            .map(|data| Server {
                data: Arc::clone(data),
                flipped: OnceLock::new(),
                poisoned: AtomicBool::new(false),
                dead: AtomicBool::new(false),
            })
            .collect();
        let worker = Worker {
            servers: Arc::clone(&servers),
            trainer: LocalTrainer::new(config.sgd.clone()),
            transport: config.transport,
            model: template.clone(),
            params: Vec::new(),
            scratch: GradScratch::new(),
            wire: WireScratch::new(),
            payload: Vec::new(),
        };
        let handles = (0..workers)
            .map(|_| {
                let (worker, job_rx, reply_tx) =
                    (worker.clone(), Arc::clone(&job_rx), reply_tx.clone());
                #[cfg(test)]
                tests::SPAWNED.with(|spawned| spawned.set(spawned.get() + 1));
                std::thread::spawn(move || worker.run(&job_rx, &reply_tx))
            })
            .collect();
        Self {
            jobs,
            replies,
            handles,
            servers,
            wire: WireScratch::new(),
            sgd: config.sgd.clone(),
            worker_timeout: DEFAULT_WORKER_TIMEOUT,
        }
    }
}

impl Executor for Framed {
    fn start<M: Model>(config: &FedAvgConfig, clients: &[Arc<Dataset>], template: &M) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::with_workers(config, clients, template, cores.min(clients.len()))
    }

    /// Queues the planned jobs and collects the update frames. A server
    /// whose job panics is lost at once; a wedged job is lost after a
    /// wall-clock timeout — the call always returns.
    fn execute<M: Model>(
        &mut self,
        round: usize,
        epochs: usize,
        global: &M,
        planned: &[(usize, bool)],
    ) -> (Vec<ClientUpdate>, usize) {
        let base = global.to_flat();
        let frame = encode_global(round as u32, epochs as u32, base, &mut self.wire);

        let mut lost = 0;
        let mut pending = BTreeSet::new();
        for &(client, flip) in planned {
            // A dead server is a dropout without a job.
            let job = (client, Arc::clone(&frame), flip);
            if !self.servers[client].dead.load(Relaxed) && self.jobs.send(job).is_ok() {
                pending.insert(client);
            } else {
                lost += 1;
            }
        }

        // Collect replies. A panicked or (after the timeout) wedged job is a
        // dropout: the round never hangs and never poisons shared state.
        let mut updates = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            match self.replies.recv_timeout(self.worker_timeout) {
                Ok(Err(client)) => lost += usize::from(pending.remove(&client)),
                Ok(Ok(reply)) => {
                    let update = decode_update(&reply, base, &mut self.wire);
                    // Discard stale frames from rounds that timed out.
                    if update.round == round as u32 && pending.remove(&update.client) {
                        updates.push(ClientUpdate {
                            client: update.client,
                            samples: update.samples,
                            params: update.params,
                            stats: TrainStats {
                                epochs_run: epochs,
                                gradient_steps: self.sgd.gradient_steps(epochs, update.samples),
                                initial_loss: update.initial_loss,
                                samples: update.samples,
                            },
                            bytes_down: frame.len() as u64,
                            bytes_up: reply.len() as u64,
                        });
                    }
                }
                Err(_) => lost += std::mem::take(&mut pending).len(),
            }
        }
        // Restore deterministic order: workers reply in arbitrary order.
        updates.sort_by_key(|u| u.client);
        (updates, lost)
    }
}

impl Drop for Framed {
    fn drop(&mut self) {
        // Closing the queue ends every worker's loop once it is drained.
        drop(std::mem::replace(&mut self.jobs, mpsc::channel().0));
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker thread: what it is given at spawn, and the model, gradient
/// scratch, decode buffer, wire workspace and payload stage it reuses across
/// every server and round it serves, so a warm job allocates only its reply.
#[derive(Clone)]
struct Worker<M> {
    servers: Arc<[Server]>,
    trainer: LocalTrainer,
    transport: WireConfig,
    model: M,
    params: Vec<f64>,
    scratch: GradScratch,
    wire: WireScratch,
    payload: Vec<u8>,
}

impl<M: Model> Worker<M> {
    /// Serves jobs until the queue closes, on a copy of `self` renewed after a panic.
    fn run(self, jobs: &Mutex<Receiver<Job>>, replies: &Sender<Reply>) {
        let mut worker = self.clone();
        while let Some(job) = next_job(jobs) {
            let reply = catch_unwind(AssertUnwindSafe(|| worker.serve(&job))).map_err(|_| {
                // The reply orders this store before the next round's check.
                self.servers[job.0].dead.store(true, Relaxed);
                worker = self.clone();
                job.0
            });
            if replies.send(reply).is_err() {
                break;
            }
        }
    }

    /// Decodes the broadcast, trains the job's server and encodes its update.
    fn serve(&mut self, &(client, ref frame, flip): &Job) -> Vec<u8> {
        let server = &self.servers[client];
        if server.poisoned.load(Relaxed) {
            // fei-lint: allow(no-panic, reason = "fault injection: the panic IS the injected fault the supervisor must survive")
            panic!("injected worker panic (client {client})");
        }
        let (round, epochs) = decode_global_into(frame, &mut self.params, &mut self.wire);
        self.model.set_flat(&self.params);
        let data = if flip {
            server
                .flipped
                .get_or_init(|| flip_dataset_labels(&server.data))
        } else {
            &server.data
        };
        let stats = self.trainer.train_with(
            &mut self.model,
            data,
            epochs as usize,
            round as usize,
            &mut self.scratch,
        );
        let update = Update {
            round,
            client,
            samples: server.data.len(),
            params: self.model.to_flat(),
            initial_loss: stats.initial_loss,
        };
        // `params` still holds this round's decoded global model — the
        // bit-exact delta base shared with the coordinator.
        let (base, wire, payload) = (&self.params, &mut self.wire, &mut self.payload);
        encode_update(&update, self.transport, base, wire, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedavg::tests::setup;
    use crate::fedavg::{FedAvg, StopCondition};

    thread_local! {
        /// Worker threads [`Framed::with_workers`] has spawned from this thread.
        pub(super) static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn decode_global(frame: &[u8]) -> (u32, u32, Vec<f64>) {
        let mut params = Vec::new();
        let mut wire = WireScratch::new();
        let (round, epochs) = decode_global_into(frame, &mut params, &mut wire);
        (round, epochs, params)
    }

    #[test]
    fn threaded_matches_in_process_bit_for_bit() {
        let (clients, test) = setup(5, 150);
        let config = FedAvgConfig {
            clients_per_round: 3,
            local_epochs: 2,
            ..Default::default()
        };
        let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
        let mut threaded = ThreadedFedAvg::new(config, clients, test);
        for _ in 0..4 {
            let a = serial.run_round();
            let b = threaded.run_round();
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.test_eval, b.test_eval);
        }
        assert_eq!(serial.global_model(), threaded.global_model());
    }

    #[test]
    fn threaded_matches_in_process_under_attack_and_defense() {
        use crate::adversary::{AdversarySpec, AttackBehavior};
        use crate::robust::{DefenseConfig, RobustRule};
        let (clients, test) = setup(6, 150);
        for behavior in [
            AttackBehavior::SignFlip,
            AttackBehavior::ScaledUpdate { boost: 20.0 },
            AttackBehavior::GaussianNoise { std_dev: 0.5 },
            AttackBehavior::LabelFlip,
        ] {
            let spec = AdversarySpec {
                fraction: 0.34,
                behavior,
                seed: 11,
            };
            let config = FedAvgConfig {
                clients_per_round: 4,
                local_epochs: 1,
                defense: Some(DefenseConfig::with_rule(RobustRule::TrimmedMean {
                    assumed_byzantine: 1,
                })),
                ..Default::default()
            };
            let mut serial =
                FedAvg::new(config.clone(), clients.clone(), test.clone()).with_adversary(spec);
            let mut threaded =
                ThreadedFedAvg::new(config, clients.clone(), test.clone()).with_adversary(spec);
            for _ in 0..3 {
                let a = serial.run_round();
                let b = threaded.run_round();
                assert_eq!(a.selected, b.selected, "{behavior:?}");
                assert_eq!(a.responded, b.responded, "{behavior:?}");
                assert_eq!(a.outcome, b.outcome, "{behavior:?}");
                assert_eq!(a.faults, b.faults, "{behavior:?}");
                assert_eq!(a.test_eval, b.test_eval, "{behavior:?}");
            }
            assert_eq!(
                serial.global_model(),
                threaded.global_model(),
                "{behavior:?}"
            );
        }
    }

    #[test]
    fn serial_simulated_bytes_match_threaded_measured_bytes() {
        use fei_net::wire::Encoding;
        let (clients, test) = setup(5, 100);
        for encoding in [Encoding::F64, Encoding::F32, Encoding::Q8] {
            for delta in [false, true] {
                let config = FedAvgConfig {
                    clients_per_round: 3,
                    local_epochs: 1,
                    transport: WireConfig { encoding, delta },
                    ..Default::default()
                };
                let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
                let mut threaded = ThreadedFedAvg::new(config, clients.clone(), test.clone());
                for _ in 0..3 {
                    serial.run_round();
                    threaded.run_round();
                }
                assert_eq!(
                    serial.transport_stats(),
                    threaded.transport_stats(),
                    "tier {encoding:?} delta={delta}"
                );
                assert!(serial.transport_stats().bytes_up > 0);
            }
        }
    }

    #[test]
    fn engines_agree_under_every_transport_tier() {
        use fei_net::wire::Encoding;
        let (clients, test) = setup(5, 120);
        for encoding in [Encoding::F64, Encoding::F32, Encoding::Q8] {
            for delta in [false, true] {
                let config = FedAvgConfig {
                    clients_per_round: 3,
                    local_epochs: 2,
                    transport: WireConfig { encoding, delta },
                    ..Default::default()
                };
                let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
                let mut threaded = ThreadedFedAvg::new(config, clients.clone(), test.clone());
                for _ in 0..3 {
                    let a = serial.run_round();
                    let b = threaded.run_round();
                    assert_eq!(a, b, "tier {encoding:?} delta={delta}");
                }
                assert_eq!(
                    serial.global_model(),
                    threaded.global_model(),
                    "tier {encoding:?} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn transport_stats_accumulate() {
        let (clients, test) = setup(4, 80);
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let mut threaded = ThreadedFedAvg::new(config, clients, test);
        assert_eq!(threaded.transport_stats(), TransportStats::default());
        threaded.run_round();
        threaded.run_round();
        let stats = threaded.transport_stats();
        assert_eq!(stats.jobs, 4);
        // Each direction moved 4 model-sized frames (plus headers).
        let model_bytes = (784 * 10 + 10) * 8;
        assert!(stats.bytes_down >= 4 * model_bytes as u64);
        assert!(stats.bytes_up >= 4 * model_bytes as u64);
    }

    #[test]
    fn run_until_collects_history() {
        let (clients, test) = setup(4, 80);
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let mut threaded = ThreadedFedAvg::new(config, clients, test);
        let history = threaded.run_until(StopCondition::rounds(3));
        assert_eq!(history.len(), 3);
        assert!(history.last().unwrap().test_eval.is_some());
    }

    #[test]
    fn both_executors_reject_an_invalid_sgd_config_before_spawning() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (clients, test) = setup(3, 60);
        let paper = SgdConfig::paper_default();
        let broken = [
            SgdConfig {
                batch_size: Some(0),
                ..paper.clone()
            },
            SgdConfig {
                learning_rate: 0.0,
                ..paper.clone()
            },
            SgdConfig {
                decay_per_round: 1.5,
                ..paper.clone()
            },
        ];
        let message = |outcome: Result<(), Box<dyn std::any::Any + Send>>| {
            let payload = outcome.expect_err("construction must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        for sgd in broken {
            let want = sgd.violation().expect("a broken config");
            let config = FedAvgConfig {
                clients_per_round: 2,
                local_epochs: 1,
                sgd,
                ..Default::default()
            };
            let serial = catch_unwind(AssertUnwindSafe(|| {
                FedAvg::new(config.clone(), clients.clone(), test.clone());
            }));
            assert_eq!(message(serial), want);
            let threaded = catch_unwind(AssertUnwindSafe(|| {
                ThreadedFedAvg::new(config.clone(), clients.clone(), test.clone());
            }));
            assert_eq!(message(threaded), want);
            assert_eq!(SPAWNED.with(|spawned| spawned.get()), 0, "{want}");
        }
        // The counter sees the spawns a valid config makes.
        let config = FedAvgConfig {
            sgd: paper,
            ..Default::default()
        };
        drop(ThreadedFedAvg::new(config, clients.clone(), test));
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(
            SPAWNED.with(|spawned| spawned.get()),
            cores.min(clients.len())
        );
    }

    /// The engine with a pool of `workers` threads in place of the default.
    fn pooled(
        config: &FedAvgConfig,
        clients: &[Dataset],
        test: &Dataset,
        workers: usize,
    ) -> ThreadedFedAvg {
        let mut engine = ThreadedFedAvg::new(config.clone(), clients.to_vec(), test.clone());
        let shared: Vec<Arc<Dataset>> = clients.iter().cloned().map(Arc::new).collect();
        let template = LogisticRegression::zeros(clients[0].dim(), clients[0].num_classes());
        engine.exec = Framed::with_workers(config, &shared, &template, workers);
        engine
    }

    #[test]
    fn every_pool_size_matches_in_process_bit_for_bit() {
        use crate::adversary::{AdversarySpec, AttackBehavior};
        let (clients, test) = setup(6, 150);
        let config = FedAvgConfig {
            clients_per_round: 5,
            local_epochs: 2,
            transport: WireConfig {
                encoding: fei_net::wire::Encoding::Q8,
                delta: true,
            },
            ..Default::default()
        };
        // Half the fleet trains on flipped labels: whichever worker serves a
        // compromised server reads the one flipped copy it shares.
        let spec = AdversarySpec {
            fraction: 0.5,
            behavior: AttackBehavior::LabelFlip,
            seed: 11,
        };
        for workers in [1, 2, 3, clients.len()] {
            let mut serial =
                FedAvg::new(config.clone(), clients.clone(), test.clone()).with_adversary(spec);
            let mut threaded = pooled(&config, &clients, &test, workers).with_adversary(spec);
            for _ in 0..4 {
                assert_eq!(
                    serial.run_round(),
                    threaded.run_round(),
                    "{workers} workers"
                );
            }
            assert_eq!(
                serial.global_model(),
                threaded.global_model(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_panic_takes_out_its_server_not_its_pool_mates() {
        let (clients, test) = setup(5, 100);
        let config = FedAvgConfig {
            clients_per_round: 5,
            local_epochs: 1,
            ..Default::default()
        };
        for workers in [1, 2] {
            let mut engine = pooled(&config, &clients, &test, workers);
            engine.inject_worker_panic(2);
            for round in 0..3 {
                let record = engine.run_round();
                let context = format!("{workers} workers, round {round}");
                assert_eq!(record.faults.worker_losses, 1, "{context}");
                assert_eq!(record.responded, [0, 1, 3, 4], "{context}");
                assert!(record.outcome.committed(), "{context}");
            }
            assert_eq!(engine.rounds_completed(), 3);
        }
    }

    #[test]
    fn drop_shuts_workers_down() {
        let (clients, test) = setup(3, 60);
        let config = FedAvgConfig {
            clients_per_round: 1,
            local_epochs: 1,
            ..Default::default()
        };
        let threaded = ThreadedFedAvg::new(config, clients, test);
        drop(threaded); // must not hang or panic
    }

    #[test]
    fn frame_round_trips() {
        let mut wire = WireScratch::new();
        let params = vec![1.5, -2.5, 0.0];
        let frame = encode_global(7, 3, &params, &mut wire);
        assert_eq!(frame.len(), global_frame_len(params.len()));
        let (round, epochs, back) = decode_global(&frame);
        assert_eq!((round, epochs), (7, 3));
        assert_eq!(back, params);

        let update = Update {
            round: 7,
            client: 4,
            samples: 123,
            params: vec![9.0, -1.0],
            initial_loss: 2.5,
        };
        let base = vec![8.75, -1.5];
        let mut payload_buf = Vec::new();
        for transport in [
            WireConfig::lossless(),
            WireConfig {
                encoding: fei_net::wire::Encoding::F64,
                delta: true,
            },
        ] {
            let frame = encode_update(&update, transport, &base, &mut wire, &mut payload_buf);
            assert_eq!(
                frame.len(),
                update_frame_len(transport, update.params.len())
            );
            let decoded = decode_update(&frame, &base, &mut wire);
            assert_eq!(decoded.round, 7);
            assert_eq!(decoded.client, 4);
            assert_eq!(decoded.samples, 123);
            assert_eq!(decoded.params, vec![9.0, -1.0]);
            assert_eq!(decoded.initial_loss, 2.5);
        }
    }
}
