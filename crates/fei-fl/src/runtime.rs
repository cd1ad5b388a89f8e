//! The framed executor: one OS thread per edge server.
//!
//! Exercises the full communication path of a real deployment: the
//! coordinator serializes the global model into a byte frame (`fei-net`
//! codec), sends it over a channel to each planned worker, and workers ship
//! their trained models back the same way. Everything else about a round is
//! [`crate::RoundDriver`]'s, shared with the in-process engine — so given
//! equal configuration and seed the results are bit-identical to
//! [`crate::FedAvg`], an invariant the integration tests pin down.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Buf;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fei_data::Dataset;
use fei_ml::{
    GradScratch, LocalTrainer, LogisticRegression, Model, SgdConfig, TrainStats, WorkerPool,
};
use fei_net::codec::{decode_frame, encode_frame_into, encode_frame_with, FRAME_OVERHEAD};
use fei_net::wire::{WireConfig, WireScratch};

use crate::executor::{grad_pool, train_local, training_set, ClientUpdate, Executor};
use crate::fedavg::{FedAvgConfig, RoundDriver};

/// Wall-clock safety net for a worker reply. Fault schedules are virtual —
/// this only fires when a worker thread genuinely died or wedged, in which
/// case the round proceeds without it instead of hanging.
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

#[cfg(test)]
thread_local! {
    /// Worker threads [`Framed::start`] has spawned from this thread.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

enum ToWorker {
    Train {
        /// The round's broadcast frame, shared by every planned worker: the
        /// worker reads the round, `E` and the global model from it.
        frame: Arc<[u8]>,
        /// Train on the label-flipped copy of this worker's dataset (the
        /// device is a compromised label-flip client).
        flip: bool,
    },
    /// Test/chaos hook: the worker panics on receipt, simulating a process
    /// crash mid-deployment.
    Poison,
    Shutdown,
}

struct Update {
    round: u32,
    client: usize,
    samples: usize,
    params: Vec<f64>,
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

#[cfg(test)]
fn decode_global(frame: &[u8]) -> (u32, u32, Vec<f64>) {
    let mut params = Vec::new();
    let mut wire = WireScratch::new();
    let (round, epochs) = decode_global_into(frame, &mut params, &mut wire);
    (round, epochs, params)
}

/// Decodes a global-model frame into a reused parameter buffer, so a worker
/// that keeps the buffer across rounds pays no per-frame allocation once the
/// buffer reaches model size.
fn decode_global_into(frame: &[u8], params: &mut Vec<f64>, wire: &mut WireScratch) -> (u32, u32) {
    let (frame, _) = decode_frame(frame)
        .expect("invariant: coordinator frames are encoded in-process and cannot be malformed");
    assert_eq!(frame.msg_type, MSG_GLOBAL, "expected a global-model frame");
    let mut buf = &frame.payload[..];
    let round = buf.get_u32();
    let epochs = buf.get_u32();
    let config = wire
        .decode_into(buf, None, params)
        .expect("invariant: coordinator payloads are encoded in-process and cannot be malformed");
    debug_assert!(config.is_lossless(), "the downlink broadcast is lossless");
    (round, epochs)
}

/// Encodes an update frame under the run's transport tier. With a delta
/// tier, `base` is the worker's bit-exact copy of this round's global model.
/// The wire payload is staged in the worker's persistent `payload_buf`, so
/// the codec hot path allocates nothing once warm; only the returned frame
/// (whose ownership the channel takes) is fresh.
fn encode_update(
    update: &Update,
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
    wire.encode_into(transport, &update.params, Some(base), payload_buf);
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload_buf.len());
    encode_frame_into(MSG_UPDATE, payload_buf, &mut frame);
    frame
}

/// Decodes an update frame. `base` is the coordinator's current global model
/// (not yet aggregated this round), the same base every worker encoded
/// deltas against.
fn decode_update(frame: &[u8], base: &[f64], wire: &mut WireScratch) -> Update {
    let (frame, _) = decode_frame(frame).expect(
        "invariant: worker frames survived the codec checksum before reaching the coordinator",
    );
    assert_eq!(frame.msg_type, MSG_UPDATE, "expected an update frame");
    let mut buf = &frame.payload[..];
    let round = buf.get_u32();
    let client = buf.get_u32() as usize;
    let samples = buf.get_u64() as usize;
    let initial_loss = buf.get_f64_le();
    let mut params = Vec::new();
    wire.decode_into(buf, Some(base), &mut params)
        .expect("invariant: worker payloads are encoded in-process against the shared base");
    Update {
        round,
        client,
        samples,
        params,
        initial_loss,
    }
}

/// The thread-per-server executor: every edge server is a persistent OS
/// thread, and models cross to it and back as real `fei-net` byte frames
/// over channels — the communication path of a real deployment.
pub struct Framed {
    to_workers: Vec<Sender<ToWorker>>,
    from_workers: Receiver<Vec<u8>>,
    handles: Vec<JoinHandle<()>>,
    /// Coordinator-side wire workspace: encodes the downlink broadcast and
    /// decodes every update frame, allocation-free once warm.
    wire: WireScratch,
    /// The run's optimizer settings: the update frame carries the initial
    /// loss and the sample count, and the step count follows from these.
    sgd: SgdConfig,
    worker_timeout: Duration,
}

/// FedAvg with edge servers running on dedicated threads (multinomial
/// logistic regression by default): the round driver over the [`Framed`]
/// executor. Given equal configuration and seed the results are
/// bit-identical to [`crate::FedAvg`].
pub type ThreadedFedAvg<M = LogisticRegression> = RoundDriver<M, Framed>;

impl<M: Model> RoundDriver<M, Framed> {
    /// Overrides the wall-clock reply timeout used to detect dead workers.
    pub fn with_worker_timeout(mut self, timeout: Duration) -> Self {
        self.exec.worker_timeout = timeout;
        self
    }

    /// Chaos hook: makes `client`'s worker thread panic on its next message,
    /// simulating a process crash. Subsequent rounds count the dead worker
    /// as a dropout — they never hang on it.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn inject_worker_panic(&self, client: usize) {
        let _ = self.exec.to_workers[client].send(ToWorker::Poison);
    }
}

impl Executor for Framed {
    /// Spawns one worker thread per client dataset.
    fn start<M: Model>(config: &FedAvgConfig, clients: &[Arc<Dataset>], template: &M) -> Self {
        let (result_tx, from_workers) = unbounded::<Vec<u8>>();
        // One gradient pool shared by every client worker; dropped when the
        // last of them exits.
        let grad_pool = grad_pool(&config.sgd);
        let mut to_workers = Vec::with_capacity(clients.len());
        let mut handles = Vec::with_capacity(clients.len());
        for (id, data) in clients.iter().enumerate() {
            let (tx, rx) = unbounded::<ToWorker>();
            to_workers.push(tx);
            let data = Arc::clone(data);
            let result_tx = result_tx.clone();
            let trainer = LocalTrainer::new(config.sgd.clone());
            let template = template.clone();
            let transport = config.transport;
            let grad_pool = grad_pool.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(
                    id,
                    template,
                    &data,
                    &trainer,
                    transport,
                    &rx,
                    &result_tx,
                    grad_pool.as_deref(),
                );
            }));
            #[cfg(test)]
            SPAWNED.with(|spawned| spawned.set(spawned.get() + 1));
        }
        Self {
            to_workers,
            from_workers,
            handles,
            wire: WireScratch::new(),
            sgd: config.sgd.clone(),
            worker_timeout: DEFAULT_WORKER_TIMEOUT,
        }
    }

    /// Broadcasts the global frame and collects the update frames. A send
    /// to a dead worker or a missing reply (panic, wedge) counts the worker
    /// as lost after a wall-clock timeout — the call always returns.
    fn execute<M: Model>(
        &mut self,
        round: usize,
        epochs: usize,
        global: &M,
        planned: &[(usize, bool)],
    ) -> (Vec<ClientUpdate>, usize) {
        let base = global.to_flat();
        let (wire_round, wire_epochs) = (round as u32, epochs as u32);
        let frame = encode_global(wire_round, wire_epochs, base, &mut self.wire);

        // Dispatch. A send failure means the worker's thread is gone (e.g.
        // it panicked): count it as lost rather than crashing the run.
        let mut lost = 0;
        let mut pending = BTreeSet::new();
        for &(client, flip) in planned {
            let job = ToWorker::Train {
                frame: Arc::clone(&frame),
                flip,
            };
            if self.to_workers[client].send(job).is_ok() {
                pending.insert(client);
            } else {
                lost += 1;
            }
        }

        // Collect replies. The wall-clock timeout is a liveness safety net:
        // a worker that dies mid-job stops the wait, and its absence is a
        // dropout — the round never hangs and never poisons shared state.
        let mut updates = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            match self.from_workers.recv_timeout(self.worker_timeout) {
                Ok(reply) => {
                    let update = decode_update(&reply, base, &mut self.wire);
                    // Discard stale frames from rounds a dead worker missed.
                    if update.round == wire_round && pending.remove(&update.client) {
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
                Err(_) => {
                    lost += pending.len();
                    pending.clear();
                }
            }
        }
        // Restore deterministic order: workers reply in arbitrary order.
        updates.sort_by_key(|u| u.client);
        (updates, lost)
    }
}

impl Drop for Framed {
    fn drop(&mut self) {
        for tx in &self.to_workers {
            let _ = tx.send(ToWorker::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[allow(
    clippy::too_many_arguments,
    reason = "everything a worker thread owns is moved in once at spawn"
)]
fn worker_loop<M: Model>(
    id: usize,
    template: M,
    data: &Arc<Dataset>,
    trainer: &LocalTrainer,
    transport: WireConfig,
    rx: &Receiver<ToWorker>,
    result_tx: &Sender<Vec<u8>>,
    grad_pool: Option<&WorkerPool>,
) {
    // Lazily built label-flipped copy, for compromised label-flip clients.
    let mut flipped: Option<Arc<Dataset>> = None;
    // Persistent per-worker hot state, reused across jobs: the model is
    // overwritten by `set_flat` each round, the gradient scratch keeps local
    // epochs allocation-free, and the decode buffer, wire workspace, and
    // payload stage absorb each frame without fresh allocations.
    let mut model = template;
    let mut params: Vec<f64> = Vec::new();
    let mut scratch = GradScratch::new();
    let mut wire = WireScratch::new();
    let mut payload_buf: Vec<u8> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Shutdown => break,
            // fei-lint: allow(no-panic, reason = "fault injection: the panic IS the injected fault the supervisor must survive")
            ToWorker::Poison => panic!("injected worker panic (client {id})"),
            ToWorker::Train { frame, flip } => {
                let (round, epochs) = decode_global_into(&frame, &mut params, &mut wire);
                model.set_flat(&params);
                let train_stats = train_local(
                    trainer,
                    grad_pool,
                    &mut model,
                    training_set(data, &mut flipped, flip),
                    epochs as usize,
                    round as usize,
                    &mut scratch,
                );
                let update = Update {
                    round,
                    client: id,
                    samples: data.len(),
                    params: model.to_flat().to_vec(),
                    initial_loss: train_stats.initial_loss,
                };
                // `params` still holds this round's decoded global model —
                // the bit-exact delta base shared with the coordinator.
                let reply = encode_update(&update, transport, &params, &mut wire, &mut payload_buf);
                if result_tx.send(reply).is_err() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedavg::tests::setup;
    use crate::fedavg::{FedAvg, StopCondition};

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
        assert_eq!(SPAWNED.with(|spawned| spawned.get()), clients.len());
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
