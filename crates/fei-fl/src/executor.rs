//! The executor seam: where local training runs.
//!
//! [`crate::RoundDriver`] owns everything a FedAvg round decides —
//! selection, dropout and fault planning, poisoning, billing, screening,
//! quorum, aggregation, checkpoints. The one thing it delegates is running
//! the planned clients' local epochs and carrying their updates back, and
//! that is an [`Executor`]'s whole job. There are exactly two:
//!
//! * [`Inline`] (this module) trains on the calling thread and round-trips
//!   every update through the wire codec in place. It owns the
//!   **zero steady-state allocations** invariant: one [`GradScratch`], one
//!   [`WireScratch`] and one staging buffer serve every client and round.
//! * [`crate::runtime::Framed`] runs the round's jobs on a pool of worker
//!   threads sized to the cores, sharing one job queue, and moves real byte
//!   frames over channels. It owns **frame fidelity** (the bytes it reports
//!   are the frames it sent) and **worker-loss liveness** (a server whose
//!   job panics, or a wedged job, becomes a dropout, never a hang).
//!
//! The trait is sealed: no executor can be implemented outside this crate.

use std::sync::Arc;

use fei_data::Dataset;
use fei_ml::{GradScratch, LocalTrainer, Model, TrainStats};
use fei_net::wire::{WireConfig, WireScratch};

use crate::adversary::flip_dataset_labels;
use crate::fedavg::FedAvgConfig;
use crate::runtime::{global_frame_len, update_frame_len};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Inline {}
    impl Sealed for crate::runtime::Framed {}
}

/// One edge server's answer to a round: its trained parameters as the
/// coordinator decoded them, and the frame bytes that moved to get them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// The edge server that trained.
    pub client: usize,
    /// Its local sample count `n_k`.
    pub samples: usize,
    /// Flat model parameters after the uplink wire round trip.
    pub params: Vec<f64>,
    /// Local training statistics.
    pub stats: TrainStats,
    /// Bytes of the global-model frame sent down to it.
    pub bytes_down: u64,
    /// Bytes of the update frame it sent up.
    pub bytes_up: u64,
}

/// Runs the planned clients' local training for [`crate::RoundDriver`].
pub trait Executor: sealed::Sealed + Sized {
    /// Builds the executor for a validated configuration and fleet.
    /// `template` fixes the model architecture workers train.
    fn start<M: Model>(config: &FedAvgConfig, clients: &[Arc<Dataset>], template: &M) -> Self;

    /// Trains every `(client, flip_labels)` of `planned` for `epochs` local
    /// epochs from `global` and returns one [`ClientUpdate`] per client
    /// that answered, in ascending client order, plus the number of
    /// workers lost mid-round (always 0 for [`Inline`]).
    fn execute<M: Model>(
        &mut self,
        round: usize,
        epochs: usize,
        global: &M,
        planned: &[(usize, bool)],
    ) -> (Vec<ClientUpdate>, usize);
}

/// The dataset a client trains on this round: its own, or — for a
/// compromised label-flip client, which trains honestly but on poisoned
/// data — the flipped copy, built once into `flipped`.
fn training_set<'a>(
    data: &'a Dataset,
    flipped: &'a mut Option<Dataset>,
    flip: bool,
) -> &'a Dataset {
    if flip {
        flipped.get_or_insert_with(|| flip_dataset_labels(data))
    } else {
        data
    }
}

/// The in-process executor: every planned client trains on the calling
/// thread, one after another.
#[derive(Debug, Clone)]
pub struct Inline {
    clients: Vec<Arc<Dataset>>,
    /// Label-flipped copies of compromised clients' datasets, built on
    /// first use.
    pub(crate) flipped: Vec<Option<Dataset>>,
    trainer: LocalTrainer,
    transport: WireConfig,
    /// Gradient workspace reused across every client and round: after the
    /// first round sizes it, local training runs allocation-free.
    pub(crate) scratch: GradScratch,
    /// Wire-codec workspace: every update ships through the same
    /// encode→decode round trip the framed workers perform, so lossy
    /// transport tiers perturb the parameters identically.
    pub(crate) wire: WireScratch,
    /// Reused staging buffer for the wire round trip.
    wire_buf: Vec<u8>,
}

impl Executor for Inline {
    fn start<M: Model>(config: &FedAvgConfig, clients: &[Arc<Dataset>], _template: &M) -> Self {
        Self {
            clients: clients.to_vec(),
            flipped: vec![None; clients.len()],
            trainer: LocalTrainer::new(config.sgd.clone()),
            transport: config.transport,
            scratch: GradScratch::new(),
            wire: WireScratch::new(),
            wire_buf: Vec::new(),
        }
    }

    fn execute<M: Model>(
        &mut self,
        round: usize,
        epochs: usize,
        global: &M,
        planned: &[(usize, bool)],
    ) -> (Vec<ClientUpdate>, usize) {
        let base = global.to_flat();
        // No frame is built here; charge the exact lengths the framed
        // executor's real frames have.
        let bytes_down = global_frame_len(base.len()) as u64;
        let bytes_up = update_frame_len(self.transport, base.len()) as u64;
        let updates = planned
            .iter()
            .map(|&(client, flip)| {
                let mut local = global.clone();
                let data = training_set(&self.clients[client], &mut self.flipped[client], flip);
                let stats =
                    self.trainer
                        .train_with(&mut local, data, epochs, round, &mut self.scratch);
                let mut params = local.to_flat().to_vec();
                self.wire
                    .round_trip(self.transport, &mut params, Some(base), &mut self.wire_buf);
                ClientUpdate {
                    client,
                    samples: self.clients[client].len(),
                    params,
                    stats,
                    bytes_down,
                    bytes_up,
                }
            })
            .collect();
        (updates, 0)
    }
}
