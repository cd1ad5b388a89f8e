//! Engine resume hooks for coordinator crash recovery.
//!
//! When the protocol coordinator restarts from its journal
//! (`fei_proto::Coordinator::recover`), the driver also has to put the
//! *training* engine back where it was: same global model, same round
//! counter, same selection RNG stream, same transport totals. An
//! [`EngineCheckpoint`] captures exactly that state — all of it lives in the
//! one [`crate::RoundDriver`], none in an executor — so a checkpoint taken
//! from the serial [`crate::FedAvg`] resumes a [`crate::ThreadedFedAvg`] (and
//! vice versa) with bit-identical future rounds.
//!
//! The checkpoint deliberately excludes anything derivable from the
//! engine's construction inputs (datasets, fault schedules, adversary
//! specs): those are config, not state, and the driver rebuilding an
//! engine after a crash already has them.

use fei_ml::{LogisticRegression, Model};

use crate::runtime::TransportStats;
use crate::selection::ClientSelector;

/// Resumable state of a FedAvg engine, generic over the trained model.
///
/// Produced by `RoundDriver::checkpoint`, consumed by
/// `RoundDriver::restore`. Checkpoints do not name an executor:
/// serial and threaded engines restore from the same checkpoint to the
/// same future behavior.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint<M: Model = LogisticRegression> {
    /// Rounds completed when the checkpoint was taken.
    pub(crate) round: usize,
    /// The global model at that point.
    pub(crate) global: M,
    /// Selection stream, mid-sequence.
    pub(crate) selector: ClientSelector,
    /// Transport totals accumulated so far.
    pub(crate) transport: TransportStats,
    /// `K` at checkpoint time (it may have been re-planned mid-run).
    pub(crate) clients_per_round: usize,
    /// `E` at checkpoint time.
    pub(crate) local_epochs: usize,
}

impl<M: Model> EngineCheckpoint<M> {
    /// Rounds completed when the checkpoint was taken.
    pub fn round(&self) -> usize {
        self.round
    }
}
