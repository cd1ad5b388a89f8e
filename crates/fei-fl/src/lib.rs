//! FedAvg federated-learning runtime.
//!
//! Implements the four-step training loop of §III-A: the coordinator selects
//! `K` of `N` edge servers, dispatches the global model, each selected server
//! runs `E` local SGD epochs on its own data, uploads its model, and the
//! coordinator averages the uploads (Eq. 2).
//!
//! One round driver, `fedavg::RoundDriver`, implements that loop once —
//! validation, planning, billing, screening, aggregation, checkpoints —
//! and delegates only *where local training runs* to a sealed
//! `executor::Executor`. The two public engines are type aliases over it
//! and produce identical results for the same configuration and seed:
//!
//! * [`fedavg::FedAvg`] — the `executor::Inline` executor: in-process,
//!   one reused gradient and wire workspace (zero steady-state
//!   allocations); used by experiments that sweep many `(K, E)`
//!   combinations;
//! * [`runtime::ThreadedFedAvg`] — the [`runtime::Framed`] executor: a pool
//!   of worker threads sized to the cores serves every edge server, with
//!   model parameters serialized into byte frames (via `fei-net`) and moved
//!   over `std::sync::mpsc` channels, exercising the communication code
//!   path a real deployment would use, including surviving a server whose
//!   job panics.
//!
//! A barrier-free engine — [`asynchronous::AsyncFedAvg`], a different
//! algorithm rather than a third executor — merges staleness-discounted
//! updates as they arrive on a virtual clock.
//!
//! # Example
//!
//! ```
//! use fei_data::{Partition, SyntheticMnist, SyntheticMnistConfig};
//! use fei_fl::{FedAvg, FedAvgConfig};
//! use fei_sim::DetRng;
//!
//! let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
//! let train = gen.generate(200, 0);
//! let test = gen.generate(50, 1);
//! let parts = Partition::iid(train.len(), 4, &mut DetRng::new(1)).apply(&train);
//!
//! let config = FedAvgConfig { clients_per_round: 2, local_epochs: 3, ..Default::default() };
//! let mut fed = FedAvg::new(config, parts, test);
//! let record = fed.run_round();
//! assert_eq!(record.selected.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod adversary;
mod aggregate;
mod asynchronous;
mod error;
mod executor;
mod fault;
mod fedavg;
mod history;
mod resume;
mod robust;
mod runtime;
mod selection;

pub use adversary::{Adversary, AdversarySpec, AttackBehavior};
pub use aggregate::{aggregate, try_aggregate, AggregateError, AggregationRule};
pub use asynchronous::{AsyncConfig, AsyncFedAvg, AsyncHistory};
pub use error::FlError;
pub use fault::{FaultInjector, FaultSpec, RetryPolicy};
pub use fedavg::{
    FedAvg, FedAvgConfig, RoundFaultStats, RoundOutcome, RoundRecord, StopCondition,
    ToleranceConfig,
};
pub use fei_net::wire::{Encoding, WireConfig};
pub use history::TrainingHistory;
pub use resume::EngineCheckpoint;
pub use robust::{
    robust_aggregate, DefenseConfig, RobustRule, ScreenPolicy, ScreenReason, ScreenReport,
    UpdateScreen,
};
pub use runtime::{Framed, ThreadedFedAvg, TransportStats};
pub use selection::{ClientSelector, SelectionStrategy};
