//! The product surface the benchmark holds still.
//!
//! This is the only module that names a product crate; everything else in
//! the benchmark goes through these re-exports. A refactor that renames or
//! moves one of these symbols has to touch this file and nothing else here.
//!
//! Most of the list is already pinned by suites the roadmap keeps unchanged
//! (`tests/golden_numerics.rs`, `tests/engines_agree.rs`,
//! `tests/transport.rs`). The remainder, which only the benchmark pins, is
//! the last block below.

// Data generation and partitioning (the inputs made from `--seed`).
pub use fei_data::{Dataset, Partition, SyntheticMnist};
pub use fei_sim::DetRng;

// Local training and evaluation, the wire codec, the round engines and
// their experiment glue.
pub use fei_fl::{AggregationRule, FedAvg, ThreadedFedAvg, TransportStats};
pub use fei_math::Matrix;
pub use fei_ml::{Evaluation, GradScratch, LogisticRegression};
pub use fei_net::{Encoding, WireConfig};
pub use fei_testbed::{FlExperiment, FlExperimentConfig};

// Coordinator protocol: daemon artifacts, replay oracle, state machines.
pub use fei_proto::node::{
    parse_stats, read_trace, replay_trace, CoordinatorAddr, ParticipantNode, ParticipantNodeConfig,
    TraceEvent,
};
pub use fei_proto::{
    Cluster, ClusterConfig, ControlFrame, ControlStats, CoordinatorConfig, ParticipantConfig,
    ParticipantStats,
};

// Benchmark-only: nothing in the unchanged-by-contract suites pins these.
// Kernels at the trainer's shapes, `LocalTrainer::train_with`, the parts the
// composed round is made of, the socket and durability primitives, the
// planner and the energy accounting.
pub use fei_core::{
    ComputationModel, ConvergenceBound, CoreError, EeFeiPlanner, EnergyLedger, EnergyUse,
    RoundEnergyModel,
};
pub use fei_fl::{try_aggregate, ClientSelector, SelectionStrategy};
pub use fei_math::reduce::{dot, fused_axpy_shrink};
pub use fei_ml::LocalTrainer;
pub use fei_net::{FrameConn, Link, WireScratch};
pub use fei_proto::node::TraceSink;
pub use fei_proto::{DiskJournal, Participant};
