//! Coordinator protocol state machine for federated edge intelligence.
//!
//! `fei-proto` turns the workspace's federated-averaging loop into an
//! explicit, event-driven protocol in which wire frames are the *only*
//! channel between coordinator and devices:
//!
//! * [`ControlFrame`] — the control plane (join handshake with a wire
//!   version gate, heartbeats, selection notices, update submissions,
//!   commit/abort broadcasts), encoded through the same `fei-net` frame
//!   codec as model payloads. Control frames, journal records and trace
//!   events are three tables over **one record codec** (the private
//!   `record` module: field kinds, bounds-checked reader, version-byte
//!   envelope, torn-tail scan) — each record kind's tag, variant and
//!   ordered fields are declared exactly once;
//! * [`Coordinator`] — the server-side machine
//!   (`Idle → Rendezvous → Selected → Training → RoundClosed`) with
//!   heartbeat leases, round deadlines, quorum-gated partial close, and
//!   typed rejections for every malformed or mistimed frame;
//! * [`Participant`] — the device-side mirror with rejoin, heartbeating,
//!   and retransmit-with-backoff submission;
//! * [`RoundMachine`] — the round decision core (quorum gate, selection
//!   width, deadline admission, first-`K`-by-arrival ranking) shared with
//!   the in-process training engines so committed sets stay bit-identical
//!   across drivers;
//! * [`RoundJournal`] — the coordinator's write-ahead log and the owner of
//!   the state it describes: it appends a record, then folds it into its
//!   [`JournalState`], and the coordinator only reads that state back.
//!   [`Coordinator::recover`] adopts the log through the same fold after a
//!   crash, resuming the in-flight round when quorum is still reachable in
//!   the deadline budget and aborting it cleanly otherwise;
//! * [`node`] — `CoordinatorNode`/`ParticipantNode`, the one loop per role
//!   that drives those state machines, generic over the sealed `backend`
//!   seam (frame connection, listener, dialer, durable log). Over the
//!   default backend — localhost TCP ([`fei_net::transport`]) and files —
//!   it is what `fei_coordinatord` runs (`daemon` wraps it in the command
//!   line and stats file), persisting a frame trace (`trace`) — its one
//!   write-ahead log, synced before any journaled transition is announced —
//!   whose deterministic replay through the shared decision core (`core`,
//!   [`replay_trace`]) must reproduce the live run's decisions bit for bit;
//! * [`DiskJournal`] — the journal written to a file, torn-tail truncation
//!   on open, and a lock-file single-writer guarantee: the node keeps it as
//!   an unsynced view of the trace, repaired from the replay at restart;
//! * [`ChaosLink`] and [`Cluster`] — a deterministic lossy link, and the
//!   same node loops run in lock-step over a simulated wire and disk, with
//!   an audit from outside of the protocol's liveness (every opened round
//!   commits or aborts — across coordinator restarts, within a bounded
//!   recovery budget) and safety (no expired client's update is ever
//!   aggregated, no update aggregated twice across a restart) under seeded
//!   chaos, including seeded coordinator kill/restart events;
//! * [`Supervisor`] — spawns the coordinator as a real OS process, detects
//!   death, breaks the stale journal lock, and respawns against the same
//!   journal path.
//!
//! The crate stays deterministic: no wall clock, no ambient randomness, no
//! unordered iteration. Identical configurations and seeds replay identical
//! protocol histories, byte for byte. The real backend under [`node`] is
//! the one place scheduling nondeterminism enters — and the frame trace
//! pins it down again: replaying the trace through the same decision core
//! is required (and tested) to be bit-identical.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]
// A silently wrapped length, tag or timer desynchronizes the wire: every
// narrowing `as` in library code is an error (DESIGN.md §9).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod backend;
mod chaos;
mod cluster;
mod coordinator;
mod core;
mod daemon;
mod error;
pub mod frames;
pub mod journal;
mod liveness;
pub mod node;
mod participant;
mod record;
mod round;
mod sim;
mod store;
mod supervisor;
mod trace;

pub use chaos::{ChaosConfig, ChaosLink};
pub use cluster::{Cluster, ClusterConfig, ClusterReport, CoordinatorCrash};
pub use coordinator::{ControlStats, Coordinator, CoordinatorConfig, Effect, Phase};
pub use error::ProtoError;
pub use frames::{control_round_bytes, AbortReason, ControlFrame, PROTO_VERSION};
pub use journal::{JournalRecord, JournalState, RoundJournal};
pub use liveness::LivenessTracker;
pub use node::{
    replay_trace, CoordinatorAddr, CoordinatorNode, CoordinatorNodeConfig, NodeAudit, NodeReport,
    ParticipantNode, ParticipantNodeConfig, TraceEvent,
};
pub use participant::{Participant, ParticipantConfig, ParticipantStats};
pub use round::{DeviceReport, RoundMachine, RoundPolicy};
pub use store::{DiskJournal, StoreError};
pub use supervisor::{CommandFactory, Supervisor};
