//! The coordinator's frame trace: the recorded inputs that make a socket
//! run replayable, and the coordinator's one write-ahead log.
//!
//! Every input the coordinator's decision core consumes (delivered frames,
//! round-open attempts, tick advances, recoveries) is recorded as a
//! [`TraceEvent`] *before* it is applied, in the same CRC32 record
//! container as control frames and journal records (so torn-tail detection
//! is uniform). [`TraceSink`] persists the events; [`read_trace`] reads
//! them back for [`crate::core::replay_trace`], the oracle that re-drives
//! a fresh decision core from the events alone.

use std::fs::{File, TryLockError};
use std::path::Path;

use crate::backend::{open_file, open_log, Log};
use crate::node::{io_err, NodeError};
use crate::record::{record_table, scan};
use crate::store::StoreError;

record_table! {
    /// One recorded input to the coordinator's decision core. The trace of
    /// these events is a complete, replayable account of a socket run.
    pub enum TraceEvent;
    /// Every trace tag, in value order (disjoint from the control and
    /// journal ranges — see the tag table in [`crate::frames`]).
    pub const TRACE_TAGS;

    /// Trace record: the coordinator opened its rendezvous (fresh boot).
    0x30 pub(crate) TAG_TRACE_OPEN =>
    /// Fresh boot: the rendezvous opened (always the first event).
    Open,
    /// Trace record: one inbound frame was delivered to the decision core.
    0x31 pub(crate) TAG_TRACE_DELIVER =>
    /// An inbound frame, byte for byte as it arrived off the socket.
    Deliver {
        /// The node's tick when the frame was applied.
        tick: u64,
        /// The complete encoded frame.
        bytes: Vec<u8>,
    },
    /// Trace record: the node attempted to open the next round.
    0x32 pub(crate) TAG_TRACE_START_ROUND =>
    /// A round-open attempt (recorded even when it fails quorum: the
    /// attempt expires leases, mutating the journal).
    StartRound {
        /// The tick of the attempt.
        tick: u64,
    },
    /// Trace record: the node advanced the decision core's virtual clock.
    0x33 pub(crate) TAG_TRACE_TICK =>
    /// A virtual-clock advance (deadline and lease checks run here).
    Tick {
        /// The new tick.
        tick: u64,
    },
    /// Trace record: a restarted node recovered from its replayed trace.
    0x34 pub(crate) TAG_TRACE_RECOVER =>
    /// A restarted node ran [`crate::Coordinator::recover`] against the
    /// journal its surviving trace replays to. Replay truncates its own
    /// journal to `journal_len` to reproduce the exact recovery input.
    Recover {
        /// The restarted node's starting tick.
        tick: u64,
        /// Bytes of the replayed journal recovery started from (the node
        /// records all of it).
        journal_len: u64,
    },
}

impl TraceEvent {
    /// The tick the event carries (0 for [`TraceEvent::Open`]).
    pub(crate) fn tick(&self) -> u64 {
        match self {
            TraceEvent::Open => 0,
            TraceEvent::Deliver { tick, .. }
            | TraceEvent::StartRound { tick }
            | TraceEvent::Tick { tick }
            | TraceEvent::Recover { tick, .. } => *tick,
        }
    }
}

/// Append-only, torn-tail-aware persistence for the frame trace, over any
/// `Log` (a real file by default).
#[derive(Debug)]
pub struct TraceSink<G: Log = File> {
    log: G,
    /// The encode buffer every append reuses.
    buf: Vec<u8>,
}

impl TraceSink {
    /// Creates (truncating) a fresh trace file.
    ///
    /// # Errors
    ///
    /// [`NodeError::Io`] on OS failures.
    pub fn create(path: &Path) -> Result<Self, NodeError> {
        let log = File::create(path).map_err(io_err("trace create"))?;
        Ok(Self::new(log))
    }

    /// Opens a trace for resuming, creating it when absent, and takes its
    /// single-writer lock; [`TraceSink::resume`] reads it back.
    ///
    /// The lock is the OS's, on the open file: a second open is refused
    /// while the file stays open, and a killed writer's lock dies with its
    /// process, so there is nothing stale for a supervisor to break.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] (as [`NodeError::Store`]) when another open
    /// holds the trace, [`NodeError::Io`] on OS failures.
    pub(crate) fn lock(path: &Path) -> Result<File, NodeError> {
        let file = open_file(path).map_err(io_err("trace open"))?;
        match file.try_lock() {
            Ok(()) => Ok(file),
            Err(TryLockError::WouldBlock) => Err(NodeError::Store(StoreError::Locked {
                path: path.to_path_buf(),
            })),
            Err(TryLockError::Error(e)) => Err(io_err("trace lock")(e)),
        }
    }
}

impl<G: Log> TraceSink<G> {
    fn new(log: G) -> Self {
        Self {
            log,
            buf: Vec::new(),
        }
    }

    /// A sink over an already-open log, resumed: in one pass that reads
    /// the log's bytes once, through a bounded buffer, each surviving event
    /// is handed to `apply` as soon as it decodes; then a torn trailing
    /// record is cut (truncating the file to the valid prefix).
    ///
    /// # Errors
    ///
    /// [`NodeError::Proto`] on mid-file corruption (the events before it
    /// have been applied, and the file is left whole), [`NodeError::Io`] on
    /// OS failures.
    pub(crate) fn resume(mut log: G, apply: impl FnMut(TraceEvent)) -> Result<Self, NodeError> {
        open_log(&mut log, TraceEvent::decode, apply).map_err(io_err("trace read"))??;
        Ok(Self::new(log))
    }

    /// Appends one event (buffered; call [`TraceSink::sync`] to make it
    /// durable — the node does so before a turn that grew the journal
    /// sends anything).
    ///
    /// # Errors
    ///
    /// [`NodeError::Io`] on OS failures.
    pub fn append(&mut self, event: &TraceEvent) -> Result<(), NodeError> {
        self.buf.clear();
        event.encode_into(&mut self.buf);
        self.log.append(&self.buf).map_err(io_err("trace append"))
    }

    /// `fdatasync`s the trace file.
    ///
    /// # Errors
    ///
    /// [`NodeError::Io`] on OS failures.
    pub fn sync(&mut self) -> Result<(), NodeError> {
        self.log.sync().map_err(io_err("trace fsync"))
    }
}

/// Reads a trace file, tolerating a torn tail (reported as leftover
/// bytes). The file is not modified.
///
/// # Errors
///
/// [`NodeError::Io`] when the file cannot be read, [`NodeError::Proto`]
/// on mid-file corruption.
pub fn read_trace(path: &Path) -> Result<(Vec<TraceEvent>, usize), NodeError> {
    let bytes = std::fs::read(path).map_err(io_err("trace read"))?;
    Ok(scan(&bytes, TraceEvent::decode)?)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::frames::ControlFrame;

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Open,
            TraceEvent::Deliver {
                tick: 3,
                bytes: ControlFrame::Heartbeat { client: 7, tick: 3 }.encode(),
            },
            TraceEvent::StartRound { tick: 5 },
            TraceEvent::Tick { tick: 6 },
            TraceEvent::Recover {
                tick: 9,
                journal_len: 42,
            },
        ]
    }

    #[test]
    fn every_trace_event_round_trips() {
        for event in all_events() {
            let bytes = event.encode();
            let (decoded, consumed) = TraceEvent::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} failed: {e}", event.name()));
            assert_eq!(decoded, event);
            assert_eq!(consumed, bytes.len());
        }
    }

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fei-node-{tag}-{}-{n}.bin", std::process::id()))
    }

    #[test]
    fn trace_sink_resume_cuts_torn_tail() {
        let path = temp_path("sink");
        let events = all_events();
        {
            let mut sink = TraceSink::create(&path).expect("create");
            for event in &events {
                sink.append(event).expect("append");
            }
            sink.sync().expect("sync");
        }
        // Tear the tail by hand.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 2]).expect("tear");
        let mut survivors = 0;
        let locked = TraceSink::lock(&path).expect("lock");
        let mut sink = TraceSink::resume(locked, |_| survivors += 1).expect("resume");
        assert_eq!(survivors, events.len() - 1);
        sink.append(&TraceEvent::Tick { tick: 10 }).expect("append");
        sink.sync().expect("sync");
        let (reread, torn) = read_trace(&path).expect("reread");
        assert_eq!(torn, 0);
        assert_eq!(reread.len(), events.len());
        let _ = std::fs::remove_file(&path);
    }
}
