//! The protocol nodes: one loop per role, over either backend.
//!
//! [`CoordinatorNode`] and [`ParticipantNode`] are the only drivers of the
//! [`Coordinator`](crate::Coordinator)/[`Participant`] state machines. Each
//! is one loop body generic over the `crate::backend` seam: `cycle()`
//! advances the node's clock one tick, `pump()` does the same work between
//! ticks. Over the default backend (localhost TCP sockets from
//! [`fei_net::transport`], files on disk) `run()` — what `fei_coordinatord`
//! ships — blocks until input arrives or a tick falls due, and pumps or
//! cycles; over the simulated backend the deterministic [`crate::Cluster`]
//! calls `cycle()` only, in lock-step.
//! On real sockets the OS scheduler and the kernel's read boundaries
//! introduce nondeterminism — and the **frame trace** (`crate::trace`)
//! pins it back down:
//!
//! * every input the coordinator's decision core (`crate::core`)
//!   consumes (delivered frames, round-open attempts, tick advances,
//!   recoveries) is recorded as a [`TraceEvent`] *before* it is applied —
//!   to the trace file only: the node keeps no copy of its events;
//! * [`replay_trace`] re-drives a fresh decision core from the recorded
//!   events alone (read back with [`read_trace`]), with no sockets,
//!   producing a [`NodeAudit`];
//! * the conformance tests assert the live run's audit and the replayed
//!   audit are **bit-identical** — journal bytes (which fold to the
//!   committed model payloads), round verdicts, and
//!   [`ControlStats`](crate::ControlStats) — and cross-check the round
//!   outcomes against a matched deterministic [`crate::Cluster`] run.
//!
//! The trace codec, the decision core and the daemon wrapper live in
//! `crate::trace`, `crate::core` and `crate::daemon`; their public
//! names are re-exported here, where they were first defined.
//!
//! ## Crash-consistency protocol
//!
//! The trace file is the coordinator's one write-ahead log. Every event of
//! a turn (a `cycle()` or a `pump()`) is trace-appended, then applied, and
//! the frames it decided wait in an outbox; the turn ends in one group
//! commit: (if the journal grew) trace fsync, then the journal file's new
//! suffix is appended, unsynced → the outbox leaves the node. The journal
//! file ([`crate::DiskJournal`], optional) is a view of the trace: what it
//! holds on disk is always a prefix of what the durable trace replays to.
//! A restarted coordinator replays its own trace prefix through a fresh
//! core in one pass, applying each event as soon as it decodes from the
//! file's bytes, verifies the journal file is a byte prefix of the replayed
//! journal, and records a [`TraceEvent::Recover`] carrying the replayed
//! journal's length — which is exactly how the oracle replays the same
//! recovery later, handing its own (bit-identical) journal, as it stands,
//! to the new incarnation — and its first commit re-appends whatever suffix the journal file lost (all of it when
//! a crash left the never-synced file damaged before its tail). One writer
//! at a time: the trace is held under an OS file lock while the node
//! lives, the journal file under its lock file.
//!
//! Determinism hygiene: nodes count cycles, and only the two `run()`
//! wrappers ever wait (on input, for as long as the [`Pacer`] says the next
//! tick is away); there is no wall clock anywhere in this module, so the
//! crate's `clippy.toml` ban on `Instant`/`SystemTime` holds here too.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fei_net::transport::{FrameListener, Pacer};

use crate::backend::{drain, Conn, Dialer, Listener, Log};
use crate::coordinator::{CoordinatorConfig, Effect};
use crate::error::ProtoError;
use crate::frames::ControlFrame;
use crate::participant::{Participant, ParticipantConfig, ParticipantStats};
use crate::store::{DiskJournal, StoreError};

pub use crate::core::{replay_trace, NodeAudit};
pub(crate) use crate::core::{Applied, CoordinatorCore};
pub use crate::daemon::{parse_stats, run_daemon, DaemonConfig};
pub use crate::trace::{read_trace, TraceEvent, TraceSink, TRACE_TAGS};

/// Errors from the socket nodes.
#[derive(Debug)]
pub enum NodeError {
    /// An OS-level error, tagged with the operation that failed.
    Io {
        /// What the node was doing.
        op: &'static str,
        /// The OS error text.
        message: String,
    },
    /// The disk journal store failed, or the trace is held by another
    /// writer ([`StoreError::Locked`]).
    Store(StoreError),
    /// A protocol-level failure that is not an ordinary frame rejection
    /// (e.g. a corrupt trace file, or recovery from a corrupt journal).
    Proto(ProtoError),
    /// The node exhausted its cycle budget before reaching its target —
    /// the liveness guard that keeps CI from hanging.
    CycleBudget {
        /// Cycles spent.
        cycles: u64,
    },
    /// The disk journal is not a byte prefix of the journal reconstructed
    /// by replaying the persisted trace: the two histories diverged and
    /// recovery must not guess.
    TraceDiverged {
        /// Valid journal bytes found on disk.
        journal_len: usize,
        /// Journal bytes the trace replay produced.
        replayed_len: usize,
    },
    /// A malformed daemon command-line argument.
    BadArg {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Io { op, message } => write!(f, "node {op} failed: {message}"),
            NodeError::Store(e) => write!(f, "store: {e}"),
            NodeError::Proto(e) => write!(f, "protocol: {e}"),
            NodeError::CycleBudget { cycles } => {
                write!(f, "cycle budget exhausted after {cycles} cycles")
            }
            NodeError::TraceDiverged {
                journal_len,
                replayed_len,
            } => write!(
                f,
                "disk journal ({journal_len} bytes) is not a prefix of the \
                 trace-replayed journal ({replayed_len} bytes)"
            ),
            NodeError::BadArg { message } => write!(f, "bad argument: {message}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<StoreError> for NodeError {
    fn from(e: StoreError) -> Self {
        NodeError::Store(e)
    }
}

impl From<ProtoError> for NodeError {
    fn from(e: ProtoError) -> Self {
        NodeError::Proto(e)
    }
}

pub(crate) fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> NodeError {
    move |e| NodeError::Io {
        op,
        message: e.to_string(),
    }
}

/// Where a participant finds the coordinator.
#[derive(Debug, Clone)]
pub enum CoordinatorAddr {
    /// A known socket address.
    Fixed(SocketAddr),
    /// A port file the coordinator (re)writes on every bind — reads
    /// re-resolve, so participants follow a respawned coordinator to its
    /// new ephemeral port.
    PortFile(PathBuf),
}

impl CoordinatorAddr {
    /// The current address, if resolvable.
    pub fn resolve(&self) -> Option<SocketAddr> {
        match self {
            CoordinatorAddr::Fixed(addr) => Some(*addr),
            CoordinatorAddr::PortFile(path) => {
                std::fs::read_to_string(path).ok()?.trim().parse().ok()
            }
        }
    }
}

/// Configuration of a [`CoordinatorNode`].
#[derive(Debug, Clone)]
pub struct CoordinatorNodeConfig {
    /// The protocol configuration (shared with the [`crate::Cluster`]
    /// oracle run in cross-checks).
    pub coordinator: CoordinatorConfig,
    /// Wire payload of the global model shipped in selection notices.
    pub global: Vec<u8>,
    /// Close this many rounds, then exit (0 = run until a
    /// [`ControlFrame::Shutdown`] arrives).
    pub target_rounds: u64,
    /// Liveness bound: give up (typed error) after this many cycles.
    pub max_cycles: u64,
    /// The tick period: one cycle, advancing the virtual clock one tick,
    /// per this much wall time (input in between is handled as it arrives).
    pub cycle_sleep_ms: u64,
    /// Ticks a restarted node assumes passed while it was down (added to
    /// the last traced tick to form the recovery tick).
    pub restart_lag: u64,
}

impl CoordinatorNodeConfig {
    /// Defaults tuned for localhost test campaigns: 64-byte global,
    /// 5 target rounds, 1 ms ticks, a 60 000-cycle liveness bound.
    pub fn new(coordinator: CoordinatorConfig) -> Self {
        Self {
            coordinator,
            global: vec![0xAB; 64],
            target_rounds: 5,
            max_cycles: 60_000,
            cycle_sleep_ms: 1,
            restart_lag: 1,
        }
    }
}

/// Optional durability attachments for a [`CoordinatorNode`].
#[derive(Debug, Clone, Default)]
pub struct NodePersistence {
    /// Disk journal path: a view of the trace, written after each trace
    /// sync and never synced itself ([`DiskJournal`]'s lock file and
    /// torn-tail cut on open). Requires `trace`.
    pub journal: Option<PathBuf>,
    /// Frame-trace path, the write-ahead log (created fresh, or resumed
    /// with its torn tail cut).
    pub trace: Option<PathBuf>,
    /// Port file to (re)write after binding, for
    /// [`CoordinatorAddr::PortFile`] followers.
    pub port_file: Option<PathBuf>,
}

/// What a coordinator node run produced. The node keeps no copy of its
/// trace: the events are on disk (appended before each is applied), and a
/// conformance check reads them back ([`read_trace`]).
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The live audit: compare with [`replay_trace`] of the trace file.
    pub audit: NodeAudit,
    /// Cycles spent: the ticks of this incarnation's clock.
    pub cycles: u64,
    /// Turns taken between ticks because input arrived.
    pub pumps: u64,
    /// Whether the run ended on a [`ControlFrame::Shutdown`] frame.
    pub shutdown: bool,
}

/// Cap on frames queued for a client that has no live connection;
/// participants retransmit, so dropping beyond the cap is safe.
const QUEUE_CAP: usize = 256;

#[derive(Debug)]
struct ClientConn<C> {
    conn: C,
    client: Option<u64>,
}

/// The coordinator as a frame server: accepts participant connections,
/// pumps frames into the shared decision core, and persists trace +
/// journal with the crash-consistency ordering described in the module
/// docs. Generic over the `crate::backend` seam; the defaults are real
/// sockets and files.
#[derive(Debug)]
pub struct CoordinatorNode<L: Listener = FrameListener, G: Log = File> {
    config: CoordinatorNodeConfig,
    listener: L,
    conns: Vec<ClientConn<L::Conn>>,
    /// Frames addressed to clients with no live connection (flushed when
    /// the client next identifies itself on a connection).
    queued: BTreeMap<u64, Vec<Vec<u8>>>,
    /// Frames decided this turn, each with the client it is for; only
    /// [`CoordinatorNode::commit`] sends.
    outbox: Vec<(u64, Vec<u8>)>,
    core: CoordinatorCore,
    sink: Option<TraceSink<G>>,
    store: Option<DiskJournal<G>>,
    /// The journal's length at the last trace sync: a turn that grows it
    /// past this must sync before anything leaves.
    synced_journal: usize,
    /// Verdicts of the current cycle, handed to
    /// [`CoordinatorNode::cycle`]'s caller.
    surfaced: Vec<Effect>,
    tick: u64,
    cycles: u64,
    pumps: u64,
    shutdown: bool,
}

impl CoordinatorNode {
    /// Binds `listen` (e.g. `"127.0.0.1:0"`) and prepares the node —
    /// fresh, or recovered from the persisted trace when it carries a
    /// previous incarnation's history.
    ///
    /// # Errors
    ///
    /// [`NodeError::BadArg`] for a journal without a trace (checked before
    /// anything is opened), [`NodeError::Io`] on bind/socket failures,
    /// [`NodeError::Store`] / [`NodeError::Proto`] on journal or trace
    /// problems, and [`NodeError::TraceDiverged`] when the disk journal is
    /// not a prefix of the trace-replayed journal.
    pub fn start(
        listen: &str,
        config: CoordinatorNodeConfig,
        persist: NodePersistence,
    ) -> Result<Self, NodeError> {
        if persist.journal.is_some() && persist.trace.is_none() {
            // The journal file is a view of the trace; alone it is not a log.
            return Err(NodeError::BadArg {
                message: "--journal needs --trace: the trace is the write-ahead log".to_string(),
            });
        }
        let listener = FrameListener::bind(listen).map_err(io_err("bind"))?;
        if let Some(path) = &persist.port_file {
            write_atomic(path, &format!("{}\n", listener.local_addr()))?;
        }
        let trace = persist.trace.as_deref().map(TraceSink::lock);
        let trace = trace.transpose()?;
        let store = persist.journal.as_deref().map(DiskJournal::open_view);
        Self::boot(listener, config, store.transpose()?, trace)
    }

    /// The bound listening address.
    ///
    /// # Errors
    ///
    /// None: the address is read once, at bind. (The `Result` is the
    /// signature callers have always had.)
    pub fn local_addr(&self) -> Result<SocketAddr, NodeError> {
        Ok(self.listener.local_addr())
    }
}

impl<L: Listener, G: Log> CoordinatorNode<L, G> {
    /// The start path of every incarnation on either backend, given the
    /// opened journal store with what survived in it and the opened trace
    /// log: replay the persisted trace as it is read, verify the journal
    /// file is a prefix of the replayed journal, then open fresh (empty
    /// trace) or record the recovery. The commit that ends it syncs the
    /// trace and re-appends whatever suffix the journal file lost.
    pub(crate) fn boot(
        listener: L,
        config: CoordinatorNodeConfig,
        store: Option<(DiskJournal<G>, Vec<u8>)>,
        trace: Option<G>,
    ) -> Result<Self, NodeError> {
        let (store, disk_prefix) = store.map_or((None, Vec::new()), |(s, p)| (Some(s), p));
        // Rebuild the previous incarnations' exact decision state by
        // replaying our own recorded history, one event at a time.
        let mut core = CoordinatorCore::new(config.coordinator.clone(), config.global.clone());
        let mut last_tick = None;
        let sink = trace.map(|log| {
            TraceSink::resume(log, |event| {
                last_tick = last_tick.max(Some(event.tick()));
                let _ = core.apply(&event);
            })
        });
        let sink = sink.transpose()?;
        let replayed = core.coordinator().journal().bytes();
        if !replayed.starts_with(&disk_prefix) {
            return Err(NodeError::TraceDiverged {
                journal_len: disk_prefix.len(),
                replayed_len: replayed.len(),
            });
        }
        let journal_len = replayed.len() as u64;
        drop(disk_prefix);
        let mut node = Self {
            core,
            config,
            listener,
            conns: Vec::new(),
            queued: BTreeMap::new(),
            outbox: Vec::new(),
            sink,
            store,
            synced_journal: 0,
            surfaced: Vec::new(),
            tick: 0,
            cycles: 0,
            pumps: 0,
            shutdown: false,
        };
        let event = match last_tick {
            None => TraceEvent::Open,
            Some(last_tick) => {
                node.tick = last_tick + node.config.restart_lag.max(1);
                TraceEvent::Recover {
                    tick: node.tick,
                    journal_len,
                }
            }
        };
        let effects = node.step(event)?.outcome?;
        node.dispatch(effects);
        node.commit()?;
        Ok(node)
    }

    /// The decision core (read-only: the simulator's audits look at the
    /// phase and round a crash interrupts).
    pub(crate) fn core(&self) -> &CoordinatorCore {
        &self.core
    }

    /// Runs until the round target is met, a shutdown frame arrives, or
    /// the cycle budget trips, and hands the node's history over in the
    /// report.
    ///
    /// # Errors
    ///
    /// [`NodeError::CycleBudget`] on the liveness bound; persistence and
    /// socket errors as their typed variants.
    pub fn run(mut self) -> Result<NodeReport, NodeError> {
        let mut pacer = Pacer::new(Duration::from_millis(self.config.cycle_sleep_ms));
        loop {
            match pacer.until_tick() {
                None => drop(self.cycle()?),
                Some(wait) if self.listener.wait(wait) => drop(self.pump()?),
                Some(_) => continue,
            }
            if self.done() {
                return self.finish();
            }
        }
    }

    /// One turn of the loop, advancing the node's clock one tick: accept →
    /// poll and apply inbound frames → maybe open a round → tick → commit.
    /// Returns the round verdicts and fleet-shrink cues decided since the
    /// previous turn returned (start-up recovery's included); frames it
    /// sends.
    ///
    /// # Errors
    ///
    /// [`NodeError::CycleBudget`] on the liveness bound; a failed trace or
    /// journal write, typed — the turn then has sent nothing.
    pub(crate) fn cycle(&mut self) -> Result<Vec<Effect>, NodeError> {
        self.cycles += 1;
        self.tick += 1;
        if self.cycles > self.config.max_cycles {
            return Err(NodeError::CycleBudget {
                cycles: self.cycles,
            });
        }
        self.turn(true)
    }

    /// A turn between ticks, for input that should not wait for the next:
    /// [`CoordinatorNode::cycle`] without the clock (its events carry the
    /// current tick, no timer moves) and under the same error contract.
    pub(crate) fn pump(&mut self) -> Result<Vec<Effect>, NodeError> {
        self.pumps += 1;
        self.turn(false)
    }

    fn turn(&mut self, tick: bool) -> Result<Vec<Effect>, NodeError> {
        while let Some(conn) = self.listener.accept() {
            self.conns.push(ClientConn { conn, client: None });
        }
        self.poll_connections()?;
        if !self.shutdown {
            self.maybe_start_round()?;
            if tick {
                self.advance_tick()?;
            }
        }
        self.commit()?;
        Ok(std::mem::take(&mut self.surfaced))
    }

    /// Whether the loop is over: a shutdown frame arrived or the round
    /// target is met.
    pub(crate) fn done(&self) -> bool {
        self.shutdown
            || (self.config.target_rounds > 0
                && self.core.rounds_closed() >= self.config.target_rounds)
    }

    /// Orderly exit: final trace sync, journal close, and the node's
    /// history moves into the report (a copy would double the process's
    /// memory at its largest).
    ///
    /// # Errors
    ///
    /// The final sync's typed error.
    pub(crate) fn finish(mut self) -> Result<NodeReport, NodeError> {
        if let Some(sink) = self.sink.as_mut() {
            sink.sync()?;
        }
        if let Some(store) = self.store {
            store.close()?;
        }
        Ok(NodeReport {
            audit: self.core.into_audit(),
            cycles: self.cycles,
            pumps: self.pumps,
            shutdown: self.shutdown,
        })
    }

    fn poll_connections(&mut self) -> Result<(), NodeError> {
        let mut inbound: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        for (i, cc) in self.conns.iter_mut().enumerate() {
            // A lost connection's already-reassembled frames still get
            // delivered; the connection itself is dropped below.
            if drain(&mut cc.conn, |bytes| inbound.push((i, bytes))) {
                dead.insert(i);
            }
        }
        for (i, bytes) in inbound {
            self.on_frame(i, bytes)?;
            if self.shutdown {
                break;
            }
        }
        if !dead.is_empty() {
            let mut index = 0;
            self.conns.retain(|_| {
                let keep = !dead.contains(&index);
                index += 1;
                keep
            });
        }
        Ok(())
    }

    fn on_frame(&mut self, conn_index: usize, bytes: Vec<u8>) -> Result<(), NodeError> {
        // The one decode of the frame happens inside `apply`, on the path
        // replay shares; it reports who the frame was from.
        let tick = self.tick;
        let applied = self.step(TraceEvent::Deliver { tick, bytes })?;
        if let Some(client) = applied.sender {
            self.register(conn_index, client);
        }
        match applied.outcome {
            Ok(effects) => self.dispatch(effects),
            Err(ProtoError::UnknownClient { client }) => {
                // Node-layer nudge (not part of the decision history): an
                // unknown sender — a device whose lease lapsed — is told to
                // rejoin, on the connection it just identified itself on.
                let rejoin = ControlFrame::Rejoin {
                    client,
                    epoch: self.core.coordinator().epoch(),
                };
                self.outbox.push((client, rejoin.encode()));
            }
            // Any other rejection is typed, counted, and final.
            Err(_) => {}
        }
        self.shutdown |= applied.shutdown;
        Ok(())
    }

    fn register(&mut self, conn_index: usize, client: u64) {
        if self
            .conns
            .get(conn_index)
            .is_some_and(|cc| cc.client == Some(client))
        {
            return;
        }
        // Newest identified connection wins. A device that restarted and
        // re-dialed may leave its old connection half-open (no FIN yet);
        // were that one to keep the id, `deliver` would feed it every frame
        // meant for the live one.
        for cc in self.conns.iter_mut().filter(|cc| cc.client == Some(client)) {
            cc.client = None;
        }
        if let Some(cc) = self.conns.get_mut(conn_index) {
            cc.client = Some(client);
            // What waited for the client goes out ahead of the replies.
            let waiting = self.queued.remove(&client).unwrap_or_default();
            self.outbox
                .extend(waiting.into_iter().map(|bytes| (client, bytes)));
        }
    }

    fn maybe_start_round(&mut self) -> Result<(), NodeError> {
        use crate::coordinator::Phase;
        let phase = self.core.coordinator().phase();
        if self.done() || !matches!(phase, Phase::Rendezvous | Phase::RoundClosed) {
            return Ok(());
        }
        // Gate on a live quorum so the trace is not flooded with doomed
        // attempts. The gate needs no determinism — only *recorded*
        // attempts are part of the replayable history.
        let live = self.core.coordinator().live_clients(self.tick).len();
        if live < self.config.coordinator.quorum {
            return Ok(());
        }
        let tick = self.tick;
        let effects = self.step(TraceEvent::StartRound { tick })?.outcome;
        self.dispatch(effects.unwrap_or_default());
        Ok(())
    }

    fn advance_tick(&mut self) -> Result<(), NodeError> {
        let tick = self.tick;
        let effects = self.step(TraceEvent::Tick { tick })?.outcome;
        self.dispatch(effects.unwrap_or_default());
        Ok(())
    }

    /// Feeds one input to the decision core: the event joins the trace
    /// (buffered in the sink) → it is applied. Nothing is durable, and
    /// nothing leaves, before the turn's `commit`.
    fn step(&mut self, event: TraceEvent) -> Result<Applied, NodeError> {
        if let Some(sink) = self.sink.as_mut() {
            sink.append(&event)?;
        }
        Ok(self.core.apply(&event))
    }

    /// The turn's group commit: when the turn grew the journal, one trace
    /// sync makes every event it recorded durable, and the journal file's
    /// new suffix is appended after it (unsynced: `boot` re-derives what a
    /// crash loses); only then does what it decided leave the node.
    fn commit(&mut self) -> Result<(), NodeError> {
        let journal = self.core.coordinator().journal().bytes();
        if journal.len() > self.synced_journal {
            if let Some(sink) = self.sink.as_mut() {
                sink.sync()?;
            }
            self.synced_journal = journal.len();
        }
        if let Some(store) = self.store.as_mut() {
            store.append_to(journal)?;
        }
        for (to, bytes) in std::mem::take(&mut self.outbox) {
            self.deliver(to, bytes);
        }
        Ok(())
    }

    /// Queues the frames among `effects` for the commit; the rest surface
    /// from the turn.
    fn dispatch(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, frame } => self.outbox.push((to, frame.encode())),
                other => self.surfaced.push(other),
            }
        }
    }

    fn deliver(&mut self, to: u64, bytes: Vec<u8>) {
        if let Some(index) = self.conns.iter().position(|cc| cc.client == Some(to)) {
            if self.conns[index].conn.send(&bytes).is_ok() {
                return;
            }
            // A failed send may have left half a frame on the stream, and a
            // peer that stopped reading would stall every later one: the
            // connection goes; the device redials and collects its queue.
            self.conns.remove(index);
        }
        let queue = self.queued.entry(to).or_default();
        if queue.len() < QUEUE_CAP {
            queue.push(bytes);
        }
    }
}

/// Atomically (re)writes `path`: the contents land in `<path>.tmp` and are
/// renamed over it, so a reader never sees a partial file.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), NodeError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let failed = |e: std::io::Error| NodeError::Io {
        op: "atomic write",
        message: format!("{}: {e}", path.display()),
    };
    std::fs::write(&tmp, contents).map_err(failed)?;
    std::fs::rename(&tmp, path).map_err(failed)
}

/// Configuration of a [`ParticipantNode`].
#[derive(Debug, Clone)]
pub struct ParticipantNodeConfig {
    /// The participant state-machine configuration.
    pub participant: ParticipantConfig,
    /// The tick period: one cycle, advancing the participant one tick, per
    /// this much wall time (inbound frames are answered as they arrive).
    pub cycle_sleep_ms: u64,
    /// Liveness bound: stop after this many cycles regardless.
    pub max_cycles: u64,
    /// Cycles between reconnect attempts while disconnected.
    pub reconnect_cycles: u64,
}

impl ParticipantNodeConfig {
    /// Defaults matching [`CoordinatorNodeConfig::new`] pacing.
    pub fn new(participant: ParticipantConfig) -> Self {
        Self {
            participant,
            cycle_sleep_ms: 1,
            max_cycles: 120_000,
            reconnect_cycles: 10,
        }
    }
}

/// What a participant node run produced.
#[derive(Debug, Clone)]
pub struct ParticipantReport {
    /// The participant state machine's own counters.
    pub stats: ParticipantStats,
    /// Cycles spent.
    pub cycles: u64,
    /// Connections re-established after losing one (coordinator death,
    /// desync, or socket error).
    pub reconnects: u64,
}

/// A participant as a frame client: connects (and reconnects, following
/// the port file across coordinator respawns), pumps frames between the
/// connection and the [`Participant`] state machine, and stops when told.
/// Generic over how it dials (`crate::backend::Dialer`); the default is
/// a TCP connect to a [`CoordinatorAddr`].
#[derive(Debug)]
pub struct ParticipantNode<D: Dialer = CoordinatorAddr> {
    dialer: D,
    config: ParticipantNodeConfig,
    participant: Participant,
    conn: Option<D::Conn>,
    started: bool,
    reconnects: u64,
    cycles: u64,
}

impl<D: Dialer> ParticipantNode<D> {
    /// Creates a node that will dial `addr`.
    pub fn new(addr: D, config: ParticipantNodeConfig) -> Self {
        Self {
            dialer: addr,
            participant: Participant::new(config.participant.clone()),
            config,
            conn: None,
            started: false,
            reconnects: 0,
            cycles: 0,
        }
    }

    /// Runs until `stop` is raised or the cycle budget is spent. Frames
    /// emitted while disconnected are dropped — the protocol's
    /// retransmit-with-backoff recovers them, same as under the chaos
    /// link.
    ///
    /// # Errors
    ///
    /// Currently none are fatal (connection problems are retried, the
    /// budget is a clean stop); the `Result` keeps room for future typed
    /// failures.
    pub fn run(&mut self, stop: &AtomicBool) -> Result<ParticipantReport, NodeError> {
        let mut pacer = Pacer::new(Duration::from_millis(self.config.cycle_sleep_ms));
        while self.cycles < self.config.max_cycles && !stop.load(Ordering::Relaxed) {
            let Some(wait) = pacer.until_tick() else {
                self.cycle();
                continue;
            };
            match self.conn.as_mut().map(|conn| conn.wait(wait)) {
                Some(true) => self.pump(),
                Some(false) => {}
                // Nothing to wake on while disconnected.
                None => std::thread::sleep(wait),
            }
        }
        Ok(self.report())
    }

    /// What the node has done so far.
    pub(crate) fn report(&self) -> ParticipantReport {
        ParticipantReport {
            stats: self.participant.stats(),
            cycles: self.cycles,
            reconnects: self.reconnects,
        }
    }

    /// One turn of the loop, advancing the node's clock one tick: dial
    /// when disconnected → poll and apply inbound frames → tick → send.
    pub(crate) fn cycle(&mut self) {
        self.cycles += 1;
        let now = self.cycles;
        if self.conn.is_none() && (now == 1 || now.is_multiple_of(self.config.reconnect_cycles)) {
            if let Some(mut fresh) = self.dialer.dial() {
                if self.started {
                    self.reconnects += 1;
                } else {
                    let join = self.participant.start(now);
                    let _ = fresh.send(&join.encode());
                    self.started = true;
                }
                self.conn = Some(fresh);
            }
        }
        self.pump();
    }

    /// A turn at the current tick, for frames that should not wait for the
    /// next: poll and apply inbound frames → send what is due. (The state
    /// machine's timers compare against the tick, so asking again at the
    /// same tick sends only what the new frames made due.)
    pub(crate) fn pump(&mut self) {
        let now = self.cycles;
        let mut out: Vec<ControlFrame> = Vec::new();
        let mut lost = false;
        if let Some(c) = self.conn.as_mut() {
            lost = drain(c, |bytes| {
                // Rejections leave the machine unchanged; the coordinator's
                // typed errors are its own bookkeeping.
                if let Ok(frames) = self.participant.handle_frame(&bytes, now) {
                    out.extend(frames);
                }
            });
        }
        out.extend(self.participant.tick(now));
        if let Some(c) = self.conn.as_mut() {
            if !lost {
                for frame in &out {
                    if c.send(&frame.encode()).is_err() {
                        lost = true;
                        break;
                    }
                }
            }
        }
        if lost {
            self.conn = None;
        }
    }
}
