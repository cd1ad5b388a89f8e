//! The simulated backend: an in-memory wire and disk under the node loops,
//! which [`crate::Cluster`] drives in lock-step. DESIGN.md §14 lists what it
//! models and what it does not; in short:
//!
//! * **Frames are datagrams.** A sent frame waits in [`SimNet`] until the
//!   driver carries it across a [`crate::ChaosLink`] and delivers it —
//!   whole, or dropped, duplicated, reordered or bit-flipped, never split.
//! * **A connection dies with the coordinator incarnation it was made to**,
//!   and by nothing else: there is no FIN, an abandoned connection stays
//!   half-open on the coordinator's side.
//! * **A file is its synced prefix.** Only `sync` advances [`SimFile`]'s
//!   watermark; a crash keeps what lies below it.
//!
//! Time is the driver's tick; nothing here has a clock.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::rc::Rc;
use std::time::Duration;

use fei_net::transport::TransportError;

use crate::backend::{sealed::Sealed, Conn, Dialer, Listener, Log};
use crate::chaos::Envelope;

/// Index of the participant → coordinator direction.
pub(crate) const UP: usize = 0;
/// Index of the coordinator → participant direction.
pub(crate) const DOWN: usize = 1;

#[derive(Debug)]
struct Link {
    /// Cleared when the coordinator incarnation it was made to dies.
    alive: bool,
    /// Delivered frames not yet polled, per direction.
    arrived: [VecDeque<Vec<u8>>; 2],
}

#[derive(Debug, Default)]
struct Wire {
    /// Whether a coordinator incarnation is up and accepting.
    listening: bool,
    /// Every connection ever dialed; a connection's id is its index.
    links: Vec<Link>,
    /// Dialed, not yet accepted.
    backlog: VecDeque<usize>,
    /// Frames sent and not yet carried, per direction; `Envelope::to` is
    /// the connection id.
    sent: [Vec<Envelope>; 2],
}

/// A handle on the simulated network: the coordinator's [`Listener`], every
/// participant's [`Dialer`], and the driver's view of frames in flight.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimNet(Rc<RefCell<Wire>>);

impl SimNet {
    /// A coordinator incarnation starts listening; this is its listener.
    pub(crate) fn listen(&self) -> SimNet {
        self.0.borrow_mut().listening = true;
        self.clone()
    }

    /// The coordinator died: every connection made to it dies with it.
    pub(crate) fn hang_up(&self) {
        let mut wire = self.0.borrow_mut();
        wire.listening = false;
        wire.backlog.clear();
        wire.links.iter_mut().for_each(|link| link.alive = false);
    }

    /// Takes the frames sent in direction `dir` since the last call.
    pub(crate) fn take_sent(&self, dir: usize) -> Vec<Envelope> {
        std::mem::take(&mut self.0.borrow_mut().sent[dir])
    }

    /// Delivers one carried frame to the far end of its connection and says
    /// whether that connection is alive. Frames bound for a dead
    /// coordinator are lost; frames already in flight to a participant
    /// still arrive (it reads them, then finds the connection lost).
    pub(crate) fn deliver(&self, dir: usize, envelope: Envelope) -> bool {
        let mut wire = self.0.borrow_mut();
        let link = usize::try_from(envelope.to).ok();
        let Some(link) = link.and_then(|id| wire.links.get_mut(id)) else {
            return false;
        };
        if link.alive || dir == DOWN {
            link.arrived[dir].push_back(envelope.bytes);
        }
        link.alive
    }
}

impl Sealed for SimNet {}
impl Listener for SimNet {
    type Conn = SimConn;

    fn accept(&mut self) -> Option<SimConn> {
        let id = self.0.borrow_mut().backlog.pop_front()?;
        let net = self.clone();
        Some(SimConn { net, id, reads: UP })
    }

    /// The simulated wire has no time to wait out: whatever this tick
    /// brings has already been delivered.
    fn wait(&mut self, _: Duration) -> bool {
        true
    }
}

impl Dialer for SimNet {
    type Conn = SimConn;

    fn dial(&mut self) -> Option<SimConn> {
        let mut wire = self.0.borrow_mut();
        if !wire.listening {
            return None;
        }
        let id = wire.links.len();
        wire.links.push(Link {
            alive: true,
            arrived: Default::default(),
        });
        wire.backlog.push_back(id);
        let net = self.clone();
        Some(SimConn {
            net,
            id,
            reads: DOWN,
        })
    }
}

/// One end of a simulated connection.
#[derive(Debug)]
pub(crate) struct SimConn {
    net: SimNet,
    id: usize,
    /// The direction this end reads (it sends in the other).
    reads: usize,
}

impl Sealed for SimConn {}
impl Conn for SimConn {
    fn poll(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut wire = self.net.0.borrow_mut();
        let link = wire.links.get_mut(self.id).ok_or(TransportError::Closed)?;
        match link.arrived[self.reads].pop_front() {
            Some(frame) => Ok(Some(frame)),
            None if link.alive => Ok(None),
            None => Err(TransportError::Closed),
        }
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let mut wire = self.net.0.borrow_mut();
        if !wire.links.get(self.id).is_some_and(|link| link.alive) {
            return Err(TransportError::Closed);
        }
        wire.sent[1 - self.reads].push(Envelope {
            to: self.id as u64,
            bytes: frame.to_vec(),
        });
        Ok(())
    }

    fn wait(&mut self, _: Duration) -> bool {
        true
    }
}

#[derive(Debug, Default)]
struct Disk {
    bytes: Vec<u8>,
    /// Bytes below this mark survive a crash.
    synced: usize,
    /// Appends and syncs attempted so far, and the one that fails, if any.
    ops: u64,
    fail_at: Option<u64>,
    /// Syncs among them.
    syncs: u64,
    /// Unsynced bytes the most recent crash discarded.
    lost: usize,
}

impl Disk {
    fn op(&mut self) -> io::Result<()> {
        self.ops += 1;
        if self.fail_at == Some(self.ops) {
            return Err(io::Error::other("injected disk fault"));
        }
        Ok(())
    }
}

/// A handle on one simulated file. Clones share the file, so the driver
/// keeps one across the death of the node that was writing it.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimFile(Rc<RefCell<Disk>>);

impl SimFile {
    /// The writer was killed: unsynced bytes vanish, except the first
    /// `keep_tail` of them (a write the device happened to complete).
    pub(crate) fn crash(&self, keep_tail: usize) {
        let mut disk = self.0.borrow_mut();
        let keep = disk.synced.saturating_add(keep_tail).min(disk.bytes.len());
        disk.lost = disk.bytes.len() - keep;
        disk.bytes.truncate(keep);
        disk.synced = keep;
    }
}

impl Sealed for SimFile {}
impl Log for SimFile {
    fn contents(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.0.borrow().bytes.clone())
    }

    fn truncate(&mut self, len: usize) -> io::Result<()> {
        let mut disk = self.0.borrow_mut();
        disk.bytes.truncate(len);
        disk.synced = disk.bytes.len();
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut disk = self.0.borrow_mut();
        disk.op()?;
        disk.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut disk = self.0.borrow_mut();
        disk.op()?;
        disk.syncs += 1;
        disk.synced = disk.bytes.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use fei_net::codec::{encode_frame, FRAME_OVERHEAD, MAX_PAYLOAD_LEN};
    use proptest::prelude::*;

    use super::*;
    use crate::coordinator::{CoordinatorConfig, Effect};
    use crate::frames::{AbortReason, ControlFrame};
    use crate::journal::{JournalRecord, RoundJournal};
    use crate::node::{
        replay_trace, CoordinatorNode, CoordinatorNodeConfig, NodeError, ParticipantNode,
        ParticipantNodeConfig,
    };
    use crate::participant::ParticipantConfig;
    use crate::record::scan;
    use crate::store::DiskJournal;
    use crate::trace::TraceEvent;

    /// What the tests need to see of, and do to, a simulated file.
    impl SimFile {
        /// The file's current contents.
        pub(crate) fn bytes(&self) -> Vec<u8> {
            self.0.borrow().bytes.clone()
        }

        /// The bytes a crash right now would keep.
        pub(crate) fn durable(&self) -> Vec<u8> {
            let disk = self.0.borrow();
            disk.bytes[..disk.synced].to_vec()
        }

        /// Unsynced bytes the most recent crash discarded.
        pub(crate) fn lost(&self) -> usize {
            self.0.borrow().lost
        }

        /// Appends and syncs attempted so far.
        pub(crate) fn ops(&self) -> u64 {
            self.0.borrow().ops
        }

        /// Syncs performed so far.
        pub(crate) fn syncs(&self) -> u64 {
            self.0.borrow().syncs
        }

        /// Makes the `op`-th append-or-sync (counted from the file's
        /// creation) fail.
        pub(crate) fn fail_at(&self, op: u64) {
            self.0.borrow_mut().fail_at = Some(op);
        }

        /// Zeroes the file's first `len` bytes, as a power loss can leave
        /// an extent that was never synced.
        pub(crate) fn zero_head(&self, len: usize) {
            self.0.borrow_mut().bytes[..len].fill(0);
        }

        /// Flips every bit of the byte at `at`, as a device that corrupted
        /// an acknowledged write would.
        pub(crate) fn flip(&self, at: usize) {
            self.0.borrow_mut().bytes[at] ^= 0xFF;
        }
    }

    type SimCoordinator = CoordinatorNode<SimNet, SimFile>;

    /// One coordinator node over a quiet simulated wire and disk, stepped
    /// in the cluster's lock-step order.
    struct Rig {
        net: SimNet,
        journal: SimFile,
        trace: SimFile,
        /// Whether the node writes the journal file (it always has a trace).
        store: bool,
        config: CoordinatorNodeConfig,
    }

    impl Rig {
        fn new(k: usize, rounds: u64) -> Rig {
            let mut config = CoordinatorNodeConfig::new(CoordinatorConfig {
                k,
                over_select: 0,
                quorum: k,
                epochs: 1,
                heartbeat_interval: 5,
                heartbeat_timeout: 20,
                round_deadline: 30,
            });
            config.target_rounds = rounds;
            Rig {
                net: SimNet::default(),
                journal: SimFile::default(),
                trace: SimFile::default(),
                store: true,
                config,
            }
        }

        /// The node's start path over this rig's files.
        fn boot(&self) -> Result<SimCoordinator, NodeError> {
            let store = self
                .store
                .then(|| DiskJournal::over(self.journal.clone(), true));
            let (store, trace) = (store.transpose()?, Some(self.trace.clone()));
            CoordinatorNode::boot(self.net.listen(), self.config.clone(), store, trace)
        }

        fn participant(&self, client: u64) -> ParticipantNode<SimNet> {
            let config = ParticipantNodeConfig::new(ParticipantConfig::new(client, 2));
            ParticipantNode::new(self.net.clone(), config)
        }

        /// One tick: participants cycle, their frames cross, the
        /// coordinator cycles, its frames cross. Returns what the
        /// coordinator surfaced and the frames that left it.
        fn tick(
            &self,
            coordinator: &mut SimCoordinator,
            fleet: &mut [&mut ParticipantNode<SimNet>],
        ) -> (Result<Vec<Effect>, NodeError>, Vec<ControlFrame>) {
            for participant in fleet.iter_mut() {
                participant.cycle();
            }
            for envelope in self.net.take_sent(UP) {
                self.net.deliver(UP, envelope);
            }
            let surfaced = coordinator.cycle();
            let mut left = Vec::new();
            for envelope in self.net.take_sent(DOWN) {
                let (frame, _) = ControlFrame::decode(&envelope.bytes).expect("own frame");
                left.push(frame);
                self.net.deliver(DOWN, envelope);
            }
            (surfaced, left)
        }
    }

    #[test]
    fn a_device_that_redials_over_a_half_open_connection_is_not_starved() {
        // K = quorum = 1. Device 7 dials and sends its join, then restarts
        // before the coordinator has even accepted: the restarted process
        // dials again while the first connection stays half-open (the
        // simulated wire has no FIN — a partition, SIGSTOP or NAT timeout).
        // Both connections identify as client 7; every selection notice
        // must go to the one that is alive.
        let rig = Rig::new(1, 3);
        let mut coordinator = rig.boot().expect("boot");
        let mut before_restart = rig.participant(7);
        before_restart.cycle();
        let mut device = rig.participant(7);
        let mut verdicts = Vec::new();
        for _ in 0..200 {
            let (surfaced, _) = rig.tick(&mut coordinator, &mut [&mut device]);
            verdicts.extend(surfaced.expect("fault-free disk"));
            if coordinator.done() {
                break;
            }
        }
        let committed =
            |e: &Effect| matches!(e, Effect::RoundCommitted { accepted, .. } if accepted == &[7]);
        assert_eq!(verdicts.len(), 3, "{verdicts:?}");
        assert!(
            verdicts.iter().all(committed),
            "a connected, heartbeating device was starved: {verdicts:?}"
        );
        device.cycle();
        assert_eq!(device.report().stats.commits, 3);
    }

    /// The journal record that must be durable before `frame` may leave the
    /// coordinator, if it announces a journaled transition.
    fn justified(frame: &ControlFrame, durable: &[JournalRecord]) -> bool {
        durable.iter().any(|record| match (frame, record) {
            (
                ControlFrame::JoinAck { client, .. },
                JournalRecord::ClientJoined { client: c, .. },
            ) => client == c,
            (ControlFrame::Select { round, .. }, JournalRecord::RoundOpened { round: r, .. })
            | (
                ControlFrame::RoundCommit { round, .. },
                JournalRecord::RoundCommitted { round: r, .. },
            )
            | (
                ControlFrame::RoundAbort { round, .. },
                JournalRecord::RoundAborted { round: r, .. },
            ) => round == r,
            (
                ControlFrame::EpochNotice { epoch, .. } | ControlFrame::Rejoin { epoch, .. },
                JournalRecord::EpochStarted { epoch: e, .. },
            ) => epoch == e,
            _ => false,
        })
    }

    /// The events of a trace file's bytes, which end on an event boundary.
    fn events_of(trace: &[u8]) -> Vec<TraceEvent> {
        let (events, torn) = scan(trace, TraceEvent::decode).expect("own trace");
        assert_eq!(torn, 0, "a sync lands on an event boundary");
        events
    }

    /// The journal records the durable trace replays to: what a crash
    /// right now would recover.
    fn durable_records(rig: &Rig) -> Vec<JournalRecord> {
        let events = events_of(&rig.trace.durable());
        let audit = replay_trace(&rig.config.coordinator, &rig.config.global, &events);
        let journal = RoundJournal::from_bytes(audit.journal);
        journal.replay().expect("own journal").records
    }

    /// Runs a two-device, three-round campaign over `rig` until it
    /// completes or the disk fails, asserting the write-ahead order on
    /// every frame that leaves the coordinator, and that it took one trace
    /// sync per turn that grew the journal and no journal sync. Returns
    /// the typed error, if one surfaced.
    fn campaign(rig: &Rig) -> Option<NodeError> {
        let syncs = (rig.journal.syncs(), rig.trace.syncs());
        let mut coordinator = match rig.boot() {
            Ok(node) => node,
            Err(e) => return Some(e),
        };
        // Opening or recovering journals an epoch: the boot's one sync.
        let mut growing_turns = 1;
        let journal_len = |node: &SimCoordinator| node.core().coordinator().journal().len();
        let (mut a, mut b) = (rig.participant(1), rig.participant(2));
        for _ in 0..400 {
            let before = journal_len(&coordinator);
            let (surfaced, left) = rig.tick(&mut coordinator, &mut [&mut a, &mut b]);
            let durable = durable_records(rig);
            for frame in &left {
                assert!(
                    justified(frame, &durable),
                    "{frame:?} left the node before its transition was durable: {durable:?}"
                );
            }
            match surfaced {
                Err(e) => return Some(e),
                Ok(_) => growing_turns += u64::from(journal_len(&coordinator) > before),
            }
            if coordinator.done() {
                break;
            }
        }
        assert_eq!(rig.journal.syncs(), syncs.0, "the journal file never syncs");
        assert_eq!(rig.trace.syncs(), syncs.1 + growing_turns);
        let report = match coordinator.finish() {
            Ok(report) => report,
            Err(e) => return Some(e),
        };
        assert_eq!(report.audit.round_log.len(), 3, "campaign must finish");
        let events = events_of(&rig.trace.bytes());
        let replayed = replay_trace(&rig.config.coordinator, &rig.config.global, &events);
        assert_eq!(replayed, report.audit);
        let journal_file = rig.store.then_some(report.audit.journal);
        assert_eq!(rig.journal.bytes(), journal_file.unwrap_or_default());
        None
    }

    #[test]
    fn a_failing_disk_is_a_typed_error_and_never_outruns_the_journal() {
        // How many disk operations a fault-free campaign makes: one journal
        // append per turn that grew the journal, and the close's sync.
        let clean = Rig::new(2, 3);
        assert!(campaign(&clean).is_none());
        let (journal_ops, trace_ops) = (clean.journal.ops(), clean.trace.ops());
        assert!(journal_ops > 4 && trace_ops > journal_ops);

        // Fail each of them in turn, on either file.
        for (on_journal, ops) in [(true, journal_ops), (false, trace_ops)] {
            for op in 1..=ops {
                let rig = Rig::new(2, 3);
                let file = if on_journal { &rig.journal } else { &rig.trace };
                file.fail_at(op);
                let error = campaign(&rig);
                assert!(
                    matches!(error, Some(NodeError::Store(_) | NodeError::Io { .. })),
                    "op {op} (journal: {on_journal}): {error:?}"
                );
                // The process dies of it; what the disk kept restarts
                // cleanly through the node's start path and finishes.
                rig.net.hang_up();
                rig.journal.crash(0);
                rig.trace.crash(0);
                assert!(campaign(&rig).is_none(), "op {op} (journal: {on_journal})");
            }
        }
    }

    #[test]
    fn a_journal_file_damaged_before_its_tail_is_rebuilt_from_the_trace() {
        // The journal file is never synced, so a crash can leave more than
        // a torn tail in it: here its head is zeroed. The trace still holds
        // every decision, so the restart empties the file and writes the
        // replayed journal back whole; the campaign then finishes with the
        // file equal to the journal (`campaign`'s last check).
        let rig = Rig::new(2, 3);
        let mut coordinator = rig.boot().expect("boot");
        let (mut a, mut b) = (rig.participant(1), rig.participant(2));
        for _ in 0..8 {
            rig.tick(&mut coordinator, &mut [&mut a, &mut b])
                .0
                .expect("fault-free disk");
        }
        drop(coordinator);
        rig.net.hang_up();
        rig.trace.crash(0);
        rig.journal.zero_head(16);
        let damaged = scan(&rig.journal.bytes(), JournalRecord::decode);
        assert!(damaged.is_err(), "damaged, not torn: {damaged:?}");
        assert!(campaign(&rig).is_none());
    }

    #[test]
    fn a_trace_corrupt_mid_file_is_refused_and_left_whole() {
        // Boot applies each event as soon as it reads it, so it is halfway
        // through the history when it meets a byte flipped inside the
        // record that spans the middle of a finished campaign's trace. That
        // is damage, not a torn tail: boot refuses, typed, and cuts
        // nothing, writes nothing and sends nothing. The flipped byte is
        // the record's last body byte (its CRC fails), or the high byte of
        // its length field: the record then claims more bytes than the file
        // holds and reads as truncated, but whole records follow it.
        let last_body_byte = |_start: usize, end: usize| end - 5;
        let length_high_byte = |start: usize, _end: usize| start + 3;
        for flip_at in [last_body_byte, length_high_byte] {
            let rig = Rig::new(2, 3);
            assert!(campaign(&rig).is_none());
            let trace = rig.trace.bytes();
            let (mut start, mut end) = (0, 0);
            for event in events_of(&trace) {
                (start, end) = (end, end + event.encoded_len());
                if end > trace.len() / 2 {
                    break;
                }
            }
            rig.trace.flip(flip_at(start, end));
            let (damaged, journal) = (rig.trace.bytes(), rig.journal.bytes());
            rig.net.hang_up();
            rig.net.take_sent(DOWN);
            let error = rig.boot().expect_err("a corrupt trace is refused");
            assert!(matches!(error, NodeError::Proto(_)), "{error:?}");
            assert_eq!(
                rig.trace.bytes(),
                damaged,
                "the trace keeps its full length"
            );
            assert_eq!(rig.journal.bytes(), journal);
            assert!(rig.net.take_sent(DOWN).is_empty(), "nothing left the node");
        }
    }

    #[test]
    fn a_trace_torn_inside_a_trailing_deliver_cuts_only_that_record() {
        // A traced `Deliver` embeds the whole control frame it delivered.
        // A crash that tears the event after that frame, in its CRC, leaves
        // a complete, CRC-valid frame inside the torn tail; it is not one
        // of the trace's own records, so the tail is still a tear and boot
        // cuts that one event and nothing before it.
        let rig = Rig::new(2, 3);
        let mut coordinator = rig.boot().expect("boot");
        let (mut a, mut b) = (rig.participant(1), rig.participant(2));
        for _ in 0..8 {
            rig.tick(&mut coordinator, &mut [&mut a, &mut b])
                .0
                .expect("fault-free disk");
        }
        drop(coordinator);
        rig.net.hang_up();
        let trace = rig.trace.bytes();
        let (mut at, mut deliver) = (0, None);
        for event in events_of(&trace) {
            if matches!(event, TraceEvent::Deliver { .. }) {
                deliver = Some((at, at + event.encoded_len()));
            }
            at += event.encoded_len();
        }
        let (start, end) = deliver.expect("the campaign delivered frames");
        let torn = &trace[..end - 4];
        let (kept, torn_len) = scan(torn, TraceEvent::decode).expect("a tear, not damage");
        assert_eq!(torn_len, end - 4 - start, "only the torn event is cut");
        rig.trace
            .clone()
            .truncate(torn.len())
            .expect("simulated file");
        rig.journal.crash(0);
        let coordinator = rig.boot().expect("boot over a torn trace");
        drop(coordinator);
        let rebooted = rig.trace.bytes();
        assert_eq!(
            rebooted[..start],
            trace[..start],
            "nothing before it is cut"
        );
        assert_eq!(events_of(&rebooted[..start]), kept);
    }

    #[test]
    fn a_frame_at_the_stream_cap_is_traced_and_read_back_on_restart() {
        // The largest frame a peer's stream admits is traced whole, under a
        // record header of its own, so its trace record is over the cap. A
        // restart reads it back: the cap judges streams, not logs.
        let rig = Rig::new(2, 3);
        let mut coordinator = rig.boot().expect("boot");
        let mut stranger = rig.net.clone().dial().expect("listening");
        let oversized = encode_frame(0x7F, &vec![0xAB; MAX_PAYLOAD_LEN]);
        stranger.send(&oversized).expect("live connection");
        let (mut a, mut b) = (rig.participant(1), rig.participant(2));
        for _ in 0..4 {
            rig.tick(&mut coordinator, &mut [&mut a, &mut b])
                .0
                .expect("fault-free disk");
        }
        let (events, _) = scan(&rig.trace.durable(), TraceEvent::decode).expect("own trace");
        let frame_len = MAX_PAYLOAD_LEN + FRAME_OVERHEAD;
        let at_the_cap = |e: &TraceEvent| matches!(e, TraceEvent::Deliver { bytes, .. } if bytes.len() == frame_len);
        assert!(events.iter().any(at_the_cap), "the frame is durable");
        drop(coordinator);
        rig.net.hang_up();
        rig.journal.crash(0);
        rig.trace.crash(0);
        let mut coordinator = rig.boot().expect("restart over the traced frame");
        for _ in 0..200 {
            rig.tick(&mut coordinator, &mut [&mut a, &mut b])
                .0
                .expect("fault-free disk");
            if coordinator.done() {
                break;
            }
        }
        assert!(
            coordinator.done(),
            "the campaign finishes after the restart"
        );
    }

    #[test]
    fn aborts_are_journaled_before_they_are_announced() {
        // A campaign whose only device goes silent mid-round ends in a
        // quorum miss; the abort broadcast obeys the same write-ahead rule.
        let rig = Rig::new(1, 1);
        let mut coordinator = rig.boot().expect("boot");
        let mut device = rig.participant(3);
        let mut aborted = false;
        for tick in 0..200 {
            let fleet: &mut [&mut ParticipantNode<SimNet>] = if tick < 3 {
                &mut [&mut device]
            } else {
                &mut []
            };
            let (surfaced, left) = rig.tick(&mut coordinator, fleet);
            let durable = durable_records(&rig);
            assert!(left.iter().all(|frame| justified(frame, &durable)));
            aborted |= surfaced.expect("fault-free").iter().any(|e| {
                matches!(
                    e,
                    Effect::RoundAborted {
                        reason: AbortReason::QuorumMiss | AbortReason::FleetCollapse,
                        ..
                    }
                )
            });
        }
        assert!(aborted);
    }

    #[test]
    fn a_trace_only_coordinator_syncs_before_it_acts() {
        // No journal file: the trace alone carries the write-ahead rule, and
        // every frame still waits for its transition to be durable in it.
        assert!(campaign(&Rig {
            store: false,
            ..Rig::new(2, 3)
        })
        .is_none());
    }

    #[test]
    fn a_cycle_commits_once_however_many_events_it_journals() {
        // Three joins land in one cycle: three journaled transitions (and the
        // round they make possible), one trace sync and no journal sync, and
        // every ack leaves only after it.
        let rig = Rig::new(3, 1);
        let mut coordinator = rig.boot().expect("boot");
        let (mut a, mut b, mut c) = (rig.participant(1), rig.participant(2), rig.participant(3));
        let before = (
            rig.journal.syncs(),
            rig.trace.syncs(),
            durable_records(&rig).len(),
        );
        let (surfaced, left) = rig.tick(&mut coordinator, &mut [&mut a, &mut b, &mut c]);
        surfaced.expect("fault-free disk");
        let durable = durable_records(&rig);
        assert!(durable.len() >= before.2 + 3, "{durable:?}");
        assert_eq!(rig.journal.syncs(), before.0);
        assert_eq!(rig.trace.syncs(), before.1 + 1);
        let acks = left
            .iter()
            .filter(|f| matches!(f, ControlFrame::JoinAck { .. }));
        assert_eq!(acks.count(), 3, "{left:?}");
        assert!(
            left.iter().all(|frame| justified(frame, &durable)),
            "{left:?}"
        );
        // Nothing journaled, nothing synced: a quiet cycle costs no fsync.
        let quiet = (rig.journal.syncs(), rig.trace.syncs());
        rig.tick(&mut coordinator, &mut [])
            .0
            .expect("fault-free disk");
        assert_eq!((rig.journal.syncs(), rig.trace.syncs()), quiet);
    }

    #[test]
    fn nudges_and_queued_frames_wait_for_the_commit_too() {
        // A coordinator restarts mid-campaign: recovery's notices queue for
        // devices that have yet to redial and flush when they do; a stranger
        // is nudged. Both kinds leave through the same commit as any reply.
        let rig = Rig::new(2, 3);
        let mut coordinator = rig.boot().expect("boot");
        let (mut a, mut b) = (rig.participant(1), rig.participant(2));
        for _ in 0..8 {
            rig.tick(&mut coordinator, &mut [&mut a, &mut b])
                .0
                .expect("fault-free disk");
        }
        drop(coordinator);
        rig.net.hang_up();
        rig.journal.crash(0);
        rig.trace.crash(0);
        let mut coordinator = rig.boot().expect("restart");
        let mut stranger = rig.net.clone().dial().expect("listening");
        let hello = ControlFrame::Heartbeat {
            client: 99,
            tick: 1,
        };
        stranger.send(&hello.encode()).expect("live connection");
        let (mut notices, mut nudges) = (0, 0);
        for _ in 0..40 {
            let (surfaced, left) = rig.tick(&mut coordinator, &mut [&mut a, &mut b]);
            surfaced.expect("fault-free disk");
            let durable = durable_records(&rig);
            assert!(
                left.iter().all(|frame| justified(frame, &durable)),
                "{left:?}"
            );
            let notice = |f: &&ControlFrame| matches!(f, ControlFrame::EpochNotice { .. });
            notices += left.iter().filter(notice).count();
            let nudge = |f: &&ControlFrame| matches!(f, ControlFrame::Rejoin { client: 99, .. });
            nudges += left.iter().filter(nudge).count();
        }
        // Two out of the queue (recovery found no connection to send them
        // on), and one rejoin nudge to the stranger.
        assert!(notices >= 2, "{notices} epoch notices left");
        assert_eq!(nudges, 1);
        let nudged = stranger.poll().expect("live connection");
        let nudge = nudged.map(|bytes| ControlFrame::decode(&bytes).expect("own frame").0);
        assert_eq!(
            nudge,
            Some(ControlFrame::Rejoin {
                client: 99,
                epoch: 1
            })
        );
    }

    /// Whether `client` is on the coordinator's journaled roster.
    fn on_roster(coordinator: &SimCoordinator, client: u64) -> bool {
        let journal = coordinator.core().coordinator().journal();
        journal.state().roster.contains(&client)
    }

    proptest! {
        /// Re-admission: a device left out of the loop for at least a lease
        /// lapses off the roster with no coordinator restart; once it runs
        /// again its next heartbeat draws a `Rejoin`, and it is back on the
        /// roster within `heartbeat_timeout + 2·retry_base·2^max_retries`
        /// ticks — and selected again.
        #[test]
        fn a_lapsed_device_is_back_on_the_roster_in_bounded_time(
            pause_at in 4u64..60,
            pause_for in 20u64..90,
        ) {
            // K = quorum = 1: device 2 keeps the rounds going meanwhile.
            let rig = Rig::new(1, 10_000);
            let mut coordinator = rig.boot().expect("boot");
            let (mut lapsing, mut steady) = (rig.participant(1), rig.participant(2));
            for _ in 0..pause_at {
                rig.tick(&mut coordinator, &mut [&mut lapsing, &mut steady]).0.expect("fault-free");
            }
            for _ in 0..pause_for {
                rig.tick(&mut coordinator, &mut [&mut steady]).0.expect("fault-free");
            }
            prop_assert!(!on_roster(&coordinator, 1), "the lease lapsed");

            let participant = ParticipantConfig::new(1, 2);
            let timeout = rig.config.coordinator.heartbeat_timeout;
            let bound = timeout + 2 * participant.retry_base * (1 << participant.max_retries);
            let mut back = None;
            let mut selected = false;
            for tick in 1..=bound + timeout {
                let (surfaced, left) = rig.tick(&mut coordinator, &mut [&mut lapsing, &mut steady]);
                surfaced.expect("fault-free");
                if back.is_none() && on_roster(&coordinator, 1) {
                    back = Some(tick);
                }
                selected |= back.is_some()
                    && left.iter().any(|f| matches!(f, ControlFrame::Select { client: 1, .. }));
                if selected {
                    break;
                }
            }
            prop_assert!(back.is_some_and(|tick| tick <= bound), "back after {back:?} > {bound}");
            prop_assert!(selected, "re-admitted but never selected");
            lapsing.cycle();
            prop_assert_eq!(lapsing.report().stats.sessions_rejoined, 1);
        }
    }

    #[test]
    fn pumps_carry_a_whole_round_without_moving_the_clock() {
        // Devices that train in zero ticks: everything a round needs is an
        // answer to a frame, so between two ticks pumps alone carry it.
        let rig = Rig::new(2, 4);
        let mut coordinator = rig.boot().expect("boot");
        let device = |client| {
            let config = ParticipantNodeConfig::new(ParticipantConfig::new(client, 0));
            ParticipantNode::new(rig.net.clone(), config)
        };
        let (mut a, mut b) = (device(1), device(2));
        // Ticks until the first round is open (selection notices sent)...
        let mut opened = false;
        while !opened {
            let (surfaced, left) = rig.tick(&mut coordinator, &mut [&mut a, &mut b]);
            surfaced.expect("fault-free disk");
            opened = left
                .iter()
                .any(|f| matches!(f, ControlFrame::Select { .. }));
        }
        // ...then none: pumps only, until two more rounds have committed.
        let (mut verdicts, mut selects) = (Vec::new(), 0);
        for _ in 0..20 {
            a.pump();
            b.pump();
            for envelope in rig.net.take_sent(UP) {
                rig.net.deliver(UP, envelope);
            }
            verdicts.extend(coordinator.pump().expect("fault-free disk"));
            for envelope in rig.net.take_sent(DOWN) {
                let (frame, _) = ControlFrame::decode(&envelope.bytes).expect("own frame");
                selects += usize::from(matches!(frame, ControlFrame::Select { .. }));
                rig.net.deliver(DOWN, envelope);
            }
        }
        let committed = |e: &Effect| matches!(e, Effect::RoundCommitted { .. });
        assert!(
            verdicts.len() >= 2 && verdicts.iter().all(committed),
            "{verdicts:?}"
        );
        assert!(selects >= 4, "each commit opened the next round: {selects}");

        let report = coordinator.finish().expect("fault-free disk");
        assert!(report.pumps >= 20);
        // The clock stood still: every event of the pumped span carries the
        // last tick's label, a burst of deliveries included, and none is a Tick.
        let events = events_of(&rig.trace.bytes());
        let last_tick = events
            .iter()
            .rposition(|e| matches!(e, TraceEvent::Tick { .. }));
        let pumped = &events[last_tick.expect("ticked before") + 1..];
        let delivers = pumped
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { .. }));
        assert!(delivers.count() >= 4, "{pumped:?}");
        assert!(
            pumped.iter().all(|e| e.tick() == report.cycles),
            "{pumped:?}"
        );
        // And the oracle replays it bit for bit.
        let replayed = replay_trace(&rig.config.coordinator, &rig.config.global, &events);
        assert_eq!(replayed, report.audit);
        assert_eq!(rig.journal.bytes(), report.audit.journal);
    }
}
