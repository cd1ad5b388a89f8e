//! The frame-driven coordinator state machine.
//!
//! An event-driven coordinator that speaks **only** control-plane frames
//! ([`crate::ControlFrame`]) and advances through
//! `Idle → Rendezvous → Selected → Training → RoundClosed`.
//! It owns no transport and no clock: drivers push decoded byte frames via
//! [`Coordinator::handle_frame`] and advance virtual time via
//! [`Coordinator::tick`]; the machine answers with [`Effect`]s (frames to
//! send, rounds committed or aborted). Identical inputs
//! produce identical outputs — the chaos campaign leans on that to replay
//! fault schedules bit-for-bit.
//!
//! Robustness contract:
//!
//! * **liveness** — every opened round reaches `RoundClosed` by its
//!   deadline tick at the latest, committing a quorum-satisfying partial
//!   set or aborting;
//! * **safety** — an update from a client whose heartbeat lease has
//!   expired is never aggregated: late submissions are rejected with
//!   [`ProtoError::ExpiredClient`], and buffered updates are discarded the
//!   moment their sender expires.
//!
//! Whatever must survive a crash — epoch, roster membership, round number,
//! the open round's selection, deadline and buffered updates — lives in the
//! [`RoundJournal`] alone: a transition builds its [`JournalRecord`], the
//! one private `record` appends then folds it, and the machine reads the
//! outcome back as [`JournalState`].

use std::collections::BTreeMap;

use fei_net::wire::WIRE_VERSION;

use crate::error::ProtoError;
use crate::frames::{update_submit_frame_len, AbortReason, ControlFrame};
use crate::journal::{JournalRecord, JournalState, RoundJournal};
use crate::liveness::LivenessTracker;
use crate::round::{first_k_by_arrival, RoundPolicy};

/// Protocol states of the coordinator (and mirrored by participants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not yet accepting anyone.
    Idle,
    /// Accepting joins; no round open.
    Rendezvous,
    /// Selection notices sent; waiting for the first update.
    Selected,
    /// At least one update arrived; collecting the rest.
    Training,
    /// The round ended; ready to open the next.
    RoundClosed,
}

impl Phase {
    /// Human-readable state name, used in typed rejections.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "Idle",
            Phase::Rendezvous => "Rendezvous",
            Phase::Selected => "Selected",
            Phase::Training => "Training",
            Phase::RoundClosed => "RoundClosed",
        }
    }
}

/// Static configuration of a coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorConfig {
    /// Updates aggregated per round (`K`).
    pub k: usize,
    /// Extra selections beyond `K` as a dropout hedge.
    pub over_select: usize,
    /// Minimum aggregated updates for a round to commit.
    pub quorum: usize,
    /// Local epochs announced in selection notices.
    pub epochs: u32,
    /// Ticks between heartbeats participants must send.
    pub heartbeat_interval: u64,
    /// Silent ticks after which a participant is expired.
    pub heartbeat_timeout: u64,
    /// Ticks from round open to the submission deadline.
    pub round_deadline: u64,
}

impl CoordinatorConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when `k` or `quorum` is zero, the quorum exceeds what
    /// selection can deliver, the heartbeat contract is degenerate
    /// (zero interval/timeout, or a timeout not beyond the interval), a
    /// heartbeat timer does not fit the `JoinAck`'s `u32`, or the round
    /// deadline is zero.
    pub(crate) fn validated(self) -> Self {
        let broken = self.violation().map(|(_, message)| message);
        assert!(broken.is_none(), "{}", broken.unwrap_or_default());
        self
    }

    /// The first rule the configuration breaks, if any: the daemon flags
    /// that set the fields involved, and what is wrong with them.
    pub(crate) fn violation(&self) -> Option<(&'static str, String)> {
        let (quorum, width) = (self.quorum, self.k.saturating_add(self.over_select));
        let too_wide = format!("quorum {quorum} cannot exceed the selection width {width}");
        let flapping = "heartbeat timeout must exceed the interval, or every client flaps";
        let (flags, message) = if self.k == 0 {
            ("--k", "K must be at least 1")
        } else if quorum == 0 {
            ("--quorum", "quorum must be at least 1")
        } else if quorum > width {
            ("--quorum/--k/--over-select", too_wide.as_str())
        } else if self.heartbeat_interval == 0 {
            (
                "--heartbeat-interval",
                "heartbeat interval must be positive",
            )
        } else if self.heartbeat_timeout <= self.heartbeat_interval {
            ("--heartbeat-timeout/--heartbeat-interval", flapping)
        } else if u32::try_from(self.heartbeat_timeout).is_err() {
            // Both timers travel in the `JoinAck` as u32; the interval is
            // below the timeout, so bounding the timeout bounds both.
            (
                "--heartbeat-timeout",
                "heartbeat timeout must fit the JoinAck's u32",
            )
        } else if self.round_deadline == 0 {
            ("--round-deadline", "round deadline must be positive")
        } else {
            return None;
        };
        Some((flags, message.to_string()))
    }
}

/// What the coordinator asks its driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send `frame` to client `to`.
    Send {
        /// Destination client id.
        to: u64,
        /// The frame to deliver.
        frame: ControlFrame,
    },
    /// A round committed with these aggregated clients (ascending).
    RoundCommitted {
        /// The committed round.
        round: u64,
        /// Clients whose updates were aggregated.
        accepted: Vec<u64>,
    },
    /// A round closed without commit.
    RoundAborted {
        /// The aborted round.
        round: u64,
        /// Why.
        reason: AbortReason,
    },
}

/// Per-reason round-abort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortBreakdown {
    /// Rounds aborted for missing quorum at the deadline.
    pub quorum_miss: u64,
    /// Rounds aborted because the live fleet collapsed mid-round.
    pub fleet_collapse: u64,
    /// Rounds cancelled by the driver.
    pub cancelled: u64,
    /// Rounds abandoned by crash recovery.
    pub coordinator_crash: u64,
}

impl AbortBreakdown {
    /// Counts one abort under its reason.
    pub(crate) fn record(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::QuorumMiss => self.quorum_miss += 1,
            AbortReason::FleetCollapse => self.fleet_collapse += 1,
            AbortReason::Cancelled => self.cancelled += 1,
            AbortReason::CoordinatorCrash => self.coordinator_crash += 1,
        }
    }
}

/// Control-plane traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Frames accepted by `handle_frame`.
    pub frames_in: u64,
    /// Bytes of accepted inbound frames.
    pub bytes_in: u64,
    /// Frames emitted via `Send` effects.
    pub frames_out: u64,
    /// Bytes of emitted frames.
    pub bytes_out: u64,
    /// Frames rejected with a typed error.
    pub rejected: u64,
    /// Updates rejected because their sender's lease had expired.
    pub expired_rejections: u64,
    /// Rounds that committed.
    pub committed_rounds: u64,
    /// Rounds that aborted (any reason; see [`ControlStats::aborts`]).
    pub aborted_rounds: u64,
    /// Abort-reason breakdown of [`ControlStats::aborted_rounds`].
    pub aborts: AbortBreakdown,
    /// In-flight rounds carried across a crash by [`Coordinator::recover`].
    pub resumed_rounds: u64,
    /// Updates rejected because their round was abandoned by recovery.
    pub recovered_rejections: u64,
    /// Upload bytes whose rounds were abandoned by recovery — pre-crash
    /// work the energy ledger should bill as wasted.
    pub wasted_update_bytes: u64,
}

/// One [`ControlStats`] counter: its stats-file key and its accessor.
pub(crate) type StatField = (&'static str, fn(&mut ControlStats) -> &mut u64);

impl ControlStats {
    /// Every counter, once — the list [`ControlStats::absorb`] and the
    /// daemon's stats-file format and parser all walk.
    pub(crate) const FIELDS: [StatField; 15] = [
        ("frames_in", |s| &mut s.frames_in),
        ("bytes_in", |s| &mut s.bytes_in),
        ("frames_out", |s| &mut s.frames_out),
        ("bytes_out", |s| &mut s.bytes_out),
        ("rejected", |s| &mut s.rejected),
        ("expired_rejections", |s| &mut s.expired_rejections),
        ("committed_rounds", |s| &mut s.committed_rounds),
        ("aborted_rounds", |s| &mut s.aborted_rounds),
        ("aborts_quorum_miss", |s| &mut s.aborts.quorum_miss),
        ("aborts_fleet_collapse", |s| &mut s.aborts.fleet_collapse),
        ("aborts_cancelled", |s| &mut s.aborts.cancelled),
        ("aborts_coordinator_crash", |s| {
            &mut s.aborts.coordinator_crash
        }),
        ("resumed_rounds", |s| &mut s.resumed_rounds),
        ("recovered_rejections", |s| &mut s.recovered_rejections),
        ("wasted_update_bytes", |s| &mut s.wasted_update_bytes),
    ];

    /// Folds another incarnation's counters into this one — how a driver
    /// totals traffic across coordinator restarts.
    pub(crate) fn absorb(&mut self, mut other: ControlStats) {
        for (_, field) in Self::FIELDS {
            *field(self) += *field(&mut other);
        }
    }
}

/// The coordinator state machine.
#[derive(Debug, Clone)]
pub struct Coordinator {
    config: CoordinatorConfig,
    phase: Phase,
    /// Lease ticks of the roster in [`JournalState::roster`].
    liveness: LivenessTracker,
    /// Wire-v2 payload of the current global model, shipped in `Select`.
    global: Vec<u8>,
    /// The write-ahead log and the state it folds to (epoch, roster, round
    /// number, the open round), changed only by [`Coordinator::record`].
    journal: RoundJournal,
    /// The round recovery abandoned, if any — late frames for it get a
    /// typed [`ProtoError::Recovered`] rather than a confusing
    /// `WrongRound`.
    recovered_round: Option<u64>,
    stats: ControlStats,
}

impl Coordinator {
    /// Creates an idle coordinator.
    ///
    /// # Panics
    ///
    /// Same validation as `CoordinatorConfig::validated`.
    pub fn new(config: CoordinatorConfig) -> Self {
        let config = config.validated();
        let liveness = LivenessTracker::new(config.heartbeat_timeout);
        Self {
            config,
            phase: Phase::Idle,
            liveness,
            global: Vec::new(),
            journal: RoundJournal::new(),
            recovered_round: None,
            stats: ControlStats::default(),
        }
    }

    /// Rebuilds a coordinator from the durable journal of a crashed
    /// incarnation, at tick `now`.
    ///
    /// Adopting the journal (`RoundJournal::adopt`) runs the fold the
    /// crashed incarnation ran on every append, so roster, epoch and any
    /// in-flight round are back as it held them; the rest is the
    /// continuation every recovery shares, in place or from bytes. Every
    /// roster member gets its lease re-armed at `now`
    /// (they will be re-expired on their usual timeout if they do not
    /// heartbeat). A round in flight is **resumed** as it stood — minus
    /// any buffered update an expiry had already voided —
    /// when its deadline has not passed and enough selected clients survive
    /// in the roster to still reach quorum; otherwise it is **aborted** with
    /// [`AbortReason::CoordinatorCrash`], its buffered upload bytes are
    /// counted into [`ControlStats::wasted_update_bytes`], and late frames
    /// for it are rejected with [`ProtoError::Recovered`]. Either way the
    /// verdict lands within one recovery step of the restart.
    ///
    /// The returned effects carry the abort broadcast (if any) and an
    /// [`ControlFrame::EpochNotice`] to every roster member — a one-way
    /// hint on which a participant re-sends any pending upload at once.
    ///
    /// # Errors
    ///
    /// Journal decode errors ([`ProtoError::Codec`] and friends) on
    /// mid-log corruption; a torn trailing record from the crash itself is
    /// tolerated and cut off.
    ///
    /// # Panics
    ///
    /// Same configuration validation as `CoordinatorConfig::validated`.
    pub fn recover(
        config: CoordinatorConfig,
        journal_bytes: &[u8],
        now: u64,
    ) -> Result<(Self, Vec<Effect>), ProtoError> {
        let journal = RoundJournal::adopt(journal_bytes)?;
        Ok(Self::resume(config, journal, now))
    }

    /// [`Coordinator::recover`] in place: the next incarnation takes this
    /// one's journal over as it stands — already folded, neither copied
    /// nor decoded again — and replaces it.
    pub(crate) fn restart(&mut self, now: u64) -> Vec<Effect> {
        let journal = std::mem::take(&mut self.journal);
        let (next, effects) = Self::resume(self.config.clone(), journal, now);
        *self = next;
        effects
    }

    /// The continuation of every recovery: a new incarnation over
    /// `journal`, whose state already holds the fold of its records.
    fn resume(config: CoordinatorConfig, journal: RoundJournal, now: u64) -> (Self, Vec<Effect>) {
        let mut c = Self {
            journal,
            ..Self::new(config)
        };
        let roster: Vec<u64> = c.state().roster.iter().copied().collect();
        for &client in &roster {
            c.liveness.register(client, now);
        }
        c.record(JournalRecord::EpochStarted {
            epoch: c.epoch() + 1,
            tick: now,
        });
        c.phase = Phase::Rendezvous;

        let mut effects = Vec::new();
        if let Some(open) = c.journal.state().open_round.as_ref() {
            let live_selected = open.selected.intersection(&c.journal.state().roster);
            if now < open.deadline_tick && live_selected.count() >= c.config.quorum {
                // Resume: the fold holds the round; re-journal its marker
                // under the new incarnation (a duplicate to the fold).
                c.phase = if open.updates.is_empty() {
                    Phase::Selected
                } else {
                    Phase::Training
                };
                c.stats.resumed_rounds += 1;
                c.record(JournalRecord::RoundOpened {
                    round: open.round,
                    deadline_tick: open.deadline_tick,
                    tick: now,
                    selected: open.selected.iter().copied().collect(),
                });
            } else {
                // Abort cleanly: the pre-crash upload bytes are wasted
                // work for the energy ledger to bill.
                for (_, payload) in open.updates.values() {
                    c.stats.wasted_update_bytes += update_submit_frame_len(payload.len()) as u64;
                }
                c.recovered_round = Some(open.round);
                effects.extend(c.close_round(now, Some(AbortReason::CoordinatorCrash)));
            }
        }
        for client in roster {
            let notice = ControlFrame::EpochNotice {
                epoch: c.epoch(),
                round: c.round(),
            };
            effects.push(c.send(client, notice));
        }
        (c, effects)
    }

    /// Current protocol state.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The round in progress (or the next to open).
    pub fn round(&self) -> u64 {
        let state = self.state();
        state
            .open_round
            .as_ref()
            .map_or(state.next_round, |o| o.round)
    }

    /// The incarnation number (0 until the first recovery).
    pub fn epoch(&self) -> u64 {
        self.state().epoch
    }

    /// The write-ahead journal. A driver modelling a durable log snapshots
    /// [`RoundJournal::bytes`] and feeds them to [`Coordinator::recover`].
    pub fn journal(&self) -> &RoundJournal {
        &self.journal
    }

    /// The journaled state, as of the last record.
    fn state(&self) -> &JournalState {
        self.journal.state()
    }

    /// The one mutator of journaled state: write-ahead append, then fold.
    /// A transition's effects are built only after its record.
    fn record(&mut self, record: JournalRecord) {
        self.journal.record(record);
    }

    /// The write-ahead journal, by value (the coordinator is finished).
    pub(crate) fn into_journal(self) -> RoundJournal {
        self.journal
    }

    /// The round abandoned by the last recovery, if any.
    pub fn recovered_round(&self) -> Option<u64> {
        self.recovered_round
    }

    /// Traffic counters.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Live clients at `now`, ascending.
    pub(crate) fn live_clients(&self, now: u64) -> Vec<u64> {
        self.liveness.live_clients(now)
    }

    /// Buffered update payloads of the open round (client → samples,
    /// wire-v2 bytes); once it commits and until the next round opens,
    /// exactly the accepted set — for drivers that aggregate on commit.
    pub fn update_payloads(&self) -> &BTreeMap<u64, (u32, Vec<u8>)> {
        let state = self.state();
        state
            .open_round
            .as_ref()
            .map_or(&state.committed, |o| &o.updates)
    }

    /// Replaces the global-model payload shipped in selection notices.
    pub fn set_global(&mut self, payload: Vec<u8>) {
        self.global = payload;
    }

    /// Opens the rendezvous: joins are now accepted.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnexpectedFrame`] unless the coordinator is idle.
    pub fn open_rendezvous(&mut self) -> Result<(), ProtoError> {
        match self.phase {
            Phase::Idle => {
                self.record(JournalRecord::EpochStarted {
                    epoch: self.epoch(),
                    tick: 0,
                });
                self.phase = Phase::Rendezvous;
                Ok(())
            }
            other => Err(ProtoError::UnexpectedFrame {
                state: other.name(),
                frame: "open_rendezvous",
            }),
        }
    }

    /// Opens the next round at `now`: expires stale leases, checks the
    /// quorum against the live fleet, and emits a selection notice to the
    /// first `min(K + m, alive)` live clients in id order.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnexpectedFrame`] when no round can open from the
    /// current state, [`ProtoError::QuorumLost`] when too few clients are
    /// live (the state is unchanged; the driver may re-plan and retry).
    pub fn start_round(&mut self, now: u64) -> Result<Vec<Effect>, ProtoError> {
        if !matches!(self.phase, Phase::Rendezvous | Phase::RoundClosed) {
            return Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: "start_round",
            });
        }
        self.expire(now);
        let mut live = self.liveness.live_clients(now);
        let policy = self.policy();
        let round = self.round();
        if live.len() < policy.quorum {
            return Err(ProtoError::QuorumLost {
                round,
                alive: live.len(),
                required: policy.quorum,
            });
        }
        let mut effects = Vec::new();
        live.truncate(policy.selection_width(live.len()));
        let deadline_tick = now + self.config.round_deadline;
        self.record(JournalRecord::RoundOpened {
            round,
            deadline_tick,
            tick: now,
            selected: live.clone(),
        });
        self.phase = Phase::Selected;
        for client in live {
            effects.push(self.send(
                client,
                ControlFrame::Select {
                    round,
                    client,
                    epochs: self.config.epochs,
                    deadline_tick,
                    global: self.global.clone(),
                },
            ));
        }
        Ok(effects)
    }

    /// Feeds one inbound byte frame at `now`.
    ///
    /// Every frame in every state has exactly one defined outcome: a
    /// transition (possibly emitting effects) or a typed rejection. This
    /// function never panics on wire input.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]; rejected frames are counted in
    /// [`ControlStats::rejected`] and leave the round state unchanged.
    pub fn handle_frame(&mut self, bytes: &[u8], now: u64) -> Result<Vec<Effect>, ProtoError> {
        let frame = self.admit(bytes)?;
        self.handle_control(frame, now)
    }

    /// The decode half of [`Coordinator::handle_frame`]: verifies and
    /// decodes one inbound byte frame and counts it as traffic, leaving the
    /// transition to [`Coordinator::handle_control`] — for drivers that
    /// need to look at the frame (who sent it) without decoding it twice.
    ///
    /// # Errors
    ///
    /// The decode's [`ProtoError`], counted in [`ControlStats::rejected`].
    pub(crate) fn admit(&mut self, bytes: &[u8]) -> Result<ControlFrame, ProtoError> {
        let (frame, consumed) = ControlFrame::decode(bytes).inspect_err(|_| {
            self.stats.rejected += 1;
        })?;
        self.stats.frames_in += 1;
        self.stats.bytes_in += consumed as u64;
        Ok(frame)
    }

    /// Feeds one decoded control frame at `now` (the typed twin of
    /// [`Coordinator::handle_frame`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Coordinator::handle_frame`].
    pub fn handle_control(
        &mut self,
        frame: ControlFrame,
        now: u64,
    ) -> Result<Vec<Effect>, ProtoError> {
        self.dispatch(frame, now).inspect_err(|_| {
            self.stats.rejected += 1;
        })
    }

    fn dispatch(&mut self, frame: ControlFrame, now: u64) -> Result<Vec<Effect>, ProtoError> {
        match frame {
            ControlFrame::JoinRequest {
                client,
                wire_version,
            } => self.on_join(client, wire_version, now),
            ControlFrame::Heartbeat { client, .. } => {
                self.liveness.beat(client, now)?;
                Ok(Vec::new())
            }
            ControlFrame::UpdateSubmit {
                round,
                client,
                samples,
                update,
            } => self.on_update(round, client, samples, update, now),
            ControlFrame::Shutdown => Ok(self.cancel_round(now)),
            // Downstream frames have no coordinator-side transition in any
            // state.
            other => Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: other.name(),
            }),
        }
    }

    /// Advances virtual time: expires leases (discarding any buffered
    /// update of an expired client), aborts the round if the live fleet
    /// collapses below quorum, and closes the round at its deadline tick.
    pub fn tick(&mut self, now: u64) -> Vec<Effect> {
        self.expire(now);
        let Some(open) = self.state().open_round.as_ref() else {
            return Vec::new();
        };
        if self.liveness.live_count(now) < self.config.quorum {
            return self.close_round(now, Some(AbortReason::FleetCollapse));
        }
        if now >= open.deadline_tick {
            return self.close_round(now, None);
        }
        Vec::new()
    }

    /// Journals every lease that lapsed by `now`; the fold drops the client
    /// from the roster and voids its buffered update.
    fn expire(&mut self, now: u64) {
        for client in self.liveness.expire(now) {
            self.record(JournalRecord::ClientExpired { client, tick: now });
        }
    }

    /// Cancels the open round for a graceful shutdown (the
    /// [`ControlFrame::Shutdown`] path): the abort is journaled as
    /// [`AbortReason::Cancelled`] and broadcast to every selected client
    /// before the caller exits, so participants stop training instead of
    /// burning energy on a round nobody will aggregate. With no round open
    /// this is a no-op — the coordinator can exit without ceremony.
    pub(crate) fn cancel_round(&mut self, now: u64) -> Vec<Effect> {
        self.close_round(now, Some(AbortReason::Cancelled))
    }

    /// The round policy derived from the configuration. Deadline admission
    /// runs on ticks here, so the policy itself carries no deadline.
    fn policy(&self) -> RoundPolicy {
        RoundPolicy {
            k: self.config.k,
            over_select: self.config.over_select,
            quorum: self.config.quorum,
            deadline_s: None,
        }
    }

    fn on_join(
        &mut self,
        client: u64,
        wire_version: u8,
        now: u64,
    ) -> Result<Vec<Effect>, ProtoError> {
        if self.phase == Phase::Idle {
            return Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: "JoinRequest",
            });
        }
        // The handshake version gate: a client encoding payloads with a
        // different wire codec is rejected before it can ship any.
        if wire_version != WIRE_VERSION {
            return Err(ProtoError::VersionMismatch {
                expected: WIRE_VERSION,
                found: wire_version,
            });
        }
        if !self.state().roster.contains(&client) {
            self.record(JournalRecord::ClientJoined { client, tick: now });
        }
        self.liveness.register(client, now);
        let ack = self.send(
            client,
            ControlFrame::JoinAck {
                client,
                heartbeat_interval: u32::try_from(self.config.heartbeat_interval)
                    .expect("invariant: validated() bounds the heartbeat timers to u32"),
                heartbeat_timeout: u32::try_from(self.config.heartbeat_timeout)
                    .expect("invariant: validated() bounds the heartbeat timers to u32"),
            },
        );
        Ok(vec![ack])
    }

    fn on_update(
        &mut self,
        round: u64,
        client: u64,
        samples: u32,
        update: Vec<u8>,
        now: u64,
    ) -> Result<Vec<Effect>, ProtoError> {
        let current = self.round();
        if self.recovered_round == Some(round) && round != current {
            self.stats.recovered_rejections += 1;
            return Err(ProtoError::Recovered { round });
        }
        let Some(open) = self.state().open_round.as_ref() else {
            return Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: "UpdateSubmit",
            });
        };
        if round != current {
            return Err(ProtoError::WrongRound {
                current,
                got: round,
            });
        }
        if !open.selected.contains(&client) {
            return Err(ProtoError::NotSelected { client });
        }
        if !self.liveness.is_live(client, now) {
            self.stats.expired_rejections += 1;
            return Err(ProtoError::ExpiredClient { client });
        }
        if open.updates.contains_key(&client) {
            return Err(ProtoError::DuplicateUpdate { client });
        }
        self.record(JournalRecord::UpdateAccepted {
            round,
            client,
            samples,
            tick: now,
            update,
        });
        self.phase = Phase::Training;
        // Early close: every selected client delivered; no reason to wait
        // for the deadline.
        let open = self.state().open_round.as_ref();
        if open.is_some_and(|open| open.updates.len() == open.selected.len()) {
            return Ok(self.close_round(now, None));
        }
        Ok(Vec::new())
    }

    /// Closes the open round, if any: ranks the surviving arrivals through
    /// the shared decision core, commits a quorum-satisfying set or aborts,
    /// and broadcasts the verdict to every selected client.
    fn close_round(&mut self, now: u64, forced: Option<AbortReason>) -> Vec<Effect> {
        let Some(open) = self.state().open_round.as_ref() else {
            return Vec::new();
        };
        let round = open.round;
        let selected: Vec<u64> = open.selected.iter().copied().collect();
        // Only arrivals whose sender is *still live* survive to ranking —
        // expiry between submission and close voids the update.
        let arrivals: Vec<(f64, u64)> = open
            .arrivals
            .iter()
            .filter(|&&(_, client)| self.liveness.is_live(client, now))
            .map(|&(tick, client)| (tick as f64, client))
            .collect();
        let accepted = first_k_by_arrival(arrivals, self.config.k);

        let verdict = match forced {
            Some(reason) => Err(reason),
            None if accepted.len() >= self.config.quorum => Ok(()),
            None => Err(AbortReason::QuorumMiss),
        };
        // The verdict is durable before any verdict effect leaves the
        // machine: a crash from here on replays as a closed round.
        self.record(match verdict {
            Ok(()) => JournalRecord::RoundCommitted {
                round,
                tick: now,
                accepted: accepted.clone(),
            },
            Err(reason) => JournalRecord::RoundAborted {
                round,
                reason,
                tick: now,
            },
        });
        self.phase = Phase::RoundClosed;

        let mut effects = Vec::new();
        match verdict {
            Ok(()) => {
                self.stats.committed_rounds += 1;
                for client in selected {
                    let accepted = accepted.clone();
                    effects.push(self.send(client, ControlFrame::RoundCommit { round, accepted }));
                }
                effects.push(Effect::RoundCommitted { round, accepted });
            }
            Err(reason) => {
                self.stats.aborted_rounds += 1;
                self.stats.aborts.record(reason);
                for client in selected {
                    effects.push(self.send(client, ControlFrame::RoundAbort { round, reason }));
                }
                effects.push(Effect::RoundAborted { round, reason });
            }
        }
        effects
    }

    fn send(&mut self, to: u64, frame: ControlFrame) -> Effect {
        self.stats.frames_out += 1;
        self.stats.bytes_out += frame.encoded_len() as u64;
        Effect::Send { to, frame }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    pub(crate) fn config() -> CoordinatorConfig {
        CoordinatorConfig {
            k: 2,
            over_select: 1,
            quorum: 2,
            epochs: 5,
            heartbeat_interval: 5,
            heartbeat_timeout: 20,
            round_deadline: 50,
        }
    }

    fn joined(n: u64) -> Coordinator {
        let mut coordinator = Coordinator::new(config());
        coordinator.open_rendezvous().expect("idle coordinator");
        for client in 0..n {
            let effects = coordinator
                .handle_control(
                    ControlFrame::JoinRequest {
                        client,
                        wire_version: WIRE_VERSION,
                    },
                    0,
                )
                .expect("join accepted");
            assert!(matches!(
                effects[0],
                Effect::Send {
                    frame: ControlFrame::JoinAck { .. },
                    ..
                }
            ));
        }
        coordinator
    }

    fn submit(client: u64, round: u64) -> ControlFrame {
        ControlFrame::UpdateSubmit {
            round,
            client,
            samples: 10,
            update: vec![client as u8],
        }
    }

    #[test]
    fn happy_path_walks_all_phases() {
        let mut c = joined(3);
        assert_eq!(c.phase(), Phase::Rendezvous);
        let effects = c.start_round(10).expect("quorum of 3");
        assert_eq!(c.phase(), Phase::Selected);
        // k + over_select = 3 selection notices.
        assert_eq!(effects.len(), 3);
        c.handle_control(submit(0, 0), 12).expect("first update");
        assert_eq!(c.phase(), Phase::Training);
        c.handle_control(submit(1, 0), 13).expect("second update");
        // Third delivery closes early with a full commit.
        let effects = c.handle_control(submit(2, 0), 14).expect("third update");
        assert_eq!(c.phase(), Phase::RoundClosed);
        let committed = effects.iter().find_map(|e| match e {
            Effect::RoundCommitted { round, accepted } => Some((*round, accepted.clone())),
            _ => None,
        });
        // First K = 2 arrivals win: clients 0 and 1.
        assert_eq!(committed, Some((0, vec![0, 1])));
        assert_eq!(c.round(), 1);
    }

    #[test]
    fn shutdown_frame_cancels_open_round() {
        let mut c = joined(3);
        c.start_round(10).expect("quorum of 3");
        c.handle_control(submit(0, 0), 12).expect("first update");
        assert_eq!(c.phase(), Phase::Training);
        let effects = c
            .handle_control(ControlFrame::Shutdown, 15)
            .expect("shutdown is always accepted");
        assert_eq!(c.phase(), Phase::RoundClosed);
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::RoundAborted {
                round: 0,
                reason: AbortReason::Cancelled,
            }
        )));
        // The abort is broadcast to every selected client.
        let aborts = effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        frame: ControlFrame::RoundAbort {
                            reason: AbortReason::Cancelled,
                            ..
                        },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(aborts, 3);
        assert_eq!(c.stats().aborts.cancelled, 1);
        // Durable: the journaled verdict replays as a cancelled round.
        let replay = c.journal().replay().expect("clean journal");
        let state = crate::journal::JournalState::from_records(&replay.records);
        assert!(state.open_round.is_none());
    }

    #[test]
    fn shutdown_between_rounds_is_a_quiet_no_op() {
        let mut c = joined(2);
        assert_eq!(c.phase(), Phase::Rendezvous);
        let effects = c
            .handle_control(ControlFrame::Shutdown, 5)
            .expect("shutdown accepted in rendezvous");
        assert!(effects.is_empty());
        assert_eq!(c.phase(), Phase::Rendezvous);
        assert_eq!(c.stats().aborted_rounds, 0);
    }

    #[test]
    fn deadline_closes_with_quorum_partial() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum of 3");
        c.handle_control(submit(0, 0), 5).expect("update 0");
        c.handle_control(submit(1, 0), 6).expect("update 1");
        // Client 2 never submits; everyone keeps heartbeating.
        for client in 0..3 {
            c.handle_control(ControlFrame::Heartbeat { client, tick: 40 }, 40)
                .expect("beat");
        }
        assert!(c.tick(49).is_empty(), "before the deadline nothing closes");
        let effects = c.tick(50);
        let committed = effects.iter().any(
            |e| matches!(e, Effect::RoundCommitted { accepted, .. } if accepted == &vec![0, 1]),
        );
        assert!(
            committed,
            "partial close must commit the quorum: {effects:?}"
        );
    }

    #[test]
    fn deadline_without_quorum_aborts() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum of 3");
        c.handle_control(submit(0, 0), 5).expect("update 0");
        for client in 0..3 {
            c.handle_control(ControlFrame::Heartbeat { client, tick: 40 }, 40)
                .expect("beat");
        }
        let effects = c.tick(50);
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::RoundAborted {
                    reason: AbortReason::QuorumMiss,
                    ..
                }
            )),
            "{effects:?}"
        );
        assert_eq!(c.phase(), Phase::RoundClosed);
    }

    #[test]
    fn expired_client_update_is_rejected_and_never_aggregated() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum of 3");
        // Clients 0 and 1 keep their leases alive; client 2 goes silent.
        for tick in [10u64, 19] {
            for client in [0u64, 1] {
                c.handle_control(ControlFrame::Heartbeat { client, tick }, tick)
                    .expect("beat");
            }
        }
        // Client 2's lease (registered at 0, timeout 20) lapses at tick 20.
        let err = c.handle_control(submit(2, 0), 20);
        assert_eq!(err, Err(ProtoError::ExpiredClient { client: 2 }));
        assert_eq!(c.stats().expired_rejections, 1);
        // The others commit without it.
        c.handle_control(submit(0, 0), 21).expect("update 0");
        c.handle_control(submit(1, 0), 22).expect("update 1");
        for client in [0u64, 1] {
            c.handle_control(ControlFrame::Heartbeat { client, tick: 38 }, 38)
                .expect("beat");
        }
        let effects = c.tick(50);
        let accepted = effects.iter().find_map(|e| match e {
            Effect::RoundCommitted { accepted, .. } => Some(accepted.clone()),
            _ => None,
        });
        assert_eq!(accepted, Some(vec![0, 1]));
    }

    #[test]
    fn buffered_update_is_discarded_when_its_sender_expires() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum of 3");
        // Client 2 submits while live, then goes silent past its lease.
        c.handle_control(submit(2, 0), 1).expect("in-time update");
        for tick in [10u64, 19, 28, 37, 46] {
            for client in [0u64, 1] {
                c.handle_control(ControlFrame::Heartbeat { client, tick }, tick)
                    .expect("beat");
            }
        }
        c.handle_control(submit(0, 0), 30).expect("update 0");
        // Every selected client has now delivered, so this submission
        // closes the round early — at tick 31, past client 2's lease.
        let effects = c.handle_control(submit(1, 0), 31).expect("update 1");
        let accepted = effects.iter().find_map(|e| match e {
            Effect::RoundCommitted { accepted, .. } => Some(accepted.clone()),
            _ => None,
        });
        // Client 2 expired at tick 20 < 31: its buffered update is void.
        assert_eq!(accepted, Some(vec![0, 1]));
        assert!(!c.update_payloads().contains_key(&2));
    }

    #[test]
    fn fleet_collapse_aborts_the_round() {
        let mut c = joined(2);
        c.start_round(0).expect("exactly at quorum");
        // Nobody heartbeats: both leases lapse at tick 20.
        let effects = c.tick(20);
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::RoundAborted {
                reason: AbortReason::FleetCollapse,
                ..
            }
        )));
    }

    #[test]
    fn a_shrunken_fleet_opens_only_at_quorum() {
        let mut c = joined(1);
        // quorum is 2 > 1 live → cannot open.
        assert_eq!(
            c.start_round(5),
            Err(ProtoError::QuorumLost {
                round: 0,
                alive: 1,
                required: 2
            })
        );
        // Relax to a 1-quorum coordinator: with 1 < k = 2 live clients the
        // round opens on the one that is live.
        let mut config = config();
        config.quorum = 1;
        let mut c = Coordinator::new(config);
        c.open_rendezvous().expect("idle");
        c.handle_control(
            ControlFrame::JoinRequest {
                client: 0,
                wire_version: WIRE_VERSION,
            },
            0,
        )
        .expect("join");
        let effects = c.start_round(1).expect("1-quorum");
        let selected: Vec<u64> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    frame: ControlFrame::Select { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(selected, vec![0]);
    }

    #[test]
    fn heartbeat_timers_past_the_join_acks_u32_are_rejected_by_flag() {
        // `on_join` sends both timers as u32: unchecked, `u32::MAX + 21`
        // would reach participants as 20 while leases expire at the real value.
        let wrapping = CoordinatorConfig {
            heartbeat_timeout: u64::from(u32::MAX) + 21,
            ..config()
        };
        let (flags, _) = wrapping.violation().expect("a wrapping timeout");
        assert_eq!(flags, "--heartbeat-timeout");
        let both = CoordinatorConfig {
            heartbeat_interval: u64::from(u32::MAX) + 1,
            ..wrapping
        };
        let (flags, _) = both.violation().expect("a wrapping interval");
        assert_eq!(flags, "--heartbeat-timeout");
        let widest = CoordinatorConfig {
            heartbeat_timeout: u64::from(u32::MAX),
            ..config()
        };
        assert_eq!(widest.violation(), None);
    }

    #[test]
    fn wrong_wire_version_is_rejected_at_the_handshake() {
        let mut c = Coordinator::new(config());
        c.open_rendezvous().expect("idle");
        let err = c.handle_control(
            ControlFrame::JoinRequest {
                client: 0,
                wire_version: WIRE_VERSION + 1,
            },
            0,
        );
        assert_eq!(
            err,
            Err(ProtoError::VersionMismatch {
                expected: WIRE_VERSION,
                found: WIRE_VERSION + 1,
            })
        );
    }

    #[test]
    fn typed_rejections_cover_the_update_path() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum");
        assert_eq!(
            c.handle_control(submit(0, 7), 1),
            Err(ProtoError::WrongRound { current: 0, got: 7 })
        );
        assert_eq!(
            c.handle_control(submit(9, 0), 1),
            Err(ProtoError::NotSelected { client: 9 })
        );
        c.handle_control(submit(0, 0), 1).expect("first");
        assert_eq!(
            c.handle_control(submit(0, 0), 2),
            Err(ProtoError::DuplicateUpdate { client: 0 })
        );
        // Downstream frames bounce with the state name.
        assert_eq!(
            c.handle_control(
                ControlFrame::RoundCommit {
                    round: 0,
                    accepted: vec![]
                },
                3
            ),
            Err(ProtoError::UnexpectedFrame {
                state: "Training",
                frame: "RoundCommit"
            })
        );
        assert_eq!(c.stats().rejected, 4);
    }

    #[test]
    fn recover_resumes_an_in_deadline_round_exactly() {
        let mut c = joined(3);
        c.start_round(10).expect("quorum of 3");
        c.handle_control(submit(0, 0), 12).expect("update 0");
        let snapshot = c.journal().bytes().to_vec();

        // Crash + restart well inside the deadline (10 + 50 = 60).
        let (mut r, effects) = Coordinator::recover(config(), &snapshot, 20).expect("clean log");
        assert_eq!(r.phase(), Phase::Training);
        assert_eq!(r.round(), 0);
        assert_eq!(r.epoch(), 1);
        assert_eq!(r.stats().resumed_rounds, 1);
        assert!(r.update_payloads().contains_key(&0), "buffer restored");
        // Every roster member is notified of the new incarnation.
        let notices = effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        frame: ControlFrame::EpochNotice { epoch: 1, round: 0 },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(notices, 3);

        // No double-aggregation: client 0 retransmitting its pre-crash
        // update is a duplicate, not a second buffer entry.
        assert_eq!(
            r.handle_control(submit(0, 0), 21),
            Err(ProtoError::DuplicateUpdate { client: 0 })
        );
        // The round still commits on the survivors' updates.
        r.handle_control(submit(1, 0), 22).expect("update 1");
        let effects = r.handle_control(submit(2, 0), 23).expect("update 2");
        let accepted = effects.iter().find_map(|e| match e {
            Effect::RoundCommitted { accepted, .. } => Some(accepted.clone()),
            _ => None,
        });
        assert_eq!(accepted, Some(vec![0, 1]));
        assert_eq!(r.stats().committed_rounds, 1);
    }

    #[test]
    fn recover_aborts_a_round_past_its_deadline() {
        let mut c = joined(3);
        c.start_round(10).expect("quorum of 3");
        c.handle_control(submit(0, 0), 12).expect("update 0");
        let snapshot = c.journal().bytes().to_vec();

        // Restart after the deadline: resume is impossible in budget.
        let (mut r, effects) = Coordinator::recover(config(), &snapshot, 70).expect("clean log");
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::RoundAborted {
                round: 0,
                reason: AbortReason::CoordinatorCrash,
            }
        )));
        assert_eq!(r.round(), 1);
        assert_eq!(r.recovered_round(), Some(0));
        assert_eq!(r.stats().aborts.coordinator_crash, 1);
        // Client 0's pre-crash upload is billed as wasted bytes.
        assert_eq!(
            r.stats().wasted_update_bytes,
            crate::frames::update_submit_frame_len(1) as u64
        );
        // A late frame for the abandoned round gets the typed rejection.
        assert_eq!(
            r.handle_control(submit(1, 0), 71),
            Err(ProtoError::Recovered { round: 0 })
        );
        assert_eq!(r.stats().recovered_rejections, 1);
    }

    #[test]
    fn recover_replays_idempotently() {
        let mut c = joined(3);
        c.start_round(10).expect("quorum of 3");
        c.handle_control(submit(0, 0), 12).expect("update 0");
        let snapshot = c.journal().bytes().to_vec();
        let (a, ea) = Coordinator::recover(config(), &snapshot, 20).expect("clean log");
        let (b, eb) = Coordinator::recover(config(), &snapshot, 20).expect("clean log");
        assert_eq!(ea, eb);
        assert_eq!(a.phase(), b.phase());
        assert_eq!(a.journal().bytes(), b.journal().bytes());
        // Recovering from the recovered journal converges to the same
        // round state (one epoch later).
        let (c2, _) = Coordinator::recover(config(), a.journal().bytes(), 20).expect("clean log");
        assert_eq!(c2.round(), a.round());
        assert_eq!(c2.epoch(), a.epoch() + 1);
        assert_eq!(c2.update_payloads(), a.update_payloads());
    }

    #[test]
    fn recover_from_a_torn_log_leaves_a_recoverable_journal() {
        let c = joined(3);
        let full = c.journal().bytes();
        // The crash tore the last of the three join records mid-append.
        let (r, _) = Coordinator::recover(config(), &full[..full.len() - 5], 20).expect("torn");
        // The boot marker and two joins survived; the torn fragment is gone,
        // so the new epoch marker extends a clean log.
        assert_eq!(r.journal().replay().expect("clean").records.len(), 4);
        let (again, _) = Coordinator::recover(config(), r.journal().bytes(), 30).expect("clean");
        assert_eq!(again.epoch(), r.epoch() + 1);
        assert_eq!(again.live_clients(30), r.live_clients(30));
        assert_eq!(again.live_clients(30).len(), 2);
    }

    /// One input of the prefix property: any frame a device can send, a
    /// round open, or a clock jump long enough to lapse a quiet lease.
    #[derive(Debug, Clone)]
    enum Step {
        Join(u64),
        Beat(u64),
        Submit(u64),
        StartRound,
        Tick(u64),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let client = 0u64..4;
        prop_oneof![
            2 => client.clone().prop_map(Step::Join),
            3 => client.clone().prop_map(Step::Beat),
            3 => client.prop_map(Step::Submit),
            1 => Just(Step::StartRound),
            3 => (1u64..12).prop_map(Step::Tick),
        ]
    }

    proptest! {
        /// Recover ≡ live at every prefix: after each step of any
        /// interleaving (leases lapse and clients rejoin mid-round) the
        /// journal's state is the fold of its replayed records, and a
        /// recovery that resumes holds the round the live machine holds.
        #[test]
        fn recover_equals_live_at_every_prefix(
            steps in proptest::collection::vec(arb_step(), 0..80),
        ) {
            let mut c = Coordinator::new(config());
            c.open_rendezvous().expect("idle");
            let mut now = 0;
            for step in steps {
                // Rejections are inputs like any other.
                let _ = match step {
                    Step::Join(client) => c.handle_control(
                        ControlFrame::JoinRequest { client, wire_version: WIRE_VERSION },
                        now,
                    ),
                    Step::Beat(client) => {
                        c.handle_control(ControlFrame::Heartbeat { client, tick: now }, now)
                    }
                    Step::Submit(client) => c.handle_control(submit(client, c.round()), now),
                    Step::StartRound => c.start_round(now),
                    Step::Tick(dt) => {
                        now += dt;
                        Ok(c.tick(now))
                    }
                };
                let replay = c.journal().replay().expect("clean log");
                prop_assert_eq!(&JournalState::from_records(&replay.records), c.state());

                let (r, _) = Coordinator::recover(config(), c.journal().bytes(), now)
                    .expect("clean log");
                if r.stats().resumed_rounds == 1 {
                    prop_assert_eq!(r.round(), c.round());
                    prop_assert_eq!(r.update_payloads(), c.update_payloads());
                    // Selection, deadline and arrival order.
                    prop_assert_eq!(&r.state().open_round, &c.state().open_round);
                    prop_assert_eq!(&r.state().roster, &c.state().roster);
                }
            }
        }
    }

    impl Step {
        /// Feeds the step to `c` at the clock `now`, which a tick advances.
        /// Rejections are inputs like any other.
        fn drive(self, c: &mut Coordinator, now: &mut u64) {
            let _ = match self {
                Step::Join(client) => c.handle_control(
                    ControlFrame::JoinRequest {
                        client,
                        wire_version: WIRE_VERSION,
                    },
                    *now,
                ),
                Step::Beat(client) => {
                    c.handle_control(ControlFrame::Heartbeat { client, tick: *now }, *now)
                }
                Step::Submit(client) => c.handle_control(submit(client, c.round()), *now),
                Step::StartRound => c.start_round(*now),
                Step::Tick(dt) => {
                    *now += dt;
                    Ok(c.tick(*now))
                }
            };
        }
    }

    proptest! {
        /// In place ≡ from bytes at every prefix: the next incarnation that
        /// takes the live journal over as it stands is the one
        /// `Coordinator::recover` rebuilds from a copy of its bytes —
        /// journal, state, phase, counters and effects alike. It starts
        /// `down` ticks later (past a round's deadline, it aborts the
        /// round), and where `restarted` says so the run goes on from it,
        /// so restarts chain.
        #[test]
        fn restart_in_place_equals_recover_from_bytes_at_every_prefix(
            steps in proptest::collection::vec((arb_step(), 0u64..60, any::<bool>()), 0..80),
        ) {
            let mut c = Coordinator::new(config());
            c.open_rendezvous().expect("idle");
            let mut now = 0;
            for (step, down, restarted) in steps {
                step.drive(&mut c, &mut now);
                let at = now + down;
                let mut in_place = c.clone();
                let in_place_effects = in_place.restart(at);
                let (from_bytes, effects) = Coordinator::recover(config(), c.journal().bytes(), at)
                    .expect("clean log");
                prop_assert_eq!(in_place.journal().bytes(), from_bytes.journal().bytes());
                prop_assert_eq!(in_place.state(), from_bytes.state());
                prop_assert_eq!(in_place.phase(), from_bytes.phase());
                prop_assert_eq!(in_place.stats(), from_bytes.stats());
                prop_assert_eq!(in_place.recovered_round(), from_bytes.recovered_round());
                prop_assert_eq!(in_place.live_clients(at), from_bytes.live_clients(at));
                prop_assert_eq!(in_place_effects, effects);
                if restarted {
                    (c, now) = (in_place, at);
                }
            }
        }
    }

    #[test]
    fn abort_breakdown_counts_by_reason() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum of 3");
        for client in 0..3 {
            c.handle_control(ControlFrame::Heartbeat { client, tick: 40 }, 40)
                .expect("beat");
        }
        c.tick(50); // quorum miss: nobody submitted
        assert_eq!(c.stats().aborted_rounds, 1);
        assert_eq!(c.stats().aborts.quorum_miss, 1);

        c.start_round(51).expect("still live");
        c.tick(75); // all leases lapse at 60 → fleet collapse
        assert_eq!(c.stats().aborts.fleet_collapse, 1);
        assert_eq!(c.stats().aborted_rounds, 2);
        assert_eq!(c.stats().committed_rounds, 0);
    }

    #[test]
    fn byte_frames_round_trip_through_handle_frame() {
        let mut c = joined(3);
        c.start_round(0).expect("quorum");
        let bytes = submit(0, 0).encode();
        let before = c.stats();
        c.handle_frame(&bytes, 1).expect("framed update");
        let after = c.stats();
        assert_eq!(after.frames_in, before.frames_in + 1);
        assert_eq!(after.bytes_in - before.bytes_in, bytes.len() as u64);
        // Garbage bytes are a typed codec rejection, not a panic.
        assert!(matches!(
            c.handle_frame(&[0x00, 0x01, 0x02], 2),
            Err(ProtoError::Codec(_))
        ));
    }
}
