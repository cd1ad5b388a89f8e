//! The participant-side protocol mirror.
//!
//! A [`Participant`] mirrors the coordinator's state machine from the edge
//! device's side: it joins (rejoining with deterministic backoff if the
//! handshake is lost), heartbeats on the interval granted by its
//! [`crate::ControlFrame::JoinAck`] lease, trains when selected, and
//! submits its update — retransmitting with exponential backoff until the
//! round's commit-or-abort broadcast arrives, so a dropped frame costs
//! retries, never a stuck device. The join handshake is the one way onto
//! the roster: a coordinator that no longer knows this device (its lease
//! lapsed) answers its next heartbeat with [`crate::ControlFrame::Rejoin`],
//! and the participant drops its session and joins again. A recovered
//! coordinator's [`crate::ControlFrame::EpochNotice`] is only a hint — the
//! roster and its leases survived the restart, so a pending upload is just
//! re-sent at once. Like the coordinator it owns no transport and no
//! clock: drivers feed frames and ticks, it answers with frames to send.
//!
//! Retransmit discipline: backoff state (attempt counts, next-send ticks,
//! the verdict-latency estimate) is only ever touched by the frame that
//! *acknowledges* the pending message — the round verdict for an update,
//! the ack for a join. Unrelated inbound frames (duplicate acks, stale
//! verdicts, repeated epoch notices) never reset a schedule.
//!
//! ## The update retransmit timer
//!
//! The only acknowledgement of an [`crate::ControlFrame::UpdateSubmit`] is
//! the round verdict, and the verdict cannot arrive before the *slowest*
//! selected peer has finished — however healthy this device's own link is.
//! A fixed first timeout therefore re-sends the whole model on every round
//! longer than the timeout, and again and again behind a straggler: radio
//! energy (the paper's `e_U`, proportional to bits sent) spent on frames
//! the coordinator can only reject as duplicates. So the first timeout is
//! estimated, RFC 6298-style, in integer virtual ticks: every verdict that
//! acknowledges a pending upload yields one sample
//! `verdict tick − first-submit tick` for a smoothed latency and its
//! deviation (`srtt`, `rttvar`), and the next round's first retransmit is
//! armed `max(2·retry_base, srtt + max(1, 4·rttvar))` ticks after the
//! submission, doubling per attempt as before and never beyond the longest
//! step the fixed schedule could produce (`retry_base · 2^(max_retries+1)`).
//! `retry_base` is the floor and `max_retries` the budget, as they always
//! were; with no sample yet (the first round, or after the coordinator
//! ordered a rejoin) the schedule is exactly the fixed one. A lost update is still recovered —
//! one estimated verdict latency later instead of `2·retry_base` ticks
//! later. The estimate is a pure function of the tick-stamped inputs the
//! driver feeds, so simulated and replayed runs stay deterministic.

use crate::error::ProtoError;
use crate::frames::ControlFrame;

/// Participant configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParticipantConfig {
    /// This device's client id.
    pub client: u64,
    /// Virtual ticks one local training job takes.
    pub train_ticks: u64,
    /// Base backoff, ticks, for submission retransmits (doubled per
    /// attempt) and join retries.
    pub retry_base: u64,
    /// Retransmits after the first submission before giving up the round.
    pub max_retries: u32,
    /// A misbehaving device that never heartbeats — used by chaos
    /// campaigns to probe the coordinator's expiry safety invariant.
    pub mute_heartbeats: bool,
}

impl ParticipantConfig {
    /// A well-behaved participant with sane retry defaults.
    pub fn new(client: u64, train_ticks: u64) -> Self {
        Self {
            client,
            train_ticks,
            retry_base: 2,
            max_retries: 8,
            mute_heartbeats: false,
        }
    }
}

/// Participant protocol states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParticipantPhase {
    /// Not yet started.
    Idle,
    /// JoinRequest sent; waiting for the ack.
    Joining,
    /// Joined; waiting for a selection notice.
    Ready,
    /// Training a selected round.
    Training,
    /// Update submitted; awaiting the round verdict (retransmitting).
    Uploading,
}

impl ParticipantPhase {
    /// Human-readable state name, used in typed rejections.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ParticipantPhase::Idle => "Idle",
            ParticipantPhase::Joining => "Joining",
            ParticipantPhase::Ready => "Ready",
            ParticipantPhase::Training => "Training",
            ParticipantPhase::Uploading => "Uploading",
        }
    }
}

/// Participant-side traffic and retry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParticipantStats {
    /// Join requests sent (first attempt and retries).
    pub joins: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Update submissions sent (first attempt and retransmits).
    pub submits: u64,
    /// Retransmissions among those submissions.
    pub retries: u64,
    /// Commit broadcasts received for rounds this device submitted to.
    pub commits: u64,
    /// Abort broadcasts received.
    pub aborts: u64,
    /// Sessions the coordinator bounced into a fresh join handshake.
    pub sessions_rejoined: u64,
}

/// A pending (possibly retransmitting) update submission.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingUpload {
    round: u64,
    samples: u32,
    payload: Vec<u8>,
    attempts: u32,
    next_send: u64,
    /// Tick of the first transmission (`None` until it has been sent).
    first_sent: Option<u64>,
}

/// Smoothed submit-to-verdict latency in virtual ticks: RFC 6298's
/// `SRTT`/`RTTVAR` with `α = 1/8`, `β = 1/4`, `K = 4` and a clock
/// granularity of one tick, in the fixed-point form of Jacobson's
/// estimator (`srtt` scaled by 8, `rttvar` by 4) so it needs no floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VerdictLatency {
    srtt_x8: u64,
    rttvar_x4: u64,
}

impl VerdictLatency {
    /// Folds one sample into the estimate (`None` = this is the first).
    fn sampled(prior: Option<Self>, sample: u64) -> Self {
        // Far beyond any timeout the machine can arm; keeps the scaled
        // arithmetic clear of overflow whatever ticks a driver feeds.
        let sample = sample.min(1 << 32);
        match prior {
            None => Self {
                srtt_x8: sample * 8,
                rttvar_x4: sample * 2,
            },
            Some(Self { srtt_x8, rttvar_x4 }) => {
                let error = sample.abs_diff(srtt_x8 / 8);
                Self {
                    rttvar_x4: rttvar_x4 - rttvar_x4 / 4 + error,
                    srtt_x8: srtt_x8 - srtt_x8 / 8 + sample,
                }
            }
        }
    }

    /// Ticks to wait for a verdict before concluding the update was lost.
    fn timeout(self) -> u64 {
        self.srtt_x8 / 8 + self.rttvar_x4.max(1)
    }
}

/// The participant state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Participant {
    config: ParticipantConfig,
    phase: ParticipantPhase,
    /// Heartbeat interval granted by the coordinator's lease (0 = none yet).
    heartbeat_interval: u64,
    last_beat: u64,
    /// Join requests sent in the current handshake (reset by its ack).
    join_attempts: u32,
    /// Next tick a join (re)attempt fires while unacknowledged.
    next_join: u64,
    /// The round last selected for.
    round: u64,
    /// Tick local training completes.
    train_done: u64,
    /// Submission deadline announced by the selection notice.
    deadline_tick: u64,
    /// Global payload from the selection notice, echoed back as the update.
    global: Vec<u8>,
    pending: Option<PendingUpload>,
    /// Submit-to-verdict latency learned from this session's verdicts
    /// (`None` until one has acknowledged an upload).
    verdict_latency: Option<VerdictLatency>,
    /// The newest coordinator epoch this device has heard of.
    epoch: u64,
    stats: ParticipantStats,
}

impl Participant {
    /// Creates an idle participant.
    pub fn new(config: ParticipantConfig) -> Self {
        Self {
            config,
            phase: ParticipantPhase::Idle,
            heartbeat_interval: 0,
            last_beat: 0,
            join_attempts: 0,
            next_join: 0,
            round: 0,
            train_done: 0,
            deadline_tick: 0,
            global: Vec::new(),
            pending: None,
            verdict_latency: None,
            epoch: 0,
            stats: ParticipantStats::default(),
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> ParticipantStats {
        self.stats
    }

    /// Kicks off the join handshake at `now`, returning the first
    /// [`ControlFrame::JoinRequest`].
    pub fn start(&mut self, now: u64) -> ControlFrame {
        self.phase = ParticipantPhase::Joining;
        self.next_join = now + self.config.retry_base.max(1);
        self.join_attempts += 1;
        self.stats.joins += 1;
        ControlFrame::JoinRequest {
            client: self.config.client,
            wire_version: fei_net::wire::WIRE_VERSION,
        }
    }

    /// Feeds one inbound byte frame at `now`, returning any frames to send
    /// in response.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]; a rejection leaves the participant state
    /// unchanged. Never panics on wire input.
    pub fn handle_frame(
        &mut self,
        bytes: &[u8],
        now: u64,
    ) -> Result<Vec<ControlFrame>, ProtoError> {
        let (frame, _) = ControlFrame::decode(bytes)?;
        self.handle_control(frame, now)
    }

    /// Feeds one decoded control frame at `now` (the typed twin of
    /// [`Participant::handle_frame`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Participant::handle_frame`].
    pub fn handle_control(
        &mut self,
        frame: ControlFrame,
        now: u64,
    ) -> Result<Vec<ControlFrame>, ProtoError> {
        match frame {
            ControlFrame::JoinAck {
                client,
                heartbeat_interval,
                ..
            } => {
                self.check_recipient(client)?;
                // Only the ack that actually answers an outstanding join
                // takes effect. Duplicates (chaos duplication, acks racing
                // join retries) are pure no-ops — in particular they must
                // not touch the heartbeat or retransmit schedules.
                if self.phase == ParticipantPhase::Joining {
                    self.join_attempts = 0;
                    self.heartbeat_interval = heartbeat_interval as u64;
                    self.last_beat = now;
                    self.phase = ParticipantPhase::Ready;
                }
                Ok(Vec::new())
            }
            ControlFrame::Select {
                round,
                client,
                deadline_tick,
                global,
                ..
            } => {
                self.check_recipient(client)?;
                match self.phase {
                    ParticipantPhase::Idle | ParticipantPhase::Joining => {
                        Err(ProtoError::UnexpectedFrame {
                            state: self.phase.name(),
                            frame: "Select",
                        })
                    }
                    // A selection for an older round than one we already
                    // worked is stale (reordered or duplicated).
                    _ if self.phase != ParticipantPhase::Ready && round <= self.round => {
                        Err(ProtoError::WrongRound {
                            current: self.round,
                            got: round,
                        })
                    }
                    _ => {
                        self.round = round;
                        self.deadline_tick = deadline_tick;
                        self.global = global;
                        self.train_done = now + self.config.train_ticks;
                        self.pending = None;
                        self.phase = ParticipantPhase::Training;
                        Ok(Vec::new())
                    }
                }
            }
            ControlFrame::RoundCommit { round, .. } => {
                if round == self.round && self.phase == ParticipantPhase::Uploading {
                    self.stats.commits += 1;
                }
                self.finish_round(round, now)
            }
            ControlFrame::RoundAbort { round, .. } => {
                if round == self.round && self.phase == ParticipantPhase::Uploading {
                    self.stats.aborts += 1;
                }
                self.finish_round(round, now)
            }
            ControlFrame::EpochNotice { epoch, .. } => self.on_epoch_notice(epoch, now),
            ControlFrame::Rejoin { client, epoch } => {
                self.check_recipient(client)?;
                self.on_rejoin(epoch, now)
            }
            // Upstream frames have no participant-side transition.
            other => Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: other.name(),
            }),
        }
    }

    /// A recovered coordinator announced incarnation `epoch`. Recovery
    /// re-armed every roster lease, so the session survives as it is: a
    /// newer epoch is adopted and an interrupted upload goes out again now,
    /// keeping its attempt count (the notice acknowledges no update, so the
    /// backoff schedule is preserved). A stale or repeated notice is a
    /// no-op.
    fn on_epoch_notice(&mut self, epoch: u64, now: u64) -> Result<Vec<ControlFrame>, ProtoError> {
        if self.phase == ParticipantPhase::Idle {
            return Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: "EpochNotice",
            });
        }
        if epoch > self.epoch {
            self.epoch = epoch;
            if let Some(pending) = &mut self.pending {
                pending.next_send = now;
            }
        }
        Ok(Vec::new())
    }

    /// The coordinator no longer knows this device (its lease lapsed): the
    /// session is gone, so drop what belonged to it — the pending upload,
    /// the heartbeat lease and what it learned about its rounds' pace —
    /// and start a fresh join handshake. Mid-handshake the join retry loop
    /// already answers it.
    fn on_rejoin(&mut self, epoch: u64, now: u64) -> Result<Vec<ControlFrame>, ProtoError> {
        match self.phase {
            ParticipantPhase::Idle => Err(ProtoError::UnexpectedFrame {
                state: self.phase.name(),
                frame: "Rejoin",
            }),
            ParticipantPhase::Joining => Ok(Vec::new()),
            _ => {
                self.stats.sessions_rejoined += 1;
                self.epoch = self.epoch.max(epoch);
                self.heartbeat_interval = 0;
                self.pending = None;
                self.verdict_latency = None;
                Ok(vec![self.start(now)])
            }
        }
    }

    /// Advances virtual time, returning frames due at `now`: join retries
    /// while unacknowledged, heartbeats on the lease interval, the
    /// submission when training completes, and backoff-scheduled
    /// retransmits while the round verdict is outstanding.
    pub fn tick(&mut self, now: u64) -> Vec<ControlFrame> {
        let mut out = Vec::new();
        if self.phase == ParticipantPhase::Joining && now >= self.next_join {
            // The join or its ack was lost: retry with linear backoff (the
            // handshake is idempotent), spaced by this handshake's attempts.
            let step = 1 + u64::from(self.join_attempts.min(8));
            self.next_join = now + self.config.retry_base.max(1) * step;
            self.join_attempts += 1;
            self.stats.joins += 1;
            out.push(ControlFrame::JoinRequest {
                client: self.config.client,
                wire_version: fei_net::wire::WIRE_VERSION,
            });
        }
        if self.heartbeat_interval > 0
            && !self.config.mute_heartbeats
            && !matches!(
                self.phase,
                ParticipantPhase::Idle | ParticipantPhase::Joining
            )
            && now.saturating_sub(self.last_beat) >= self.heartbeat_interval
        {
            self.last_beat = now;
            self.stats.heartbeats += 1;
            out.push(ControlFrame::Heartbeat {
                client: self.config.client,
                tick: now,
            });
        }
        if self.phase == ParticipantPhase::Training && now >= self.train_done {
            self.pending = Some(PendingUpload {
                round: self.round,
                samples: 1,
                payload: self.global.clone(),
                attempts: 0,
                next_send: now,
                first_sent: None,
            });
            self.phase = ParticipantPhase::Uploading;
        }
        if self.phase == ParticipantPhase::Uploading {
            let first_timeout = self.first_upload_timeout();
            let longest_timeout = self.longest_backoff_step();
            if let Some(pending) = &mut self.pending {
                if now >= pending.next_send && pending.attempts <= self.config.max_retries {
                    pending.attempts += 1;
                    pending.first_sent.get_or_insert(now);
                    // Exponential backoff on the first timeout, doubled
                    // per attempt, capped at the longest step.
                    let timeout = first_timeout
                        .saturating_mul(1u64 << (pending.attempts - 1).min(15))
                        .min(longest_timeout);
                    pending.next_send = now.saturating_add(timeout);
                    self.stats.submits += 1;
                    if pending.attempts > 1 {
                        self.stats.retries += 1;
                    }
                    out.push(ControlFrame::UpdateSubmit {
                        round: pending.round,
                        client: self.config.client,
                        samples: pending.samples,
                        update: pending.payload.clone(),
                    });
                }
            }
        }
        out
    }

    /// Ticks between an update's first transmission and its first
    /// retransmit: the learned verdict latency, never below the configured
    /// `2·retry_base` (which is all of it while nothing has been learned).
    fn first_upload_timeout(&self) -> u64 {
        let floor = self.config.retry_base.max(1) * 2;
        self.verdict_latency
            .map_or(floor, |latency| latency.timeout().max(floor))
    }

    /// The longest wait the doubling schedule reaches on the floor alone —
    /// the clamp on every estimated step, so a wild sample cannot park an
    /// upload for longer than a fixed timer could have.
    fn longest_backoff_step(&self) -> u64 {
        let shift = self.config.max_retries.saturating_add(1).min(16);
        self.config.retry_base.max(1).saturating_mul(1u64 << shift)
    }

    fn check_recipient(&self, client: u64) -> Result<(), ProtoError> {
        if client != self.config.client {
            return Err(ProtoError::WrongRecipient {
                client: self.config.client,
                got: client,
            });
        }
        Ok(())
    }

    /// Handles a round verdict: the matching round clears any pending
    /// upload — and, being the upload's acknowledgement, is the one frame
    /// that feeds the verdict-latency estimate; verdicts for other rounds
    /// are stale broadcasts and ignored.
    fn finish_round(&mut self, round: u64, now: u64) -> Result<Vec<ControlFrame>, ProtoError> {
        let working = matches!(
            self.phase,
            ParticipantPhase::Training | ParticipantPhase::Uploading
        );
        if round != self.round || !working {
            return Ok(Vec::new());
        }
        self.phase = ParticipantPhase::Ready;
        let acknowledged = self.pending.take().and_then(|pending| pending.first_sent);
        if let Some(first_sent) = acknowledged {
            self.verdict_latency = Some(VerdictLatency::sampled(
                self.verdict_latency,
                now.saturating_sub(first_sent),
            ));
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use crate::frames::AbortReason;

    use super::*;

    fn select(round: u64, client: u64, now: u64) -> ControlFrame {
        ControlFrame::Select {
            round,
            client,
            epochs: 5,
            deadline_tick: now + 50,
            global: vec![1, 2, 3],
        }
    }

    fn ack(client: u64) -> ControlFrame {
        ControlFrame::JoinAck {
            client,
            heartbeat_interval: 5,
            heartbeat_timeout: 20,
        }
    }

    fn ready_participant() -> Participant {
        let mut p = Participant::new(ParticipantConfig::new(7, 3));
        let join = p.start(0);
        assert!(matches!(join, ControlFrame::JoinRequest { client: 7, .. }));
        p.handle_control(ack(7), 1).expect("ack accepted");
        assert_eq!(p.phase, ParticipantPhase::Ready);
        p
    }

    #[test]
    fn trains_then_submits_then_heartbeats() {
        let mut p = ready_participant();
        p.handle_control(select(0, 7, 2), 2).expect("selected");
        assert_eq!(p.phase, ParticipantPhase::Training);
        assert!(p.tick(3).is_empty(), "still training");
        // Training done at 2 + 3 = 5; submission fires.
        let frames = p.tick(5);
        assert!(frames.iter().any(|f| matches!(
            f,
            ControlFrame::UpdateSubmit {
                round: 0,
                client: 7,
                ..
            }
        )));
        assert_eq!(p.phase, ParticipantPhase::Uploading);
        // Heartbeats keep flowing on the lease interval.
        let frames = p.tick(6);
        assert!(frames
            .iter()
            .any(|f| matches!(f, ControlFrame::Heartbeat { client: 7, .. })));
    }

    #[test]
    fn default_update_echoes_the_global() {
        let mut p = ready_participant();
        p.handle_control(select(0, 7, 2), 2).expect("selected");
        let frames = p.tick(5);
        let update = frames.iter().find_map(|f| match f {
            ControlFrame::UpdateSubmit { update, .. } => Some(update.clone()),
            _ => None,
        });
        assert_eq!(update, Some(vec![1, 2, 3]));
    }

    #[test]
    fn retransmits_with_backoff_until_verdict() {
        let mut p = ready_participant();
        p.handle_control(select(0, 7, 0), 0).expect("selected");
        p.tick(3); // first submission at train_done = 3
        assert_eq!(p.stats().submits, 1);
        // Next send scheduled at 3 + 2·2 = 7.
        assert!(p
            .tick(6)
            .iter()
            .all(|f| !matches!(f, ControlFrame::UpdateSubmit { .. })));
        let frames = p.tick(7);
        assert!(frames
            .iter()
            .any(|f| matches!(f, ControlFrame::UpdateSubmit { .. })));
        assert_eq!(p.stats().retries, 1);
        // The commit stops the retransmit loop.
        p.handle_control(
            ControlFrame::RoundCommit {
                round: 0,
                accepted: vec![7],
            },
            8,
        )
        .expect("commit");
        assert_eq!(p.phase, ParticipantPhase::Ready);
        assert_eq!(p.stats().commits, 1);
        for t in 9..200 {
            assert!(p
                .tick(t)
                .iter()
                .all(|f| !matches!(f, ControlFrame::UpdateSubmit { .. })));
        }
    }

    #[test]
    fn abort_clears_pending_and_counts() {
        let mut p = ready_participant();
        p.handle_control(select(0, 7, 0), 0).expect("selected");
        p.tick(3);
        p.handle_control(
            ControlFrame::RoundAbort {
                round: 0,
                reason: AbortReason::QuorumMiss,
            },
            4,
        )
        .expect("abort");
        assert_eq!(p.stats().aborts, 1);
        assert_eq!(p.phase, ParticipantPhase::Ready);
        // A stale verdict for an old round is ignored, not an error.
        let stale = p.handle_control(
            ControlFrame::RoundAbort {
                round: 0,
                reason: AbortReason::QuorumMiss,
            },
            5,
        );
        assert_eq!(stale, Ok(Vec::new()));
    }

    #[test]
    fn join_retries_when_the_handshake_is_lost() {
        let mut p = Participant::new(ParticipantConfig::new(3, 2));
        p.start(0);
        let mut retries = 0;
        for t in 1..40 {
            retries += p
                .tick(t)
                .iter()
                .filter(|f| matches!(f, ControlFrame::JoinRequest { .. }))
                .count();
        }
        assert!(retries >= 2, "lost handshake must keep retrying");
        p.handle_control(ack(3), 40).expect("late ack");
        assert_eq!(p.phase, ParticipantPhase::Ready);
        assert!(p
            .tick(41)
            .iter()
            .all(|f| !matches!(f, ControlFrame::JoinRequest { .. })));
    }

    #[test]
    fn version_mismatch_is_typed_on_the_participant_side() {
        // The coordinator (or an imposter) speaking a future protocol
        // version is rejected before any body parsing — the participant
        // direction of the handshake check.
        let mut p = ready_participant();
        let mut bytes = ack(7).encode();
        // Payload starts after the 7-byte header: flip the version byte and
        // refresh the CRC by re-encoding manually.
        let payload_start = 7;
        bytes[payload_start] = crate::frames::PROTO_VERSION + 3;
        let reframed = fei_net::codec::encode_frame(
            crate::frames::TAG_JOIN_ACK,
            &bytes[payload_start..bytes.len() - 4],
        );
        assert_eq!(
            p.handle_frame(&reframed, 2),
            Err(ProtoError::VersionMismatch {
                expected: crate::frames::PROTO_VERSION,
                found: crate::frames::PROTO_VERSION + 3,
            })
        );
    }

    #[test]
    fn misrouted_frames_are_typed() {
        let mut p = ready_participant();
        assert_eq!(
            p.handle_control(ack(9), 2),
            Err(ProtoError::WrongRecipient { client: 7, got: 9 })
        );
        assert_eq!(
            p.handle_control(select(0, 9, 2), 2),
            Err(ProtoError::WrongRecipient { client: 7, got: 9 })
        );
        // Upstream frames bounce.
        assert_eq!(
            p.handle_control(ControlFrame::Heartbeat { client: 7, tick: 0 }, 2),
            Err(ProtoError::UnexpectedFrame {
                state: "Ready",
                frame: "Heartbeat"
            })
        );
    }

    #[test]
    fn backoff_schedule_survives_unrelated_inbound_frames() {
        // Pin the retransmit schedule: with retry_base = 2 the submission
        // at train_done = 3 schedules retransmits at 3+4=7, 7+8=15,
        // 15+16=31, … Unrelated frames mid-backoff (duplicate JoinAck,
        // stale verdict for another round, stale epoch notice) must not
        // shift a single tick of it.
        let mut quiet = ready_participant();
        quiet.handle_control(select(0, 7, 0), 0).expect("selected");
        let mut noisy = quiet.clone();
        let mut quiet_sends = Vec::new();
        let mut noisy_sends = Vec::new();
        for t in 1..64u64 {
            if t == 9 {
                // Acknowledge nothing: none of these answer the pending
                // update.
                noisy.handle_control(ack(7), t).expect("duplicate ack");
                noisy
                    .handle_control(
                        ControlFrame::RoundCommit {
                            round: 99,
                            accepted: vec![7],
                        },
                        t,
                    )
                    .expect("stale verdict");
                noisy
                    .handle_control(ControlFrame::EpochNotice { epoch: 0, round: 0 }, t)
                    .expect("stale notice");
            }
            for (p, sends) in [
                (&mut quiet, &mut quiet_sends),
                (&mut noisy, &mut noisy_sends),
            ] {
                if p.tick(t)
                    .iter()
                    .any(|f| matches!(f, ControlFrame::UpdateSubmit { .. }))
                {
                    sends.push(t);
                }
            }
        }
        assert_eq!(quiet_sends, vec![3, 7, 15, 31, 63]);
        assert_eq!(noisy_sends, quiet_sends, "inbound noise shifted backoff");
    }

    fn commit(round: u64) -> ControlFrame {
        ControlFrame::RoundCommit {
            round,
            accepted: vec![7],
        }
    }

    /// Drives one round of a ready participant (train_ticks = 3): selected
    /// at `at`, ticked every tick, the verdict delivered `verdict_after`
    /// ticks after the first submission (`None` = never; the round is then
    /// watched for `watch` ticks). Returns the ticks at which the update
    /// went out.
    fn upload_ticks(
        p: &mut Participant,
        round: u64,
        at: u64,
        verdict_after: Option<u64>,
        watch: u64,
    ) -> Vec<u64> {
        p.handle_control(select(round, 7, at), at)
            .expect("selected");
        let submit_at = at + 3;
        let mut sends = Vec::new();
        for t in at + 1..=at + watch {
            if verdict_after.is_some_and(|after| t == submit_at + after) {
                p.handle_control(commit(round), t).expect("verdict");
                assert_eq!(p.phase, ParticipantPhase::Ready);
                break;
            }
            if p.tick(t)
                .iter()
                .any(|f| matches!(f, ControlFrame::UpdateSubmit { .. }))
            {
                sends.push(t);
            }
        }
        sends
    }

    #[test]
    fn learned_verdict_latency_stops_resending_behind_a_slow_round() {
        let mut p = ready_participant();
        // Round 0 knows nothing: the verdict is 6 ticks out, the fixed
        // first timeout is 4, so the whole update goes out twice.
        assert_eq!(upload_ticks(&mut p, 0, 0, Some(6), 100), vec![3, 7]);
        assert_eq!(p.stats().retries, 1);
        // Every later round at the same pace sends it exactly once.
        for round in 1..20u64 {
            let at = round * 100;
            assert_eq!(
                upload_ticks(&mut p, round, at, Some(6), 100),
                vec![at + 3],
                "round {round} re-sent behind an on-time verdict"
            );
        }
        assert_eq!(p.stats().submits, 21);
        assert_eq!(p.stats().retries, 1);
    }

    #[test]
    fn a_lost_update_is_still_retransmitted_on_the_learned_schedule() {
        let mut p = ready_participant();
        for round in 0..8u64 {
            upload_ticks(&mut p, round, round * 100, Some(6), 100);
        }
        // Samples of 6 settle at srtt = 6 with the deviation decayed to
        // its integer floor of 3/4 tick: first timeout 6 + 3 = 9.
        assert_eq!(p.first_upload_timeout(), 9);
        let retries_before = p.stats().retries;
        // The verdict never comes: first retransmit one learned timeout
        // after the submission, then doubling, capped at the longest step
        // the fixed schedule has (2 · 2^9 = 1024), max_retries in all.
        let sends = upload_ticks(&mut p, 8, 10_000, None, 10_000);
        let gaps: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(sends[0], 10_003);
        assert_eq!(gaps, vec![9, 18, 36, 72, 144, 288, 576, 1024]);
        assert_eq!(
            p.stats().retries - retries_before,
            8,
            "max_retries bounds it"
        );
    }

    #[test]
    fn only_the_acknowledging_verdict_moves_the_estimate() {
        let mut learned = ready_participant();
        upload_ticks(&mut learned, 0, 0, Some(6), 100);
        let estimate = learned.verdict_latency;
        assert!(estimate.is_some());
        // Between rounds: nothing is pending, so nothing is acknowledged.
        learned.handle_control(ack(7), 50).expect("duplicate ack");
        learned
            .handle_control(commit(0), 51)
            .expect("repeated verdict");
        learned
            .handle_control(commit(99), 52)
            .expect("stale verdict");
        learned
            .handle_control(ControlFrame::EpochNotice { epoch: 0, round: 0 }, 53)
            .expect("stale notice");
        assert_eq!(learned.verdict_latency, estimate);
        // Mid-upload: the same noise shifts neither estimate nor schedule.
        let mut quiet = learned.clone();
        let mut noisy = learned;
        for p in [&mut quiet, &mut noisy] {
            p.handle_control(select(1, 7, 100), 100).expect("selected");
        }
        let mut sends = [Vec::new(), Vec::new()];
        for t in 101..400u64 {
            if t == 110 {
                noisy.handle_control(ack(7), t).expect("duplicate ack");
                noisy.handle_control(commit(0), t).expect("stale verdict");
                for _ in 0..2 {
                    noisy
                        .handle_control(ControlFrame::EpochNotice { epoch: 0, round: 1 }, t)
                        .expect("repeated notice");
                }
            }
            for (p, sends) in [&mut quiet, &mut noisy].into_iter().zip(&mut sends) {
                if p.tick(t)
                    .iter()
                    .any(|f| matches!(f, ControlFrame::UpdateSubmit { .. }))
                {
                    sends.push(t);
                }
            }
        }
        assert_eq!(noisy.verdict_latency, estimate);
        // First timeout after one 6-tick sample: 6 + 4·3 = 18.
        assert_eq!(sends[0], vec![103, 121, 157, 229, 373]);
        assert_eq!(sends[1], sends[0], "inbound noise shifted the schedule");
    }

    #[test]
    fn a_rejoin_forgets_the_learned_latency() {
        let mut p = ready_participant();
        upload_ticks(&mut p, 0, 0, Some(40), 100);
        assert!(p.first_upload_timeout() > 4);
        p.handle_control(rejoin(0), 61).expect("rejoin ordered");
        p.handle_control(ack(7), 62).expect("rejoined");
        // Back to the fixed schedule of a first round.
        assert_eq!(
            upload_ticks(&mut p, 1, 100, None, 70),
            vec![103, 107, 115, 131, 163]
        );
    }

    #[test]
    fn identical_tick_stamped_inputs_give_identical_schedules() {
        // Irregular verdict latencies, one never arriving: two machines fed
        // the same inputs agree on every send tick and end bit-equal.
        let script = [
            Some(6),
            Some(2),
            Some(31),
            None,
            Some(9),
            Some(9),
            Some(1),
            None,
        ];
        let run = || {
            let mut p = ready_participant();
            let sends: Vec<Vec<u64>> = (0u64..)
                .zip(script)
                .map(|(round, verdict)| upload_ticks(&mut p, round, round * 3_000, verdict, 2_900))
                .collect();
            (p, sends)
        };
        let (a, a_sends) = run();
        let (b, b_sends) = run();
        assert_eq!(a_sends, b_sends);
        assert_eq!(a, b);
        assert!(a_sends.iter().all(|sends| !sends.is_empty()));
    }

    fn rejoin(epoch: u64) -> ControlFrame {
        ControlFrame::Rejoin { client: 7, epoch }
    }

    /// Ticks in `from..to` at which `p` sent a join request.
    fn join_ticks(p: &mut Participant, from: u64, to: u64) -> Vec<u64> {
        (from..to)
            .filter(|&t| {
                p.tick(t)
                    .iter()
                    .any(|f| matches!(f, ControlFrame::JoinRequest { .. }))
            })
            .collect()
    }

    #[test]
    fn a_newer_epoch_notice_resends_the_pending_upload_now() {
        let mut p = ready_participant();
        p.handle_control(select(0, 7, 0), 0).expect("selected");
        p.tick(3); // submission sent, attempts = 1, retransmit due at 7
        assert_eq!(p.phase, ParticipantPhase::Uploading);

        // The coordinator restarts as epoch 1: the session survives and
        // the interrupted upload goes out at once, attempts intact.
        let frames = p
            .handle_control(ControlFrame::EpochNotice { epoch: 1, round: 0 }, 5)
            .expect("notice");
        assert_eq!(frames, Vec::new(), "a notice needs no answer");
        assert_eq!((p.phase, p.epoch), (ParticipantPhase::Uploading, 1));
        assert!(p
            .tick(5)
            .iter()
            .any(|f| matches!(f, ControlFrame::UpdateSubmit { round: 0, .. })));
        // attempts was 1 before the crash, so this retransmit is the 2nd.
        assert_eq!(p.stats().retries, 1);
        // A repeated notice re-arms nothing: the next send keeps its slot.
        p.handle_control(ControlFrame::EpochNotice { epoch: 1, round: 0 }, 6)
            .expect("repeated notice");
        let sends: Vec<u64> = (6..14)
            .filter(|&t| {
                p.tick(t)
                    .iter()
                    .any(|f| matches!(f, ControlFrame::UpdateSubmit { .. }))
            })
            .collect();
        assert_eq!(sends, vec![13], "5 + 2·4");
    }

    #[test]
    fn rejoin_drops_the_session_and_restarts_the_handshake() {
        let mut p = ready_participant();
        p.handle_control(select(0, 7, 0), 0).expect("selected");
        p.tick(3);
        assert_eq!(
            p.handle_control(
                ControlFrame::Rejoin {
                    client: 9,
                    epoch: 0
                },
                4
            ),
            Err(ProtoError::WrongRecipient { client: 7, got: 9 })
        );
        let frames = p.handle_control(rejoin(2), 4).expect("rejoin");
        assert!(matches!(
            frames[..],
            [ControlFrame::JoinRequest { client: 7, .. }]
        ));
        assert_eq!(p.phase, ParticipantPhase::Joining);
        assert_eq!((p.epoch, p.pending.is_none()), (2, true));
        assert_eq!(p.stats().sessions_rejoined, 1);
        // Mid-handshake a repeated nudge is a no-op; the retry loop owns it.
        assert_eq!(p.handle_control(rejoin(2), 5), Ok(Vec::new()));
        assert_eq!(p.stats().sessions_rejoined, 1);
        // No heartbeat and no upload until the new lease is granted.
        assert!(p
            .tick(9)
            .iter()
            .all(|f| matches!(f, ControlFrame::JoinRequest { .. })));
        p.handle_control(ack(7), 10).expect("rejoined");
        assert_eq!(p.phase, ParticipantPhase::Ready);
        // A device that never started has no session to drop.
        let mut idle = Participant::new(ParticipantConfig::new(7, 3));
        assert_eq!(
            idle.handle_control(rejoin(0), 0),
            Err(ProtoError::UnexpectedFrame {
                state: "Idle",
                frame: "Rejoin"
            })
        );
    }

    #[test]
    fn join_retries_space_out_per_handshake_not_per_lifetime() {
        let mut p = ready_participant();
        // Five earlier handshakes, each losing a few requests before its ack.
        for n in 0..5u64 {
            let at = 100 * (n + 1);
            p.handle_control(rejoin(0), at).expect("rejoin");
            assert_eq!(join_ticks(&mut p, at + 1, at + 8), vec![at + 2, at + 6]);
            p.handle_control(ack(7), at + 8).expect("ack");
        }
        assert_eq!(p.stats().joins, 16);
        // The sixth handshake starts over: +retry_base, then +2·retry_base,
        // +3·retry_base, …
        p.handle_control(rejoin(0), 1_000).expect("rejoin");
        assert_eq!(
            join_ticks(&mut p, 1_001, 1_043),
            vec![1_002, 1_006, 1_012, 1_020, 1_030, 1_042]
        );
    }

    #[test]
    fn muted_participant_never_heartbeats() {
        let mut p = Participant::new(ParticipantConfig {
            mute_heartbeats: true,
            ..ParticipantConfig::new(1, 2)
        });
        p.start(0);
        p.handle_control(ack(1), 1).expect("ack");
        for t in 2..100 {
            assert!(p
                .tick(t)
                .iter()
                .all(|f| !matches!(f, ControlFrame::Heartbeat { .. })));
        }
    }
}
