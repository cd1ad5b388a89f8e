//! Control-plane frames.
//!
//! Every protocol message rides the same CRC32-protected frame format as
//! the model payloads ([`fei_net::codec`]), so a single byte stream can
//! interleave control and data frames. Every control payload leads with a
//! one-byte protocol version that is checked *before* any body parsing —
//! a peer speaking a different protocol gets a typed
//! [`ProtoError::VersionMismatch`](crate::error::ProtoError::VersionMismatch),
//! not a confusing parse failure further in.
//!
//! ## The authoritative tag table
//!
//! Model payload frames use low tags (caller-defined, below 0x10). The
//! protocol stack owns three disjoint ranges — `0x10..=0x1B` for the
//! control plane (this module), `0x20..=0x26` for the durable round
//! journal ([`crate::journal`]) and `0x30..=0x34` for the coordinator's
//! frame trace (`crate::trace`):
//!
//! | Tag  | Constant                | Range   | Meaning                                |
//! |------|-------------------------|---------|----------------------------------------|
//! | 0x10 | `TAG_JOIN_REQUEST`      | control | participant asks to join the roster    |
//! | 0x11 | `TAG_JOIN_ACK`          | control | join accepted, heartbeat contract      |
//! | 0x12 | `TAG_HEARTBEAT`         | control | periodic liveness beacon               |
//! | 0x13 | `TAG_SELECT`            | control | round selection + global model         |
//! | 0x14 | `TAG_UPDATE_SUBMIT`     | control | trained-update submission              |
//! | 0x15 | `TAG_ROUND_ABORT`       | control | round closed without commit            |
//! | 0x16 | `TAG_ROUND_COMMIT`      | control | round committed, aggregated clients    |
//! | 0x17 | `TAG_EPOCH_NOTICE`      | control | recovered coordinator's new epoch      |
//! | 0x18 | —                       | retired | was `Resume`; never reused             |
//! | 0x19 | —                       | retired | was `ResumeAck`; never reused          |
//! | 0x1A | `TAG_SHUTDOWN`          | control | supervisor-ordered graceful shutdown   |
//! | 0x1B | `TAG_REJOIN`            | control | unknown sender: join the roster again  |
//! | 0x20 | `TAG_EPOCH_STARTED`     | journal | incarnation began                      |
//! | 0x21 | `TAG_CLIENT_JOINED`     | journal | roster admission became durable        |
//! | 0x22 | `TAG_CLIENT_EXPIRED`    | journal | lease expiry became durable            |
//! | 0x23 | `TAG_ROUND_OPENED`      | journal | round selection became durable         |
//! | 0x24 | `TAG_UPDATE_ACCEPTED`   | journal | accepted update became durable         |
//! | 0x25 | `TAG_ROUND_COMMITTED`   | journal | commit became durable                  |
//! | 0x26 | `TAG_ROUND_ABORTED`     | journal | abort became durable                   |
//! | 0x30 | `TAG_TRACE_OPEN`        | trace   | rendezvous opened (fresh boot)         |
//! | 0x31 | `TAG_TRACE_DELIVER`     | trace   | inbound frame reached the core         |
//! | 0x32 | `TAG_TRACE_START_ROUND` | trace   | round-open attempt                     |
//! | 0x33 | `TAG_TRACE_TICK`        | trace   | virtual-clock advance                  |
//! | 0x34 | `TAG_TRACE_RECOVER`     | trace   | restart recovered from the journal     |
//!
//! This table is documentation; the code form is the three `record_table!`
//! invocations (here, in [`crate::journal`] and in `crate::trace`), each
//! of which declares a kind's tag, variant and ordered fields exactly once.
//! `record.rs` derives the enum, the `TAG_*` consts, [`CONTROL_TAGS`] /
//! [`crate::journal::JOURNAL_TAGS`] / [`crate::trace::TRACE_TAGS`] and the
//! codec from them, asserts at compile time that no value is used twice,
//! and `tests/wire_golden.rs` pins every kind's bytes.
//!
//! Integers are big-endian throughout, matching the frame and wire codecs.

use crate::record::record_table;

pub use crate::record::PROTO_VERSION;

/// Why a coordinator aborted a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Fewer updates than the quorum arrived by the deadline.
    QuorumMiss,
    /// The live fleet shrank below quorum mid-round.
    FleetCollapse,
    /// The driver cancelled the round.
    Cancelled,
    /// The coordinator crashed mid-round and recovery could not resume it
    /// inside the deadline budget.
    CoordinatorCrash,
}

impl AbortReason {
    /// One-byte wire representation.
    pub(crate) fn tag(self) -> u8 {
        match self {
            AbortReason::QuorumMiss => 0,
            AbortReason::FleetCollapse => 1,
            AbortReason::Cancelled => 2,
            AbortReason::CoordinatorCrash => 3,
        }
    }

    /// Parses the wire byte.
    pub(crate) fn from_tag(tag: u8) -> Option<AbortReason> {
        match tag {
            0 => Some(AbortReason::QuorumMiss),
            1 => Some(AbortReason::FleetCollapse),
            2 => Some(AbortReason::Cancelled),
            3 => Some(AbortReason::CoordinatorCrash),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::QuorumMiss => "quorum miss",
            AbortReason::FleetCollapse => "fleet collapse",
            AbortReason::Cancelled => "cancelled",
            AbortReason::CoordinatorCrash => "coordinator crash",
        }
    }
}

record_table! {
    /// One control-plane message.
    pub enum ControlFrame;
    /// Every control-plane tag, in value order — the code form of the tag
    /// table in the module docs.
    pub const CONTROL_TAGS;

    /// Tag space for control frames; model payload frames use low tags.
    0x10 pub(crate) TAG_JOIN_REQUEST =>
    /// Participant → coordinator: request to join the federation,
    /// declaring the wire-codec version it encodes payloads with.
    JoinRequest {
        /// Joining client id.
        client: u64,
        /// Wire-codec version the client speaks
        /// ([`fei_net::wire::WIRE_VERSION`]).
        wire_version: u8,
    },
    /// Coordinator's acceptance of a join, carrying the heartbeat contract.
    0x11 pub TAG_JOIN_ACK =>
    /// Coordinator → participant: join accepted; heartbeat contract.
    JoinAck {
        /// The accepted client id.
        client: u64,
        /// Ticks between heartbeats the client must send.
        heartbeat_interval: u32,
        /// Ticks of silence after which the client is expired.
        heartbeat_timeout: u32,
    },
    /// Periodic liveness beacon from a participant.
    0x12 pub TAG_HEARTBEAT =>
    /// Participant → coordinator: liveness beacon.
    Heartbeat {
        /// Sending client id.
        client: u64,
        /// The sender's local tick when the beacon was emitted.
        tick: u64,
    },
    /// Round-selection notice (with the global model payload) to one client.
    0x13 pub(crate) TAG_SELECT =>
    /// Coordinator → participant: you are selected this round; train on
    /// the carried global model and submit before the deadline.
    Select {
        /// Round being opened.
        round: u64,
        /// Selected client id.
        client: u64,
        /// Local epochs to run.
        epochs: u32,
        /// Absolute tick after which submissions are not accepted.
        deadline_tick: u64,
        /// Wire-v2 payload of the global model.
        global: Vec<u8>,
    },
    /// A participant's trained-update submission.
    0x14 pub(crate) TAG_UPDATE_SUBMIT =>
    /// Participant → coordinator: the trained update.
    UpdateSubmit {
        /// Round the update belongs to.
        round: u64,
        /// Submitting client id.
        client: u64,
        /// Local sample count (aggregation weight).
        samples: u32,
        /// Wire-v2 payload of the local model or delta.
        update: Vec<u8>,
    },
    /// Round closed without commit.
    0x15 pub(crate) TAG_ROUND_ABORT =>
    /// Coordinator → participants: round closed without commit.
    RoundAbort {
        /// The aborted round.
        round: u64,
        /// Why it aborted.
        reason: AbortReason,
    },
    /// Round committed, listing the aggregated clients.
    0x16 pub(crate) TAG_ROUND_COMMIT =>
    /// Coordinator → participants: round committed.
    RoundCommit {
        /// The committed round.
        round: u64,
        /// Clients whose updates were aggregated, ascending.
        accepted: Vec<u64>,
    },
    /// Recovered coordinator announcing its new incarnation to the roster.
    0x17 pub(crate) TAG_EPOCH_NOTICE =>
    /// Coordinator → participant: a recovered coordinator announcing its
    /// new incarnation. A one-way hint: the roster and its leases survived
    /// the restart, so the receiver only re-sends a pending upload now.
    EpochNotice {
        /// The coordinator's journal epoch after recovery.
        epoch: u64,
        /// The round the recovered coordinator is at.
        round: u64,
    },
    /// Supervisor-ordered graceful shutdown of the coordinator process.
    0x1A pub(crate) TAG_SHUTDOWN =>
    /// Supervisor → coordinator: shut down gracefully. An open round is
    /// cancelled ([`AbortReason::Cancelled`] journaled and broadcast) before
    /// the process exits; a coordinator between rounds just exits.
    Shutdown,
    /// An unknown sender told to rejoin.
    0x1B pub(crate) TAG_REJOIN =>
    /// Coordinator → participant: you are not on the roster at this epoch
    /// (your lease lapsed); start the join handshake again.
    Rejoin {
        /// The client being answered.
        client: u64,
        /// The coordinator's current epoch.
        epoch: u64,
    },
}

impl ControlFrame {
    /// The participant an upstream frame identifies itself as (`None` for
    /// downstream frames and [`ControlFrame::Shutdown`], which name no
    /// sender).
    pub(crate) fn sender(&self) -> Option<u64> {
        match self {
            ControlFrame::JoinRequest { client, .. }
            | ControlFrame::Heartbeat { client, .. }
            | ControlFrame::UpdateSubmit { client, .. } => Some(*client),
            _ => None,
        }
    }
}

/// Encoded length of a heartbeat frame.
pub fn heartbeat_frame_len() -> usize {
    ControlFrame::Heartbeat { client: 0, tick: 0 }.encoded_len()
}

/// Encoded length of a selection notice carrying a `payload`-byte global.
pub fn select_frame_len(payload: usize) -> usize {
    let empty = ControlFrame::Select {
        round: 0,
        client: 0,
        epochs: 0,
        deadline_tick: 0,
        global: Vec::new(),
    };
    empty.encoded_len() + payload
}

/// Encoded length of an update submission carrying a `payload`-byte model.
pub(crate) fn update_submit_frame_len(payload: usize) -> usize {
    let empty = ControlFrame::UpdateSubmit {
        round: 0,
        client: 0,
        samples: 0,
        update: Vec::new(),
    };
    empty.encoded_len() + payload
}

/// Encoded length of a commit broadcast naming `accepted` clients.
pub fn commit_frame_len(accepted: usize) -> usize {
    let empty = ControlFrame::RoundCommit {
        round: 0,
        accepted: Vec::new(),
    };
    empty.encoded_len() + std::mem::size_of::<u64>() * accepted
}

/// Encoded length of an abort broadcast.
pub fn abort_frame_len() -> usize {
    let abort = ControlFrame::RoundAbort {
        round: 0,
        reason: AbortReason::Cancelled,
    };
    abort.encoded_len()
}

/// Control-plane bytes one engine-driven round moves, for energy
/// accounting: a selection notice down to every selected device, one
/// heartbeat up from every device that was up (`heartbeats`), and the
/// commit-or-abort broadcast back down to every selected device. The model
/// payloads themselves ride the data-plane frames and are charged
/// separately.
pub fn control_round_bytes(
    selected: usize,
    heartbeats: usize,
    committed: bool,
    accepted: usize,
) -> u64 {
    let close = if committed {
        commit_frame_len(accepted)
    } else {
        abort_frame_len()
    };
    let down = selected as u64 * (select_frame_len(0) + close) as u64;
    let up = heartbeats as u64 * heartbeat_frame_len() as u64;
    down + up
}

#[cfg(test)]
mod tests {
    use fei_net::codec::{decode_frame, encode_frame};
    use fei_net::CodecError;

    use super::*;
    use crate::error::ProtoError;

    fn all_frames() -> Vec<ControlFrame> {
        vec![
            ControlFrame::JoinRequest {
                client: 7,
                wire_version: fei_net::wire::WIRE_VERSION,
            },
            ControlFrame::JoinAck {
                client: 7,
                heartbeat_interval: 5,
                heartbeat_timeout: 20,
            },
            ControlFrame::Heartbeat {
                client: 7,
                tick: 99,
            },
            ControlFrame::Select {
                round: 3,
                client: 7,
                epochs: 10,
                deadline_tick: 140,
                global: vec![1, 2, 3, 4, 5],
            },
            ControlFrame::UpdateSubmit {
                round: 3,
                client: 7,
                samples: 120,
                update: vec![9, 8, 7],
            },
            ControlFrame::RoundAbort {
                round: 3,
                reason: AbortReason::QuorumMiss,
            },
            ControlFrame::RoundCommit {
                round: 3,
                accepted: vec![1, 4, 7],
            },
            ControlFrame::EpochNotice { epoch: 2, round: 3 },
            ControlFrame::Shutdown,
            ControlFrame::Rejoin {
                client: 7,
                epoch: 2,
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in all_frames() {
            let bytes = frame.encode();
            assert_eq!(bytes.len(), frame.encoded_len(), "{}", frame.name());
            let (decoded, consumed) = ControlFrame::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} failed: {e}", frame.name()));
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn abort_reasons_round_trip_tags() {
        let all = [
            AbortReason::QuorumMiss,
            AbortReason::FleetCollapse,
            AbortReason::Cancelled,
            AbortReason::CoordinatorCrash,
        ];
        for reason in all {
            assert_eq!(AbortReason::from_tag(reason.tag()), Some(reason));
        }
        assert_eq!(AbortReason::from_tag(all.len() as u8), None);
    }

    /// `frame` re-framed (valid CRC) with its first or last payload byte
    /// replaced — a peer that speaks the container but not the schema.
    fn with_payload_byte(frame: &ControlFrame, last: bool, byte: u8) -> Vec<u8> {
        let (framed, _) = decode_frame(&frame.encode()).expect("own encoding");
        let mut payload = framed.payload;
        let at = if last { payload.len() - 1 } else { 0 };
        payload[at] = byte;
        encode_frame(framed.msg_type, &payload)
    }

    #[test]
    fn version_mismatch_is_typed_not_a_crc_failure() {
        // A well-formed frame (valid CRC) from a future protocol version:
        // the rejection must name the version, not fall through to a
        // checksum or parse error.
        let beat = ControlFrame::Heartbeat {
            client: 7,
            tick: 42,
        };
        assert_eq!(
            ControlFrame::decode(&with_payload_byte(&beat, false, PROTO_VERSION + 1)),
            Err(ProtoError::VersionMismatch {
                expected: PROTO_VERSION,
                found: PROTO_VERSION + 1,
            })
        );
    }

    #[test]
    fn corrupted_frames_are_codec_errors() {
        let mut bytes = ControlFrame::Heartbeat { client: 1, tick: 2 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(
            ControlFrame::decode(&bytes),
            Err(ProtoError::Codec(CodecError::ChecksumMismatch))
        );
    }

    #[test]
    fn unknown_tags_and_truncated_bodies_are_typed() {
        // 0x18 and 0x19 are the retired session-resume pair: never reused.
        for tag in [0x7E, 0x18, 0x19] {
            let bytes = encode_frame(tag, &[PROTO_VERSION, 0, 0]);
            assert_eq!(
                ControlFrame::decode(&bytes),
                Err(ProtoError::UnknownFrameType { tag })
            );
        }
        // A heartbeat body cut short (but correctly framed and checksummed).
        let bytes = encode_frame(TAG_HEARTBEAT, &[PROTO_VERSION, 1, 2, 3]);
        assert!(matches!(
            ControlFrame::decode(&bytes),
            Err(ProtoError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn bad_abort_reason_is_rejected() {
        let abort = ControlFrame::RoundAbort {
            round: 1,
            reason: AbortReason::QuorumMiss,
        };
        assert_eq!(
            ControlFrame::decode(&with_payload_byte(&abort, true, 9)),
            Err(ProtoError::UnknownFrameType { tag: 9 })
        );
    }

    #[test]
    fn control_round_bytes_is_consistent() {
        // 4 selected, 3 alive to heartbeat, committed with 2 accepted.
        let expected = 4 * (select_frame_len(0) + commit_frame_len(2)) as u64
            + 3 * heartbeat_frame_len() as u64;
        assert_eq!(control_round_bytes(4, 3, true, 2), expected);
        let aborted =
            4 * (select_frame_len(0) + abort_frame_len()) as u64 + 3 * heartbeat_frame_len() as u64;
        assert_eq!(control_round_bytes(4, 3, false, 0), aborted);
    }
}
