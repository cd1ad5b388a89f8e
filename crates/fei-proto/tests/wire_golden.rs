//! Golden wire vectors: one hex frame per record kind (every
//! `AbortReason`), captured from the hand-written codecs at commit ad07d6a,
//! before the `record.rs` table replaced them (`Rejoin`, added later, from
//! the table). The codec
//! must reproduce each byte for byte and decode it back; every strict
//! prefix must fail as `Truncated`, a foreign version byte as
//! `VersionMismatch`, and the vectors must exercise exactly the tags the
//! table generates.

use std::fmt::Debug;

use fei_net::codec::{decode_frame, encode_frame};
use fei_net::CodecError;
use fei_proto::frames::{AbortReason, ControlFrame, CONTROL_TAGS, PROTO_VERSION};
use fei_proto::journal::{JournalRecord, JOURNAL_TAGS};
use fei_proto::node::{TraceEvent, TRACE_TAGS};
use fei_proto::ProtoError;

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden vectors are hex"))
        .collect()
}

fn is_truncated<T>(result: &Result<T, ProtoError>) -> bool {
    matches!(result, Err(ProtoError::Codec(CodecError::Truncated { .. })))
}

fn check<T: Debug + PartialEq>(
    vectors: &[(T, &str)],
    tags: &[u8],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
) {
    let mut seen = Vec::new();
    for (value, hex) in vectors {
        let golden = unhex(hex);
        assert_eq!(encode(value), golden, "{value:?}: bytes changed");
        let (decoded, consumed) = decode(&golden).expect("golden vector decodes");
        assert_eq!((&decoded, consumed), (value, golden.len()));
        // A stream cut anywhere inside the frame, and a well-framed payload
        // cut anywhere inside the body, both read as "need more bytes".
        for cut in 0..golden.len() {
            let result = decode(&golden[..cut]);
            assert!(is_truncated(&result), "{value:?} cut at {cut}: {result:?}");
        }
        let (frame, _) = decode_frame(&golden).expect("golden vector is framed");
        for cut in 0..frame.payload.len() {
            let result = decode(&encode_frame(frame.msg_type, &frame.payload[..cut]));
            assert!(
                is_truncated(&result),
                "{value:?} body cut at {cut}: {result:?}"
            );
        }
        let mut foreign = frame.payload.to_vec();
        foreign[0] ^= 0xFF;
        assert_eq!(
            decode(&encode_frame(frame.msg_type, &foreign)).map(|_| ()),
            Err(ProtoError::VersionMismatch {
                expected: PROTO_VERSION,
                found: foreign[0],
            }),
            "{value:?}"
        );
        if seen.last() != Some(&frame.msg_type) {
            seen.push(frame.msg_type);
        }
    }
    assert_eq!(
        seen, tags,
        "vectors must cover exactly the declared tags, in order"
    );
}

#[test]
fn control_frames_match_their_golden_bytes() {
    let abort = |reason| ControlFrame::RoundAbort { round: 3, reason };
    let vectors = [
        (
            ControlFrame::JoinRequest {
                client: 7,
                wire_version: 2,
            },
            "fe1a100000000a010000000000000007023f9358f9",
        ),
        (
            ControlFrame::JoinAck {
                client: 7,
                heartbeat_interval: 5,
                heartbeat_timeout: 20,
            },
            "fe1a11000000110100000000000000070000000500000014e6fa881f",
        ),
        (
            ControlFrame::Heartbeat {
                client: 7,
                tick: 99,
            },
            "fe1a12000000110100000000000000070000000000000063d9034eb0",
        ),
        (
            ControlFrame::Select {
                round: 3,
                client: 7,
                epochs: 10,
                deadline_tick: 140,
                global: vec![1, 2, 3, 4, 5],
            },
            "fe1a130000002601000000000000000300000000000000070000000a000000000000008c00000005010203040513269e71",
        ),
        (
            ControlFrame::UpdateSubmit {
                round: 3,
                client: 7,
                samples: 120,
                update: vec![9, 8, 7],
            },
            "fe1a140000001c01000000000000000300000000000000070000007800000003090807e9ef0832",
        ),
        (abort(AbortReason::QuorumMiss), "fe1a150000000a010000000000000003008676425a"),
        (abort(AbortReason::FleetCollapse), "fe1a150000000a01000000000000000301f17172cc"),
        (abort(AbortReason::Cancelled), "fe1a150000000a0100000000000000030268782376"),
        (abort(AbortReason::CoordinatorCrash), "fe1a150000000a010000000000000003031f7f13e0"),
        (
            ControlFrame::RoundCommit {
                round: 3,
                accepted: vec![1, 4, 7],
            },
            "fe1a160000002501000000000000000300000003000000000000000100000000000000040000000000000007b539728d",
        ),
        (ControlFrame::EpochNotice { epoch: 2, round: 3 }, "fe1a1700000011010000000000000002000000000000000395af9d67"),
        (ControlFrame::Shutdown, "fe1a1a00000001017d938189"),
        (
            ControlFrame::Rejoin {
                client: 7,
                epoch: 2,
            },
            "fe1a1b0000001101000000000000000700000000000000024ddd5dbe",
        ),
    ];
    check(
        &vectors,
        &CONTROL_TAGS,
        ControlFrame::encode,
        ControlFrame::decode,
    );
}

#[test]
fn journal_records_match_their_golden_bytes() {
    let aborted = |reason| JournalRecord::RoundAborted {
        round: 1,
        reason,
        tick: 60,
    };
    let vectors = [
        (JournalRecord::EpochStarted { epoch: 1, tick: 8 }, "fe1a200000001101000000000000000100000000000000087f419ee8"),
        (JournalRecord::ClientJoined { client: 3, tick: 1 }, "fe1a210000001101000000000000000300000000000000013f436a0a"),
        (
            JournalRecord::ClientExpired {
                client: 7,
                tick: 30,
            },
            "fe1a2200000011010000000000000007000000000000001ed6df9bb3",
        ),
        (
            JournalRecord::RoundOpened {
                round: 1,
                deadline_tick: 90,
                tick: 40,
                selected: vec![1, 3],
            },
            "fe1a230000002d010000000000000001000000000000005a00000000000000280000000200000000000000010000000000000003adbe53a0",
        ),
        (
            JournalRecord::UpdateAccepted {
                round: 1,
                client: 3,
                samples: 12,
                tick: 44,
                update: vec![9, 9, 9],
            },
            "fe1a240000002401000000000000000100000000000000030000000c000000000000002c00000003090909e0150646",
        ),
        (
            JournalRecord::RoundCommitted {
                round: 1,
                tick: 50,
                accepted: vec![3],
            },
            "fe1a250000001d01000000000000000100000000000000320000000100000000000000032c65408e",
        ),
        (aborted(AbortReason::QuorumMiss), "fe1a260000001201000000000000000100000000000000003cd586c605"),
        (aborted(AbortReason::FleetCollapse), "fe1a260000001201000000000000000101000000000000003cc2fdd246"),
        (aborted(AbortReason::Cancelled), "fe1a260000001201000000000000000102000000000000003cfb70ee83"),
        (aborted(AbortReason::CoordinatorCrash), "fe1a260000001201000000000000000103000000000000003cec0bfac0"),
    ];
    check(
        &vectors,
        &JOURNAL_TAGS,
        JournalRecord::encode,
        JournalRecord::decode,
    );
}

#[test]
fn trace_events_match_their_golden_bytes() {
    let vectors = [
        (TraceEvent::Open, "fe1a300000000101dba4a7d9"),
        (
            TraceEvent::Deliver {
                tick: 3,
                bytes: vec![0xFE, 0x1A, 0x12],
            },
            "fe1a310000001001000000000000000300000003fe1a12db3f0489",
        ),
        (
            TraceEvent::StartRound { tick: 5 },
            "fe1a3200000009010000000000000005000732d8",
        ),
        (
            TraceEvent::Tick { tick: 6 },
            "fe1a330000000901000000000000000604018214",
        ),
        (
            TraceEvent::Recover {
                tick: 9,
                journal_len: 42,
            },
            "fe1a3400000011010000000000000009000000000000002ae4afa455",
        ),
    ];
    check(
        &vectors,
        &TRACE_TAGS,
        TraceEvent::encode,
        TraceEvent::decode,
    );
}
