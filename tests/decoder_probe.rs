//! Decoder mutation probe: every decoder that reads bytes from outside the
//! process — control frames off a socket, journal and trace records off a
//! disk, model payloads — answers mutated input with a typed result and
//! never panics.
//!
//! The seeds are the golden wire vectors of
//! `crates/fei-proto/tests/wire_golden.rs`, read from that file at compile
//! time so the two cannot drift. Each input unframes a seed, mutates its tag
//! and payload, and frames it again under a valid CRC, so the mutation
//! reaches the body decoders instead of stopping at the checksum; one in
//! eight is damaged after framing instead. Model payloads get random wire
//! headers over random bodies. Every input is drawn from one seeded stream:
//! a failure names its case, and reruns reproduce it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ee_fei::net::codec::{decode_frame, encode_frame, FRAME_OVERHEAD};
use ee_fei::net::wire::WIRE_VERSION;
use ee_fei::net::{Encoding, WireConfig, WireScratch};
use ee_fei::proto::frames::{ControlFrame, CONTROL_TAGS, PROTO_VERSION};
use ee_fei::proto::journal::{JournalRecord, JOURNAL_TAGS};
use ee_fei::proto::node::{TraceEvent, TRACE_TAGS};
use ee_fei::proto::ProtoError;
use ee_fei::sim::DetRng;

const GOLDEN: &str = include_str!("../crates/fei-proto/tests/wire_golden.rs");

/// Record inputs, each run through all three record decoders.
const RECORD_INPUTS: u64 = 100_000;
/// Model payloads run through the wire decoder.
const PAYLOAD_INPUTS: u64 = 20_000;

/// The golden vectors: every quoted run of hex digits in the golden file
/// long enough to hold a frame.
fn seeds() -> Vec<Vec<u8>> {
    let unhex = |hex: &str| {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
            .collect()
    };
    let quoted = GOLDEN.split('"');
    quoted
        .filter(|run| run.len() >= 2 * FRAME_OVERHEAD && run.len() % 2 == 0)
        .filter(|run| run.bytes().all(|b| b.is_ascii_hexdigit()))
        .map(unhex)
        .collect()
}

fn below(rng: &mut DetRng, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn byte(rng: &mut DetRng) -> u8 {
    rng.next_u64() as u8
}

/// A tag from one of the three record tables, or any byte.
fn tag(rng: &mut DetRng) -> u8 {
    let tables: [&[u8]; 3] = [&CONTROL_TAGS, &JOURNAL_TAGS, &TRACE_TAGS];
    match below(rng, 4) {
        3 => byte(rng),
        t => tables[t][below(rng, tables[t].len())],
    }
}

/// Applies one to three mutations to `payload`; `other` is another seed's
/// payload, for splices.
fn mutate(rng: &mut DetRng, payload: &mut Vec<u8>, other: &[u8]) {
    for _ in 0..1 + below(rng, 3) {
        let at = below(rng, payload.len() + 1);
        match below(rng, 7) {
            0 if at < payload.len() => payload[at] ^= 1 << below(rng, 8),
            1 if at < payload.len() => payload[at] = [0x00, 0x01, 0x7F, 0x80, 0xFF][below(rng, 5)],
            2 => payload.truncate(at),
            3 => payload.extend((0..below(rng, 24)).map(|_| byte(rng))),
            // A length or count field: any four bytes, set to an extreme.
            4 if at + 4 <= payload.len() => {
                let len = payload.len() as u32;
                let value = [0, 1, len, len + 1, 0x7FFF_FFFF, u32::MAX][below(rng, 6)];
                payload[at..at + 4].copy_from_slice(&value.to_be_bytes());
            }
            5 => {
                let cut = below(rng, other.len() + 1);
                payload.truncate(at);
                payload.extend_from_slice(&other[cut..]);
            }
            _ => {}
        }
    }
    // Mostly keep the version gate open, so the body decoders are reached.
    if !payload.is_empty() && below(rng, 4) > 0 {
        payload[0] = PROTO_VERSION;
    }
}

/// Decodes `input` as one kind of record: a typed error, or a record that
/// encodes to bytes decoding back to itself.
fn check<T: PartialEq + std::fmt::Debug>(
    input: &[u8],
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    match decode(input) {
        Ok((record, consumed)) => {
            assert!(consumed <= input.len());
            let again = decode(&encode(&record)).map(|(again, _)| again);
            assert_eq!(again, Ok(record));
        }
        Err(e) => assert!(
            matches!(
                e,
                ProtoError::Codec(_)
                    | ProtoError::VersionMismatch { .. }
                    | ProtoError::UnknownFrameType { .. }
            ),
            "untyped decode error {e:?}"
        ),
    }
}

/// Runs `case` on a fresh stream per case, naming the case on a panic.
fn probe(name: &str, cases: u64, mut case: impl FnMut(&mut DetRng)) {
    let root = DetRng::new(0x00DE_C0DE);
    for n in 0..cases {
        let mut rng = root.fork(n);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            panic!("{name} case {n} failed: {msg}");
        }
    }
}

#[test]
fn decoders_answer_mutated_input_with_typed_results() {
    let seeds = seeds();
    assert_eq!(seeds.len(), 28, "the golden vectors are the seeds");
    let frames: Vec<_> = seeds
        .iter()
        .map(|seed| decode_frame(seed).expect("a golden vector is framed").0)
        .collect();

    probe("record", RECORD_INPUTS, |rng| {
        let (seed, other) = (&frames[below(rng, 28)], &frames[below(rng, 28)]);
        let mut payload = seed.payload.clone();
        mutate(rng, &mut payload, &other.payload);
        let msg_type = if below(rng, 4) == 0 {
            tag(rng)
        } else {
            seed.msg_type
        };
        let mut input = encode_frame(msg_type, &payload);
        if below(rng, 8) == 0 {
            // Damage the frame itself: magic, tag, length, payload or CRC.
            let at = below(rng, input.len());
            input[at] ^= 1 << below(rng, 8);
        }
        check(&input, ControlFrame::decode, ControlFrame::encode);
        check(&input, JournalRecord::decode, JournalRecord::encode);
        check(&input, TraceEvent::decode, TraceEvent::encode);
    });

    let mut scratch = WireScratch::new();
    let mut out = Vec::new();
    probe("payload", PAYLOAD_INPUTS, |rng| {
        let encoding = [Encoding::F64, Encoding::F32, Encoding::Q8][below(rng, 3)];
        let delta = below(rng, 2) == 0;
        let params: Vec<f64> = (0..below(rng, 40)).map(|_| rng.gaussian()).collect();
        let global = delta.then(|| params.iter().map(|w| w * 0.5).collect::<Vec<_>>());
        let mut payload = Vec::new();
        let config = WireConfig { encoding, delta };
        scratch.encode_into(config, &params, global.as_deref(), &mut payload);
        // A random header: version, encoding tag, flags and count bytes.
        for (at, header_byte) in payload[..7].iter_mut().enumerate() {
            if below(rng, 3) == 0 {
                *header_byte = match at {
                    0 => [WIRE_VERSION, byte(rng)][below(rng, 2)],
                    1 | 2 => below(rng, 4) as u8,
                    _ => byte(rng),
                };
            }
        }
        match below(rng, 3) {
            0 => payload.truncate(below(rng, payload.len() + 1)),
            1 => payload.extend((0..below(rng, 64)).map(|_| byte(rng))),
            _ => {}
        }
        let base = match below(rng, 3) {
            0 => None,
            1 => global.clone(),
            _ => Some(vec![0.0; below(rng, 48)]),
        };
        if let Ok(decoded) = scratch.decode_into(&payload, base.as_deref(), &mut out) {
            let count = u32::from_be_bytes([payload[3], payload[4], payload[5], payload[6]]);
            assert_eq!(out.len(), count as usize, "{decoded:?}");
        }
    });
}
