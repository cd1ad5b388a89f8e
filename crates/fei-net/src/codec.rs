//! Framed binary codec for FL messages.
//!
//! The threaded FedAvg runtime in `fei-fl` ships model parameters between
//! edge servers and the coordinator as byte frames — the same serialization
//! work a real deployment would do, so its cost shows up in benches. A frame
//! is:
//!
//! ```text
//! magic    (2 bytes, 0xFE 0x1A)
//! type     (1 byte, caller-defined tag)
//! length   (4 bytes, big-endian payload length)
//! payload  (length bytes)
//! checksum (4 bytes, big-endian; CRC32/IEEE over type ‖ length ‖ payload)
//! ```
//!
//! The checksum covers the type and length fields as well as the payload, so
//! a single corrupted byte anywhere after the magic is detected. Earlier
//! revisions used an additive byte sum over the payload alone; that sum is
//! blind to reordered bytes (exactly what the corrupt-upload fault injector
//! produces), so v2 frames reject legacy-checksum frames outright — see the
//! `legacy_byte_sum_frames_are_rejected` unit test.
//!
//! Model-parameter *payloads* carried inside `MSG_*` frames use the wire
//! format v2 of [`crate::wire`]: a 7-byte versioned payload header (version,
//! encoding tag, flags, weight count) followed by the encoded weights.

use std::error::Error;
use std::fmt;

/// Frame magic bytes.
const MAGIC: [u8; 2] = [0xFE, 0x1A];
/// Fixed overhead: magic + type + length + checksum.
pub const FRAME_OVERHEAD: usize = 2 + 1 + 4 + 4;

/// Largest payload a frame from a peer may declare: 16 MiB, far above the
/// 62 807-byte model frame. A stream rejects a longer declared length as
/// soon as the header has arrived (see `check_declared_len`), so a peer
/// cannot make a reader buffer without bound.
pub const MAX_PAYLOAD_LEN: usize = 16 << 20;

/// How many bytes one step of the slicing CRC kernel folds.
const CRC_SLICE: usize = 16;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables,
/// generated at compile time so the codec stays dependency-free.
///
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; `[k][n]` is the
/// CRC of byte `n` followed by `k` zero bytes, which lets
/// [`Crc32::update`] fold [`CRC_SLICE`] input bytes per step with
/// independent lookups (slicing-by-16) instead of one dependent lookup per
/// byte.
const CRC32_TABLES: [[u32; 256]; CRC_SLICE] = {
    let mut tables = [[0u32; 256]; CRC_SLICE];
    let mut n: u32 = 0;
    while n < 256 {
        let mut crc = n;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][n as usize] = crc;
        n += 1;
    }
    let mut k = 1;
    while k < CRC_SLICE {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
};

/// Converts a payload length to the wire's big-endian `u32` length field.
///
/// Frames carry 32-bit lengths; a payload that does not fit is a
/// programming error upstream (model payloads are megabytes, not
/// gigabytes), and a truncated length field would desynchronize the
/// stream for every later frame — so the conversion asserts the bound
/// instead of wrapping.
pub fn len_u32(len: usize) -> u32 {
    u32::try_from(len).expect("invariant: wire payload lengths fit the u32 length field")
}

/// Streaming CRC32/IEEE over multiple byte regions.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running CRC, [`CRC_SLICE`] bytes per step; the
    /// tail shorter than a step goes through table 0 one byte at a time, so
    /// any split of the input over several calls gives the same value.
    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let ix = usize::from;
        let mut crc = self.0;
        let (steps, tail) = bytes.as_chunks::<CRC_SLICE>();
        for c in steps {
            // Only the first four bytes meet the running register; the
            // other twelve index their tables as they are.
            let [h0, h1, h2, h3] =
                (u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc).to_le_bytes();
            crc = t[15][ix(h0)]
                ^ t[14][ix(h1)]
                ^ t[13][ix(h2)]
                ^ t[12][ix(h3)]
                ^ t[11][ix(c[4])]
                ^ t[10][ix(c[5])]
                ^ t[9][ix(c[6])]
                ^ t[8][ix(c[7])]
                ^ t[7][ix(c[8])]
                ^ t[6][ix(c[9])]
                ^ t[5][ix(c[10])]
                ^ t[4][ix(c[11])]
                ^ t[3][ix(c[12])]
                ^ t[2][ix(c[13])]
                ^ t[1][ix(c[14])]
                ^ t[0][ix(c[15])];
        }
        self.0 = crc32_bytewise(crc, tail);
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One table lookup per byte over the raw (un-inverted) CRC register: the
/// tail step of [`Crc32::update`] and the whole of [`crc32_reference`].
fn crc32_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    crc
}

/// CRC32/IEEE of `bytes` — the checksum kernel every frame, journal record
/// and trace event goes through.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The byte-at-a-time CRC32 the slicing kernel replaced. No product path
/// calls it: it is the oracle the kernel's tests compare against and the
/// baseline of the `crc32` row of `fei-bench`'s `perf` harness.
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    crc32_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// A decoded frame: a type tag and the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Caller-defined message type tag.
    pub msg_type: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Errors from [`decode_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than a complete frame.
    Truncated {
        /// Bytes needed for the shortest complete interpretation.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A peer's frame header declared a payload longer than
    /// [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The declared payload length.
        declared: u32,
    },
    /// The magic prefix did not match.
    BadMagic,
    /// The checksum did not match the payload.
    ChecksumMismatch,
    /// A wire-v2 payload declared a version this codec does not speak.
    UnsupportedVersion {
        /// The version byte found.
        got: u8,
    },
    /// A wire-v2 payload carried an unassigned encoding tag.
    UnknownEncoding {
        /// The encoding tag found.
        tag: u8,
    },
    /// A wire-v2 payload set flag bits this codec does not define.
    BadFlags {
        /// The flags byte found.
        flags: u8,
    },
    /// A delta-encoded payload arrived without a matching global base.
    DeltaBaseMismatch {
        /// Weight count declared by the payload.
        count: usize,
        /// Length of the base the decoder had, if any.
        base_len: Option<usize>,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated frame: need {needed} bytes, have {available}")
            }
            CodecError::Oversized { declared } => write!(
                f,
                "frame declares a {declared}-byte payload, over the {MAX_PAYLOAD_LEN}-byte cap"
            ),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire payload version {got}")
            }
            CodecError::UnknownEncoding { tag } => {
                write!(f, "unknown wire encoding tag {tag}")
            }
            CodecError::BadFlags { flags } => {
                write!(f, "undefined wire flag bits 0b{flags:08b}")
            }
            CodecError::DeltaBaseMismatch { count, base_len } => match base_len {
                Some(len) => write!(
                    f,
                    "delta payload of {count} weights against a {len}-weight base"
                ),
                None => write!(f, "delta payload of {count} weights without a base"),
            },
        }
    }
}

impl Error for CodecError {}

/// Bytes before the payload: magic + type + length.
const HEADER_LEN: usize = 2 + 1 + 4;

/// Encodes a frame.
///
/// # Example
///
/// ```
/// use fei_net::{encode_frame, decode_frame};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let wire = encode_frame(7, b"hello");
/// let (frame, consumed) = decode_frame(&wire)?;
/// assert_eq!(frame.msg_type, 7);
/// assert_eq!(&frame.payload[..], b"hello");
/// assert_eq!(consumed, wire.len());
/// # Ok(())
/// # }
/// ```
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(msg_type, payload, &mut out);
    out
}

/// Encodes a frame by appending to a caller-owned buffer — the zero-copy
/// twin of [`encode_frame`]. A reused `out` (cleared by the caller) performs
/// no heap allocation once its capacity covers the frame.
pub fn encode_frame_into(msg_type: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(FRAME_OVERHEAD + payload.len());
    encode_frame_with(msg_type, out, |out| out.extend_from_slice(payload));
}

/// Encodes a frame whose payload is whatever `put_payload` appends to `out`
/// — for callers that serialize the payload field by field and would
/// otherwise build it in a buffer of its own first. The length field is
/// patched and the checksum taken once the payload is in place: one CRC
/// pass over `type ‖ length ‖ payload`, which sit contiguously in the
/// frame, and no copy.
///
/// Covering the header fields means a corrupted type or length byte fails
/// the checksum instead of silently re-routing or re-sizing the frame.
pub fn encode_frame_with(msg_type: u8, out: &mut Vec<u8>, put_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(msg_type);
    out.extend_from_slice(&[0; 4]);
    put_payload(out);
    let len = len_u32(out.len() - start - HEADER_LEN);
    out[start + 3..start + HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    let crc = crc32(&out[start + MAGIC.len()..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// A verified frame borrowed from the buffer it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Caller-defined message type tag.
    pub msg_type: u8,
    /// Payload bytes, in place.
    pub payload: &'a [u8],
}

/// Verifies one frame at the start of `bytes` and borrows its payload,
/// returning the frame and the number of bytes consumed. [`decode_frame`]
/// is this plus a copy of the payload.
///
/// # Errors
///
/// As [`decode_frame`].
pub fn split_frame(bytes: &[u8]) -> Result<(FrameRef<'_>, usize), CodecError> {
    let truncated = |needed| CodecError::Truncated {
        needed,
        available: bytes.len(),
    };
    let Some((header, _)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(truncated(FRAME_OVERHEAD));
    };
    let [m0, m1, msg_type, l0, l1, l2, l3] = *header;
    if [m0, m1] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    // The length is the peer's claim: on a 32-bit target it can exceed
    // what `usize` arithmetic holds, and no buffer is ever that long.
    let total = usize::try_from(u32::from_be_bytes([l0, l1, l2, l3]))
        .ok()
        .and_then(|len| len.checked_add(FRAME_OVERHEAD))
        .ok_or_else(|| truncated(usize::MAX))?;
    if bytes.len() < total {
        return Err(truncated(total));
    }
    let (checked, declared) = bytes[MAGIC.len()..total].split_at(total - MAGIC.len() - 4);
    if declared != crc32(checked).to_be_bytes().as_slice() {
        return Err(CodecError::ChecksumMismatch);
    }
    let payload = &checked[HEADER_LEN - MAGIC.len()..];
    Ok((FrameRef { msg_type, payload }, total))
}

/// Judges the payload length a frame header at the start of `bytes`
/// declares against [`MAX_PAYLOAD_LEN`], once the header has arrived.
/// Streams from a peer ask this before buffering a body; [`split_frame`]
/// does not, because logs and in-process frames are this process's own
/// writing and are read back uncapped.
///
/// # Errors
///
/// [`CodecError::Oversized`] for a declared length over the cap.
pub(crate) fn check_declared_len(bytes: &[u8]) -> Result<(), CodecError> {
    let Some((&[.., l0, l1, l2, l3], _)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Ok(());
    };
    let declared = u32::from_be_bytes([l0, l1, l2, l3]);
    if usize::try_from(declared).is_ok_and(|len| len <= MAX_PAYLOAD_LEN) {
        Ok(())
    } else {
        Err(CodecError::Oversized { declared })
    }
}

/// Decodes one frame from the start of `bytes`, returning the frame and the
/// number of bytes consumed.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] when `bytes` does not yet hold a whole
/// frame (streaming callers should read more and retry) — which includes a
/// declared length no buffer can ever satisfy —
/// [`CodecError::BadMagic`] on a corrupt prefix, and
/// [`CodecError::ChecksumMismatch`] on payload corruption.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), CodecError> {
    let (frame, consumed) = split_frame(bytes)?;
    Ok((
        Frame {
            msg_type: frame.msg_type,
            payload: frame.payload.to_vec(),
        },
        consumed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_empty_payload() {
        let wire = encode_frame(0, b"");
        let (frame, consumed) = decode_frame(&wire).unwrap();
        assert_eq!(frame.msg_type, 0);
        assert!(frame.payload.is_empty());
        assert_eq!(consumed, FRAME_OVERHEAD);
    }

    #[test]
    fn round_trip_with_trailing_garbage() {
        let mut wire = encode_frame(3, b"abc");
        wire.extend_from_slice(b"garbage");
        let (frame, consumed) = decode_frame(&wire).unwrap();
        assert_eq!(&frame.payload[..], b"abc");
        assert_eq!(consumed, FRAME_OVERHEAD + 3);
    }

    #[test]
    fn truncated_header_reports_needed() {
        let err = decode_frame(&[0xFE]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { available: 1, .. }));
    }

    #[test]
    fn truncated_payload_reports_needed() {
        let wire = encode_frame(1, b"hello world");
        let err = decode_frame(&wire[..wire.len() - 3]).unwrap_err();
        match err {
            CodecError::Truncated { needed, available } => {
                assert_eq!(needed, wire.len());
                assert_eq!(available, wire.len() - 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut wire = encode_frame(1, b"x");
        wire[0] = 0x00;
        assert_eq!(decode_frame(&wire).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut wire = encode_frame(1, b"xyz");
        wire[8] ^= 0xFF;
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    /// Legacy-checksum test vectors: frames produced by the v1 codec, whose
    /// trailing word was an additive byte sum of the payload alone. The
    /// additive sum cannot detect reordered bytes (the corrupt-upload fault
    /// injector produces exactly that), so the CRC32 codec must reject
    /// these frames rather than accept them.
    const LEGACY_HELLO: [u8; 16] = [
        0xFE, 0x1A, // magic
        0x07, // type 7
        0x00, 0x00, 0x00, 0x05, // length 5
        b'h', b'e', b'l', b'l', b'o', // payload
        0x00, 0x00, 0x02, 0x14, // additive byte sum = 532
    ];
    const LEGACY_EMPTY: [u8; 11] = [
        0xFE, 0x1A, // magic
        0x00, // type 0
        0x00, 0x00, 0x00, 0x00, // length 0
        0x00, 0x00, 0x00, 0x00, // additive byte sum of nothing = 0
    ];

    #[test]
    fn legacy_byte_sum_frames_are_rejected() {
        assert_eq!(
            decode_frame(&LEGACY_HELLO).unwrap_err(),
            CodecError::ChecksumMismatch
        );
        assert_eq!(
            decode_frame(&LEGACY_EMPTY).unwrap_err(),
            CodecError::ChecksumMismatch
        );
        // Sanity: the same logical frames re-encoded by the CRC32 codec
        // decode fine and differ from the legacy bytes only in the checksum.
        let hello = encode_frame(7, b"hello");
        assert_eq!(&hello[..12], &LEGACY_HELLO[..12]);
        assert!(decode_frame(&hello).is_ok());
    }

    #[test]
    fn crc_detects_reordered_payload_bytes() {
        // "ab" and "ba" have equal byte sums — the failure mode that
        // motivated CRC32. Swapping bytes must now fail the checksum.
        let mut wire = encode_frame(1, b"ab");
        wire.swap(7, 8);
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn corrupted_type_or_length_detected() {
        // The CRC covers type and length: flipping either must fail.
        let mut wire = encode_frame(1, b"xyz");
        wire[2] ^= 0x01; // type byte
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            CodecError::ChecksumMismatch
        );
        let mut wire = encode_frame(1, b"xyz");
        wire[6] -= 1; // length 3 -> 2: CRC input changes, mismatch
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value: CRC32("123456789") = 0xCBF43926.
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn oversized_declared_length_is_typed_not_an_overflow() {
        // A peer-supplied length of u32::MAX: `FRAME_OVERHEAD + len` does
        // not fit a 32-bit usize. Either way the answer is the typed "not
        // enough bytes yet" the streaming callers already handle.
        let mut wire = encode_frame(1, b"abc");
        wire[3..7].copy_from_slice(&u32::MAX.to_be_bytes());
        let needed = usize::try_from(u32::MAX)
            .ok()
            .and_then(|len| len.checked_add(FRAME_OVERHEAD))
            .unwrap_or(usize::MAX);
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            CodecError::Truncated {
                needed,
                available: wire.len()
            }
        );
    }

    #[test]
    fn declared_length_is_judged_from_the_header_alone() {
        let mut wire = encode_frame(1, b"abc");
        assert_eq!(check_declared_len(&wire[..HEADER_LEN - 1]), Ok(()));
        let cap = len_u32(MAX_PAYLOAD_LEN);
        for (declared, verdict) in [
            (cap, Ok(())),
            (cap + 1, Err(CodecError::Oversized { declared: cap + 1 })),
            (u32::MAX, Err(CodecError::Oversized { declared: u32::MAX })),
        ] {
            wire[3..7].copy_from_slice(&declared.to_be_bytes());
            assert_eq!(check_declared_len(&wire[..HEADER_LEN]), verdict);
        }
    }

    #[test]
    fn encode_frame_with_frames_an_appended_payload_in_place() {
        let mut out = b"prefix".to_vec();
        encode_frame_with(9, &mut out, |out| {
            out.extend_from_slice(b"pay");
            out.extend_from_slice(b"load");
        });
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &encode_frame(9, b"payload")[..]);
        let (frame, consumed) = split_frame(&out[6..]).unwrap();
        assert_eq!((frame.msg_type, frame.payload), (9, &b"payload"[..]));
        assert_eq!(consumed, out.len() - 6);
    }

    #[test]
    fn encode_frame_into_matches_encode_frame() {
        let mut out = Vec::new();
        encode_frame_into(9, b"payload", &mut out);
        assert_eq!(&out[..], &encode_frame(9, b"payload")[..]);
        // Appends rather than overwrites.
        encode_frame_into(9, b"payload", &mut out);
        assert_eq!(out.len(), 2 * (FRAME_OVERHEAD + 7));
    }

    #[test]
    fn errors_display() {
        assert!(!CodecError::BadMagic.to_string().is_empty());
        assert!(CodecError::Truncated {
            needed: 5,
            available: 2
        }
        .to_string()
        .contains('5'));
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// Longest buffer the CRC equivalence sweep covers. Miri runs the
    /// interpreter ~100x slower than native; a few slicing steps plus every
    /// remainder is what the UB lane needs.
    #[cfg(miri)]
    const CRC_SWEEP_LEN: usize = 70;
    #[cfg(not(miri))]
    const CRC_SWEEP_LEN: usize = 4096;

    proptest! {
        #[test]
        fn any_payload_round_trips(
            msg_type in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let wire = encode_frame(msg_type, &payload);
            let (frame, consumed) = decode_frame(&wire).unwrap();
            prop_assert_eq!(frame.msg_type, msg_type);
            prop_assert_eq!(&frame.payload[..], &payload[..]);
            prop_assert_eq!(consumed, wire.len());
        }

        #[test]
        fn single_bit_flip_in_payload_is_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..256),
            byte_sel in any::<u16>(),
            bit in 0usize..8,
        ) {
            let mut wire = encode_frame(5, &payload);
            let idx = 7 + byte_sel as usize % payload.len();
            wire[idx] ^= 1 << bit;
            prop_assert_eq!(decode_frame(&wire).unwrap_err(), CodecError::ChecksumMismatch);
        }

        /// The slicing kernel against the byte-at-a-time reference at
        /// every length from every start offset of a shared buffer, so
        /// every head alignment meets every tail remainder. (One offset per
        /// case keeps the quadratic sweep affordable in a debug build; the
        /// 64 seeded cases visit each of the eight offsets several times.)
        #[test]
        fn slicing_crc_equals_the_bytewise_reference_at_every_length_and_offset(
            buf in proptest::collection::vec(any::<u8>(), CRC_SWEEP_LEN + 8),
            offset in 0usize..8,
        ) {
            let window = &buf[offset..offset + CRC_SWEEP_LEN];
            // The reference is streamed: its state after `len` bytes is the
            // raw register of `crc32_reference(&window[..len])`.
            let mut reference = 0xFFFF_FFFF;
            for len in 0..=CRC_SWEEP_LEN {
                prop_assert_eq!(
                    crc32(&window[..len]),
                    reference ^ 0xFFFF_FFFF,
                    "offset {} len {}", offset, len
                );
                if let Some(next) = window.get(len..len + 1) {
                    reference = crc32_bytewise(reference, next);
                }
            }
            prop_assert_eq!(crc32(window), crc32_reference(window));
        }

        /// Streaming: feeding a buffer in two or three pieces, cut anywhere,
        /// gives the CRC of the whole.
        #[test]
        fn crc_update_over_split_regions_equals_one_update(
            bytes in proptest::collection::vec(any::<u8>(), 0..CRC_SWEEP_LEN),
            cut_a in any::<u16>(),
            cut_b in any::<u16>(),
        ) {
            let a = usize::from(cut_a) % (bytes.len() + 1);
            let b = a + usize::from(cut_b) % (bytes.len() - a + 1);
            let mut split = Crc32::new();
            split.update(&bytes[..a]);
            split.update(&bytes[a..b]);
            split.update(&bytes[b..]);
            prop_assert_eq!(split.finish(), crc32(&bytes));
            prop_assert_eq!(split.finish(), crc32_reference(&bytes));
        }
    }
}
