//! The one record codec.
//!
//! Control frames ([`crate::frames`]), journal records
//! ([`crate::journal`]) and trace events ([`crate::trace`]) share one
//! container: a CRC32 frame ([`fei_net::codec`]) whose payload is a version
//! byte followed by the record's fields, big-endian, in declaration order.
//! This module is the only place that layout is written down:
//!
//! * [`Field`] — put / take / wire length for the six field kinds the
//!   records use;
//! * [`Reader`] — the bounds-checked payload cursor every decode runs on;
//! * [`encode`] / [`decode`] — the envelope (version byte checked before
//!   any body field is parsed);
//! * [`scan`] — the walk over a concatenation of records that tells a torn
//!   tail (the signature of a crash mid-append) from mid-log corruption;
//! * [`record_table!`] — the declarative table a record enum is written in
//!   once, from which the enum, its `TAG_*` consts, its `*_TAGS` array and
//!   `tag`/`name`/`encoded_len`/`encode`/`decode` are all derived. Adding a
//!   record kind is one table entry.
//!
//! Tag values are unique across all three tables by a compile-time
//! assertion at the bottom of this file.

use fei_net::codec::{encode_frame_with, len_u32, split_frame, FRAME_OVERHEAD};
use fei_net::CodecError;

use crate::error::ProtoError;
use crate::frames::{AbortReason, CONTROL_TAGS};
use crate::journal::JOURNAL_TAGS;
use crate::trace::TRACE_TAGS;

/// Version of the control-plane protocol this crate speaks.
pub const PROTO_VERSION: u8 = 1;

/// Encoded length of a record with an empty body: frame overhead plus the
/// version byte.
pub(crate) const ENVELOPE_LEN: usize = FRAME_OVERHEAD + 1;

/// Bounds-checked big-endian payload reader.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(ProtoError::Codec(CodecError::Truncated {
                needed: self.at.saturating_add(n),
                available: self.bytes.len(),
            })),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let mut buf = [0u8; N];
        buf.copy_from_slice(self.take(N)?);
        Ok(buf)
    }
}

/// One typed field of a record body.
pub(crate) trait Field: Sized {
    /// Appends the field's wire form.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the field from the front of what `reader` has left.
    fn take(reader: &mut Reader<'_>) -> Result<Self, ProtoError>;
    /// Bytes [`Field::put`] appends.
    fn wire_len(&self) -> usize;
}

macro_rules! int_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn take(reader: &mut Reader<'_>) -> Result<Self, ProtoError> {
                Ok(<$ty>::from_be_bytes(reader.array()?))
            }
            fn wire_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
    )*};
}
int_fields!(u8, u32, u64);

impl Field for AbortReason {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let tag = u8::take(reader)?;
        AbortReason::from_tag(tag).ok_or(ProtoError::UnknownFrameType { tag })
    }
    fn wire_len(&self) -> usize {
        1
    }
}

/// `u32` length, then the bytes.
impl Field for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        len_u32(self.len()).put(out);
        out.extend_from_slice(self);
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let len = u32::take(reader)? as usize;
        Ok(reader.take(len)?.to_vec())
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

/// `u32` count, then the values.
impl Field for Vec<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        len_u32(self.len()).put(out);
        for value in self {
            value.put(out);
        }
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let count = u32::take(reader)? as usize;
        // The declared count is untrusted: reserve no more than the payload
        // could possibly hold.
        let mut values = Vec::with_capacity(count.min(reader.bytes.len() / 8));
        for _ in 0..count {
            values.push(u64::take(reader)?);
        }
        Ok(values)
    }
    fn wire_len(&self) -> usize {
        4 + 8 * self.len()
    }
}

/// Appends a framed record to `out`: version byte, then whatever `put_body`
/// appends, under `tag` (magic, tag, length, payload, CRC) — serialized in
/// place, so the body is written once and checksummed once.
pub(crate) fn encode_into(tag: u8, out: &mut Vec<u8>, put_body: impl FnOnce(&mut Vec<u8>)) {
    encode_frame_with(tag, out, |out| {
        out.push(PROTO_VERSION);
        put_body(out);
    });
}

/// Unframes one record from the front of `bytes`: checks the CRC, then the
/// version byte, and only then hands the tag and the body to `take_body`.
/// Returns the record and the bytes consumed.
pub(crate) fn decode<T>(
    bytes: &[u8],
    take_body: impl FnOnce(u8, &mut Reader<'_>) -> Result<T, ProtoError>,
) -> Result<(T, usize), ProtoError> {
    let (frame, consumed) = split_frame(bytes)?;
    let mut reader = Reader {
        bytes: frame.payload,
        at: 0,
    };
    let version = u8::take(&mut reader)?;
    if version != PROTO_VERSION {
        return Err(ProtoError::VersionMismatch {
            expected: PROTO_VERSION,
            found: version,
        });
    }
    Ok((take_body(frame.msg_type, &mut reader)?, consumed))
}

/// Decodes a concatenation of records, returning them and the length of a
/// torn tail, as [`walk`] does.
pub(crate) fn scan<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
) -> Result<(Vec<T>, usize), ProtoError> {
    let mut records = Vec::new();
    let torn = walk(bytes, decode, |record| records.push(record))?;
    Ok((records, torn))
}

/// Decodes a concatenation of records one at a time, handing each to
/// `each` as soon as it decodes, and returns the length of a torn tail. A
/// truncated trailing record — the signature of a crash mid-append — ends
/// the walk cleanly; any other malformation (CRC failure, foreign tag or
/// version) is an error, because it means acknowledged bytes changed
/// underneath us. The records before it have been handed over by then.
///
/// A record whose length field was damaged to overrun the file also reads
/// as truncated. What tells it from a torn tail is what follows: a crash
/// leaves nothing after the record it cut, so if a whole record of this
/// log's own (one `decode` accepts, CRC included) starts anywhere inside
/// the supposed tail, the truncation is damage and is refused. Records of
/// other kinds do not count: a trace event embeds whole control frames,
/// whose tags no trace record uses, so a crash torn after one is still a
/// tear.
pub(crate) fn walk<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    mut each: impl FnMut(T),
) -> Result<usize, ProtoError> {
    let mut at = 0;
    while at < bytes.len() {
        match decode(&bytes[at..]) {
            Ok((record, consumed)) => {
                each(record);
                at += consumed;
            }
            // Only the *last* thing in the log can be torn: the decode
            // failed because the bytes ran out.
            Err(e @ ProtoError::Codec(CodecError::Truncated { .. })) => {
                if (at + 1..bytes.len()).any(|later| decode(&bytes[later..]).is_ok()) {
                    return Err(e);
                }
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(bytes.len() - at)
}

/// Declares a record enum from its table: one entry per kind, written as
/// `tag value, visibility and TAG_ const name => variant { ordered typed
/// fields }`. The wire form of a kind is its fields in the order written
/// here.
macro_rules! record_table {
    (
        $(#[$enum_meta:meta])*
        pub enum $name:ident;
        $(#[$tags_meta:meta])*
        pub const $tags:ident;
        $(
            $(#[$tag_meta:meta])*
            $tag:literal $tag_vis:vis $tag_const:ident =>
            $(#[$variant_meta:meta])*
            $variant:ident $({
                $( $(#[$field_meta:meta])* $field:ident: $ty:ty ),* $(,)?
            })?
        ),* $(,)?
    ) => {
        $( $(#[$tag_meta])* $tag_vis const $tag_const: u8 = $tag; )*

        $(#[$tags_meta])*
        pub const $tags: [u8; [$($tag_const),*].len()] = [$($tag_const),*];

        $(#[$enum_meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant $({ $( $(#[$field_meta])* $field: $ty ),* })?
            ),*
        }

        impl $name {
            /// The frame-codec tag this record is framed under.
            pub fn tag(&self) -> u8 {
                match self {
                    $( Self::$variant { .. } => $tag_const ),*
                }
            }

            /// Human-readable record kind, used in typed rejections.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => stringify!($variant) ),*
                }
            }

            /// Exact encoded length (frame overhead + version byte + body).
            pub fn encoded_len(&self) -> usize {
                use $crate::record::Field;
                match self {
                    $(
                        Self::$variant $({ $($field),* })? =>
                            $crate::record::ENVELOPE_LEN $($( + $field.wire_len() )*)?
                    ),*
                }
            }

            /// Serializes into one complete frame (magic, tag, length,
            /// version byte, body, CRC).
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(self.encoded_len());
                self.encode_into(&mut out);
                out
            }

            /// Appends the [`encode`](Self::encode)d frame to `out`,
            /// serializing in place (logs append records without an
            /// intermediate buffer).
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                use $crate::record::Field;
                $crate::record::encode_into(self.tag(), out, |out| match self {
                    $(
                        Self::$variant $({ $($field),* })? => {
                            $($( $field.put(out); )*)?
                        }
                    ),*
                })
            }

            /// Decodes one record from the front of `bytes`, returning it
            /// and the bytes consumed.
            ///
            /// # Errors
            ///
            /// [`ProtoError`](crate::error::ProtoError): `Codec` on
            /// framing/CRC failures and truncated bodies; `VersionMismatch`
            /// when the payload's leading version byte differs from
            /// [`PROTO_VERSION`](crate::frames::PROTO_VERSION) — checked
            /// before any body field is parsed; `UnknownFrameType` on a tag
            /// outside this table or an enumerated field byte outside its
            /// range.
            pub fn decode(bytes: &[u8]) -> Result<(Self, usize), $crate::error::ProtoError> {
                use $crate::record::Field;
                $crate::record::decode(bytes, |tag, reader| {
                    Ok(match tag {
                        $(
                            $tag_const => Self::$variant $({
                                $( $field: Field::take(reader)? ),*
                            })?,
                        )*
                        tag => return Err($crate::error::ProtoError::UnknownFrameType { tag }),
                    })
                })
            }
        }
    };
}
pub(crate) use record_table;

// Tag uniqueness across the three tables, and their floor (model payload
// frames own the tags below 0x10), checked when the crate compiles.
const _: () = {
    let tables: [&[u8]; 3] = [&CONTROL_TAGS, &JOURNAL_TAGS, &TRACE_TAGS];
    let mut seen = [false; 256];
    let mut t = 0;
    while t < tables.len() {
        let mut i = 0;
        while i < tables[t].len() {
            let tag = tables[t][i] as usize;
            assert!(
                tag >= 0x10,
                "record tags below 0x10 collide with model payload frames"
            );
            assert!(!seen[tag], "two record kinds share a tag value");
            seen[tag] = true;
            i += 1;
        }
        t += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Open,
            TraceEvent::Deliver {
                tick: 3,
                bytes: vec![1, 2, 3],
            },
            TraceEvent::Tick { tick: 6 },
        ]
    }

    #[test]
    fn scan_tolerates_a_torn_tail_only() {
        let bytes: Vec<u8> = events().iter().flat_map(TraceEvent::encode).collect();
        assert_eq!(scan(&bytes, TraceEvent::decode), Ok((events(), 0)));
        // Torn tail: cut mid-record.
        let last = TraceEvent::Tick { tick: 6 }.encoded_len();
        let (survivors, torn) = scan(&bytes[..bytes.len() - 3], TraceEvent::decode).expect("torn");
        assert_eq!(survivors, events()[..2]);
        assert_eq!(torn, last - 3);
        // Mid-log corruption is fatal: a flipped tag, and a length field
        // flipped to overrun the file with whole records still after it.
        for at in [2, 3] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0xFF;
            assert!(scan(&corrupt, TraceEvent::decode).is_err(), "flip at {at}");
        }
    }
}
