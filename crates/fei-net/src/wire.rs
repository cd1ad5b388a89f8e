//! Wire format v2: versioned, compressed model-parameter payloads.
//!
//! PR 4 made local training fast enough that round time and round energy are
//! dominated by model transport, and the paper's upload energy `e_U` (the
//! `B1 = ρ·n + e_U` term of Eq. 12) scales with exactly the bytes this
//! module emits. A v2 payload is:
//!
//! ```text
//! version  (1 byte, = 2)
//! encoding (1 byte: 0 = F64, 1 = F32, 2 = Q8)
//! flags    (1 byte: bit 0 = delta-vs-global)
//! count    (4 bytes, big-endian weight count)
//! body     (encoding-dependent, see below)
//! ```
//!
//! Bodies:
//!
//! * [`Encoding::F64`] — 8 bytes per weight, little-endian. Bit-exact: the
//!   default tier reproduces the uncompressed path bit-for-bit (pinned by
//!   `tests/golden/headline_numerics.json`).
//! * [`Encoding::F32`] — 4 bytes per weight, little-endian `f32` casts.
//! * [`Encoding::Q8`] — per 256-weight block, an `f32` scale and `f32`
//!   offset followed by one affine-quantized 8-bit code per weight
//!   (`w ≈ offset + scale · q`). Quantization rounds half-to-even, so the
//!   tier is deterministic across hosts.
//!
//! With the delta flag set, the encoded vector is `w_local − w_global`
//! against a caller-supplied base; decode adds the base back. Small-magnitude
//! deltas occupy a far narrower dynamic range than absolute weights, so the
//! lossy tiers quantize them with much less error.
//!
//! All encode/decode goes through a caller-owned [`WireScratch`] that counts
//! its own buffer-growth events (the [`fei_ml::GradScratch`] discipline):
//! once warm, the hot path performs **zero heap allocations**, the property
//! `BENCH_compression.json` records.
//!
//! [`fei_ml::GradScratch`]: https://docs.rs/fei-ml

use crate::codec::CodecError;

/// Current payload format version.
pub const WIRE_VERSION: u8 = 2;

/// Bytes of the fixed payload header (version, encoding, flags, count).
pub(crate) const WIRE_HEADER: usize = 1 + 1 + 1 + 4;

/// Weights per Q8 quantization block.
pub(crate) const Q8_BLOCK: usize = 256;

/// Per-block Q8 overhead: an `f32` scale plus an `f32` offset.
const Q8_BLOCK_OVERHEAD: usize = 4 + 4;

/// Delta-vs-global flag bit.
const FLAG_DELTA: u8 = 0b0000_0001;

/// How model weights are encoded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Encoding {
    /// Lossless 8-byte little-endian `f64`s — byte-identical semantics to
    /// the v1 path, and the default.
    #[default]
    F64,
    /// 4-byte little-endian `f32` casts (one rounding per weight).
    F32,
    /// Per-block affine 8-bit quantization: ~1.03 bytes per weight.
    Q8,
}

impl Encoding {
    /// The 1-byte tag stored in the payload header.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Encoding::F64 => 0,
            Encoding::F32 => 1,
            Encoding::Q8 => 2,
        }
    }

    /// Parses a header tag.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownEncoding`] for an unassigned tag.
    pub(crate) fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(Encoding::F64),
            1 => Ok(Encoding::F32),
            2 => Ok(Encoding::Q8),
            other => Err(CodecError::UnknownEncoding { tag: other }),
        }
    }

    /// Body bytes for `count` weights under this encoding.
    pub(crate) fn body_len(self, count: usize) -> usize {
        match self {
            Encoding::F64 => count * 8,
            Encoding::F32 => count * 4,
            Encoding::Q8 => count + count.div_ceil(Q8_BLOCK) * Q8_BLOCK_OVERHEAD,
        }
    }

    /// Stable lowercase name, for reports and sweep CLIs.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::F64 => "f64",
            Encoding::F32 => "f32",
            Encoding::Q8 => "q8",
        }
    }
}

/// Transport configuration: which encoding ships model updates, and whether
/// they are encoded as deltas against the round's global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WireConfig {
    /// Weight encoding tier.
    pub encoding: Encoding,
    /// Encode `w_local − w_global` instead of absolute weights. Requires a
    /// shared base vector on both sides (the coordinator's current global
    /// model, which every worker holds after the lossless downlink).
    pub delta: bool,
}

impl WireConfig {
    /// The lossless default: absolute `f64` weights.
    pub fn lossless() -> Self {
        Self::default()
    }

    /// Total payload bytes (header + body) for `count` weights.
    pub fn payload_len(self, count: usize) -> usize {
        WIRE_HEADER + self.encoding.body_len(count)
    }

    /// Whether a decode of this configuration reproduces the encoder's input
    /// bit-for-bit.
    pub fn is_lossless(self) -> bool {
        self.encoding == Encoding::F64 && !self.delta
    }

    /// Stable name like `q8+delta`, for reports and sweep CLIs.
    pub fn name(self) -> String {
        if self.delta {
            format!("{}+delta", self.encoding.name())
        } else {
            self.encoding.name().to_string()
        }
    }
}

/// Reusable encode/decode workspace, self-counted like `GradScratch`: every
/// buffer-growth event increments [`WireScratch::allocations`], and in
/// steady state (same model size round after round) the counter must stop
/// moving — the zero-allocation property the compression bench records.
#[derive(Debug, Clone, Default)]
pub struct WireScratch {
    /// Staging buffer for delta computation (`w_local − w_global`) on encode
    /// and for raw decoded values before the base is added back on decode.
    stage: Vec<f64>,
    /// Buffer-growth events since construction.
    allocations: u64,
}

impl WireScratch {
    /// Creates an empty workspace; buffers are sized by the first call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer-growth (heap allocation) events so far, counting both the
    /// internal staging buffer and any growth this scratch performed on
    /// caller-owned output buffers.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Grows `buf` to exactly `need` elements, counting an allocation only
    /// when existing capacity is insufficient.
    fn stage_exact(&mut self, need: usize) {
        if need > self.stage.capacity() {
            self.allocations += 1;
        }
        self.stage.clear();
        self.stage.resize(need, 0.0);
    }

    /// Reserves `extra` bytes on a caller-owned buffer, counting the growth.
    fn reserve_counted(&mut self, out: &mut Vec<u8>, extra: usize) {
        if out.len() + extra > out.capacity() {
            self.allocations += 1;
        }
        out.reserve(extra);
    }

    /// Encodes `params` as a v2 payload appended to `out`, returning the
    /// payload length in bytes. With [`WireConfig::delta`], `global` is the
    /// shared base and must have `params`'s length.
    ///
    /// A reused `out` (cleared by the caller between frames) performs no
    /// heap allocation once capacities are warm.
    ///
    /// # Panics
    ///
    /// Panics when `delta` is set without a base, or the base length
    /// differs — both are in-process wiring bugs, not wire-data conditions.
    pub fn encode_into(
        &mut self,
        config: WireConfig,
        params: &[f64],
        global: Option<&[f64]>,
        out: &mut Vec<u8>,
    ) -> usize {
        let payload_len = config.payload_len(params.len());
        self.reserve_counted(out, payload_len);
        out.push(WIRE_VERSION);
        out.push(config.encoding.tag());
        out.push(if config.delta { FLAG_DELTA } else { 0 });
        out.extend_from_slice(&crate::codec::len_u32(params.len()).to_be_bytes());

        let values: &[f64] = if config.delta {
            let base = global.expect("invariant: delta encoding requires the shared global base");
            assert_eq!(
                base.len(),
                params.len(),
                "delta base length must match the update"
            );
            self.stage_exact(params.len());
            for ((d, &w), &g) in self.stage.iter_mut().zip(params).zip(base) {
                *d = w - g;
            }
            &self.stage
        } else {
            params
        };

        match config.encoding {
            Encoding::F64 => {
                for &v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Encoding::F32 => {
                for &v in values {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "the F32 encoding is f64 -> f32 rounding by definition"
                    )]
                    out.extend_from_slice(&(v as f32).to_le_bytes());
                }
            }
            Encoding::Q8 => {
                for block in values.chunks(Q8_BLOCK) {
                    encode_q8_block(block, out);
                }
            }
        }
        payload_len
    }

    /// Decodes a v2 payload into `out` (cleared first), returning the
    /// [`WireConfig`] the encoder used. `global` supplies the delta base; it
    /// is only consulted when the payload's delta flag is set.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnsupportedVersion`] / [`CodecError::UnknownEncoding`] /
    /// [`CodecError::BadFlags`] for malformed headers,
    /// [`CodecError::Truncated`] when the body is shorter than the declared
    /// count requires, and [`CodecError::DeltaBaseMismatch`] when the delta
    /// flag is set but no base (or a wrong-length base) is available.
    pub fn decode_into(
        &mut self,
        payload: &[u8],
        global: Option<&[f64]>,
        out: &mut Vec<f64>,
    ) -> Result<WireConfig, CodecError> {
        if payload.len() < WIRE_HEADER {
            return Err(CodecError::Truncated {
                needed: WIRE_HEADER,
                available: payload.len(),
            });
        }
        if payload[0] != WIRE_VERSION {
            return Err(CodecError::UnsupportedVersion { got: payload[0] });
        }
        let encoding = Encoding::from_tag(payload[1])?;
        let flags = payload[2];
        if flags & !FLAG_DELTA != 0 {
            return Err(CodecError::BadFlags { flags });
        }
        let delta = flags & FLAG_DELTA != 0;
        let mut count_be = [0u8; 4];
        count_be.copy_from_slice(&payload[3..7]);
        let count = u32::from_be_bytes(count_be) as usize;
        let body = &payload[WIRE_HEADER..];
        let need = encoding.body_len(count);
        if body.len() < need {
            return Err(CodecError::Truncated {
                needed: WIRE_HEADER + need,
                available: payload.len(),
            });
        }
        let base = if delta {
            match global {
                Some(base) if base.len() == count => Some(base),
                _ => {
                    return Err(CodecError::DeltaBaseMismatch {
                        count,
                        base_len: global.map(<[f64]>::len),
                    })
                }
            }
        } else {
            None
        };

        if out.capacity() < count {
            self.allocations += 1;
        }
        out.clear();
        out.reserve(count);
        match encoding {
            Encoding::F64 => {
                for chunk in body[..need].chunks_exact(8) {
                    let mut le = [0u8; 8];
                    le.copy_from_slice(chunk);
                    out.push(f64::from_le_bytes(le));
                }
            }
            Encoding::F32 => {
                for chunk in body[..need].chunks_exact(4) {
                    let mut le = [0u8; 4];
                    le.copy_from_slice(chunk);
                    out.push(f32::from_le_bytes(le) as f64);
                }
            }
            Encoding::Q8 => {
                let mut cursor = &body[..need];
                let mut remaining = count;
                while remaining > 0 {
                    let block_len = remaining.min(Q8_BLOCK);
                    decode_q8_block(&cursor[..Q8_BLOCK_OVERHEAD + block_len], block_len, out);
                    cursor = &cursor[Q8_BLOCK_OVERHEAD + block_len..];
                    remaining -= block_len;
                }
            }
        }
        if let Some(base) = base {
            for (v, &g) in out.iter_mut().zip(base) {
                *v += g;
            }
        }
        Ok(WireConfig { encoding, delta })
    }

    /// Convenience round trip: encode under `config`, then decode the
    /// payload back, both through this scratch. Returns the payload length.
    /// This is what the serial FedAvg engine uses to charge byte-accurate
    /// upload costs and observe exactly the values the threaded engine's
    /// coordinator would decode.
    pub fn round_trip(
        &mut self,
        config: WireConfig,
        params: &mut Vec<f64>,
        global: Option<&[f64]>,
        wire_buf: &mut Vec<u8>,
    ) -> usize {
        wire_buf.clear();
        let len = self.encode_into(config, params, global, wire_buf);
        self.stage_exact(params.len());
        // Decode into the staging buffer, then copy back out, so the caller
        // keeps ownership of `params` without an extra allocation.
        let mut decoded = std::mem::take(&mut self.stage);
        let decoded_config = self
            .decode_into(wire_buf, global, &mut decoded)
            .expect("invariant: a payload this scratch just encoded decodes cleanly");
        debug_assert_eq!(decoded_config, config);
        params.clear();
        params.extend_from_slice(&decoded);
        self.stage = decoded;
        len
    }
}

/// Encodes one Q8 block: `f32` scale, `f32` offset, then one 8-bit code per
/// weight (`w ≈ offset + scale · q`, `q ∈ [0, 255]`). Codes are computed
/// with round-half-even in `f64`, so the mapping is deterministic across
/// hosts. A constant block (or a block of non-finite values, which the
/// coordinator's screen rejects anyway) stores scale 0 and decodes to the
/// offset.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the block's f32 scale/offset round by definition, and q is clamped to 0..=255 before `as u8`"
)]
fn encode_q8_block(block: &[f64], out: &mut Vec<u8>) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in block {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    let span = max - min;
    let (scale, offset) = if span.is_finite() && span > 0.0 {
        ((span / 255.0) as f32, min as f32)
    } else {
        // Constant, empty, or non-finite block: encode the offset alone.
        (0.0f32, if min.is_finite() { min as f32 } else { 0.0 })
    };
    out.extend_from_slice(&scale.to_le_bytes());
    out.extend_from_slice(&offset.to_le_bytes());
    if scale > 0.0 {
        // Quantize against the f32-rounded affine map the decoder will use,
        // so the chosen code is the best one for the *decoded* values.
        let scale64 = scale as f64;
        let offset64 = offset as f64;
        for &v in block {
            let q = ((v - offset64) / scale64)
                .round_ties_even()
                .clamp(0.0, 255.0);
            out.push(q as u8);
        }
    } else {
        for _ in block {
            out.push(0);
        }
    }
}

/// Decodes one Q8 block of `block_len` weights from
/// `bytes = scale ‖ offset ‖ codes`.
fn decode_q8_block(bytes: &[u8], block_len: usize, out: &mut Vec<f64>) {
    let mut scale_le = [0u8; 4];
    scale_le.copy_from_slice(&bytes[0..4]);
    let mut offset_le = [0u8; 4];
    offset_le.copy_from_slice(&bytes[4..8]);
    let scale = f32::from_le_bytes(scale_le) as f64;
    let offset = f32::from_le_bytes(offset_le) as f64;
    for &q in &bytes[Q8_BLOCK_OVERHEAD..Q8_BLOCK_OVERHEAD + block_len] {
        out.push(offset + scale * q as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 0.01 - 1.5).collect()
    }

    #[test]
    fn payload_len_matches_encoded_len() {
        let params = ramp(700); // off-block size: 2 full blocks + remainder
        let mut scratch = WireScratch::new();
        for encoding in [Encoding::F64, Encoding::F32, Encoding::Q8] {
            for delta in [false, true] {
                let config = WireConfig { encoding, delta };
                let mut out = Vec::new();
                let len = scratch.encode_into(config, &params, Some(&params), &mut out);
                assert_eq!(len, out.len(), "{}", config.name());
                assert_eq!(len, config.payload_len(params.len()), "{}", config.name());
            }
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let params = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        scratch.encode_into(WireConfig::lossless(), &params, None, &mut wire);
        let mut back = Vec::new();
        let config = scratch.decode_into(&wire, None, &mut back).unwrap();
        assert!(config.is_lossless());
        for (a, b) in params.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f64_delta_round_trip_restores_near_exactly() {
        let params = ramp(300);
        let global: Vec<f64> = params.iter().map(|v| v + 0.125).collect();
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        let config = WireConfig {
            encoding: Encoding::F64,
            delta: true,
        };
        scratch.encode_into(config, &params, Some(&global), &mut wire);
        let mut back = Vec::new();
        assert_eq!(
            scratch
                .decode_into(&wire, Some(&global), &mut back)
                .unwrap(),
            config
        );
        // (w − g) + g is not guaranteed bit-exact, but with these dyadic
        // offsets it is exact; in general it is within one rounding.
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() <= f64::EPSILON * a.abs().max(1.0));
        }
    }

    #[test]
    fn f32_round_trip_casts_once() {
        let params = ramp(100);
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        let config = WireConfig {
            encoding: Encoding::F32,
            delta: false,
        };
        scratch.encode_into(config, &params, None, &mut wire);
        let mut back = Vec::new();
        scratch.decode_into(&wire, None, &mut back).unwrap();
        for (a, b) in params.iter().zip(&back) {
            assert_eq!(*b, *a as f32 as f64);
        }
    }

    #[test]
    fn q8_error_is_bounded_by_half_a_step() {
        let params = ramp(600);
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        let config = WireConfig {
            encoding: Encoding::Q8,
            delta: false,
        };
        scratch.encode_into(config, &params, None, &mut wire);
        let mut back = Vec::new();
        scratch.decode_into(&wire, None, &mut back).unwrap();
        for (block, decoded) in params.chunks(Q8_BLOCK).zip(back.chunks(Q8_BLOCK)) {
            let min = block.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = block.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            // f32 rounding of scale/offset adds a small slack on top of the
            // half-step quantization bound.
            let step = (max - min) / 255.0;
            let tol = 0.5 * step + 1e-6 * max.abs().max(1.0);
            for (a, b) in block.iter().zip(decoded) {
                assert!((a - b).abs() <= tol, "|{a} - {b}| > {tol}");
            }
        }
    }

    #[test]
    fn q8_constant_block_is_exact_and_zero_scale() {
        let params = vec![0.75; 40];
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        let config = WireConfig {
            encoding: Encoding::Q8,
            delta: false,
        };
        scratch.encode_into(config, &params, None, &mut wire);
        let mut back = Vec::new();
        scratch.decode_into(&wire, None, &mut back).unwrap();
        assert!(back.iter().all(|&v| v == 0.75f32 as f64));
    }

    #[test]
    fn q8_delta_beats_q8_absolute_on_small_updates() {
        // Absolute weights near ±4 with tiny per-round deltas: the delta
        // tier's quantization step is orders of magnitude finer.
        let global: Vec<f64> = (0..512)
            .map(|i| ((i * 37) % 100) as f64 * 0.08 - 4.0)
            .collect();
        let params: Vec<f64> = global
            .iter()
            .enumerate()
            .map(|(i, g)| g + ((i % 7) as f64 - 3.0) * 1e-4)
            .collect();
        let mut scratch = WireScratch::new();
        let mut err = |delta: bool| {
            let config = WireConfig {
                encoding: Encoding::Q8,
                delta,
            };
            let mut wire = Vec::new();
            scratch.encode_into(config, &params, Some(&global), &mut wire);
            let mut back = Vec::new();
            scratch
                .decode_into(&wire, Some(&global), &mut back)
                .unwrap();
            params
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        let absolute = err(false);
        let delta = err(true);
        assert!(
            delta < absolute / 10.0,
            "delta max err {delta} vs absolute {absolute}"
        );
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let params = ramp(1000);
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        let mut back = Vec::new();
        let config = WireConfig {
            encoding: Encoding::Q8,
            delta: true,
        };
        for _ in 0..3 {
            wire.clear();
            scratch.encode_into(config, &params, Some(&params), &mut wire);
            scratch
                .decode_into(&wire, Some(&params), &mut back)
                .unwrap();
        }
        let warm = scratch.allocations();
        for _ in 0..10 {
            wire.clear();
            scratch.encode_into(config, &params, Some(&params), &mut wire);
            scratch
                .decode_into(&wire, Some(&params), &mut back)
                .unwrap();
        }
        assert_eq!(
            scratch.allocations(),
            warm,
            "hot path allocated after warmup"
        );
    }

    #[test]
    fn round_trip_helper_matches_encode_then_decode() {
        let global = ramp(320);
        let original: Vec<f64> = global.iter().map(|g| g + 0.002).collect();
        let config = WireConfig {
            encoding: Encoding::Q8,
            delta: true,
        };
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        scratch.encode_into(config, &original, Some(&global), &mut wire);
        scratch
            .decode_into(&wire, Some(&global), &mut expected)
            .unwrap();

        let mut params = original.clone();
        let mut buf = Vec::new();
        let len = scratch.round_trip(config, &mut params, Some(&global), &mut buf);
        assert_eq!(len, config.payload_len(original.len()));
        assert_eq!(params, expected);
    }

    #[test]
    fn decode_rejects_malformed_headers() {
        let params = ramp(10);
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        scratch.encode_into(WireConfig::lossless(), &params, None, &mut wire);
        let mut out = Vec::new();

        let mut bad = wire.clone();
        bad[0] = 1;
        assert_eq!(
            scratch.decode_into(&bad, None, &mut out).unwrap_err(),
            CodecError::UnsupportedVersion { got: 1 }
        );
        let mut bad = wire.clone();
        bad[1] = 9;
        assert_eq!(
            scratch.decode_into(&bad, None, &mut out).unwrap_err(),
            CodecError::UnknownEncoding { tag: 9 }
        );
        let mut bad = wire.clone();
        bad[2] = 0b10;
        assert_eq!(
            scratch.decode_into(&bad, None, &mut out).unwrap_err(),
            CodecError::BadFlags { flags: 0b10 }
        );
        assert!(matches!(
            scratch.decode_into(&wire[..5], None, &mut out).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        assert!(matches!(
            scratch
                .decode_into(&wire[..wire.len() - 1], None, &mut out)
                .unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn decode_delta_without_base_is_an_error() {
        let params = ramp(8);
        let config = WireConfig {
            encoding: Encoding::F64,
            delta: true,
        };
        let mut scratch = WireScratch::new();
        let mut wire = Vec::new();
        scratch.encode_into(config, &params, Some(&params), &mut wire);
        let mut out = Vec::new();
        assert_eq!(
            scratch.decode_into(&wire, None, &mut out).unwrap_err(),
            CodecError::DeltaBaseMismatch {
                count: 8,
                base_len: None
            }
        );
        let short = vec![0.0; 7];
        assert_eq!(
            scratch
                .decode_into(&wire, Some(&short), &mut out)
                .unwrap_err(),
            CodecError::DeltaBaseMismatch {
                count: 8,
                base_len: Some(7)
            }
        );
    }

    #[test]
    fn empty_params_round_trip_under_every_tier() {
        let mut scratch = WireScratch::new();
        for encoding in [Encoding::F64, Encoding::F32, Encoding::Q8] {
            for delta in [false, true] {
                let config = WireConfig { encoding, delta };
                let mut wire = Vec::new();
                let len = scratch.encode_into(config, &[], Some(&[]), &mut wire);
                assert_eq!(len, WIRE_HEADER);
                let mut out = vec![1.0];
                assert_eq!(
                    scratch.decode_into(&wire, Some(&[]), &mut out).unwrap(),
                    config
                );
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(WireConfig::lossless().name(), "f64");
        assert_eq!(
            WireConfig {
                encoding: Encoding::Q8,
                delta: true
            }
            .name(),
            "q8+delta"
        );
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// Miri runs the interpreter ~100x slower than native; trim case counts
    /// and sizes so the UB lane stays inside its budget.
    #[cfg(miri)]
    const MAX_LEN: usize = 40;
    #[cfg(not(miri))]
    const MAX_LEN: usize = 600;

    fn any_config() -> impl Strategy<Value = WireConfig> {
        (
            prop_oneof![Just(Encoding::F64), Just(Encoding::F32), Just(Encoding::Q8)],
            any::<bool>(),
        )
            .prop_map(|(encoding, delta)| WireConfig { encoding, delta })
    }

    fn finite_params() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-1e6f64..1e6, 0..MAX_LEN)
    }

    proptest! {
        /// Every tier round-trips every finite payload with the error bound
        /// its encoding implies (0 for F64, one f32 rounding for F32, half a
        /// quantization step plus f32 slack for Q8).
        #[test]
        fn every_tier_round_trips_within_tolerance(
            params in finite_params(),
            config in any_config(),
        ) {
            let global: Vec<f64> = params.iter().map(|v| v * 0.5).collect();
            let mut scratch = WireScratch::new();
            let mut wire = Vec::new();
            let len = scratch.encode_into(config, &params, Some(&global), &mut wire);
            prop_assert_eq!(len, wire.len());
            prop_assert_eq!(len, config.payload_len(params.len()));
            let mut back = Vec::new();
            let decoded = scratch.decode_into(&wire, Some(&global), &mut back).unwrap();
            prop_assert_eq!(decoded, config);
            prop_assert_eq!(back.len(), params.len());
            for (i, (a, b)) in params.iter().zip(&back).enumerate() {
                let tol = match config.encoding {
                    Encoding::F64 => {
                        if config.delta {
                            // (w − g) + g: one rounding each way.
                            2.0 * f64::EPSILON * a.abs().max(1.0)
                        } else {
                            0.0
                        }
                    }
                    // One f32 rounding of a value (or delta) bounded by 2e6,
                    // plus the re-add rounding in delta mode.
                    Encoding::F32 => 2e6 * f32::EPSILON as f64 * 2.0,
                    // Half a step of a span up to 4e6 over 255 levels, plus
                    // f32 scale/offset rounding slack.
                    Encoding::Q8 => 0.5 * (4e6 / 255.0) + 4e6 * f32::EPSILON as f64 * 300.0,
                };
                prop_assert!(
                    (a - b).abs() <= tol,
                    "tier {} idx {i}: |{a} - {b}| > {tol}", config.name()
                );
            }
        }

        /// Truncating an encoded payload at every byte offset returns a
        /// `CodecError` — never a panic, never a bogus success.
        #[test]
        fn truncation_at_every_offset_errors(
            params in finite_params(),
            config in any_config(),
        ) {
            let global: Vec<f64> = params.iter().map(|v| v + 1.0).collect();
            let mut scratch = WireScratch::new();
            let mut wire = Vec::new();
            scratch.encode_into(config, &params, Some(&global), &mut wire);
            let mut out = Vec::new();
            for cut in 0..wire.len() {
                prop_assert!(
                    scratch.decode_into(&wire[..cut], Some(&global), &mut out).is_err(),
                    "tier {} accepted a {cut}-byte prefix of {} bytes",
                    config.name(),
                    wire.len()
                );
            }
        }

        /// Flipping one byte anywhere in a payload never panics: the decode
        /// returns an error or a well-formed (if wrong-valued) vector. The
        /// frame-level CRC32 is what detects corruption; this layer only has
        /// to stay memory-safe and total.
        #[test]
        fn single_byte_corruption_never_panics(
            params in finite_params(),
            config in any_config(),
            byte_sel in any::<u16>(),
            xor in 1u8..=255,
        ) {
            let global: Vec<f64> = params.iter().map(|v| v - 0.25).collect();
            let mut scratch = WireScratch::new();
            let mut wire = Vec::new();
            scratch.encode_into(config, &params, Some(&global), &mut wire);
            let idx = byte_sel as usize % wire.len();
            wire[idx] ^= xor;
            let mut out = Vec::new();
            match scratch.decode_into(&wire, Some(&global), &mut out) {
                Ok(decoded) => prop_assert!(out.len() <= params.len().max(1)
                    || decoded != config || idx >= WIRE_HEADER),
                Err(
                    CodecError::Truncated { .. }
                    | CodecError::UnsupportedVersion { .. }
                    | CodecError::UnknownEncoding { .. }
                    | CodecError::BadFlags { .. }
                    | CodecError::DeltaBaseMismatch { .. },
                ) => {}
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }

        /// The steady-state contract under proptest's adversarial sizing:
        /// re-encoding the same payload shape never allocates again.
        #[test]
        fn same_shape_reencode_is_allocation_free(
            params in finite_params(),
            config in any_config(),
        ) {
            let mut scratch = WireScratch::new();
            let mut wire = Vec::new();
            let mut back = Vec::new();
            scratch.encode_into(config, &params, Some(&params), &mut wire);
            scratch.decode_into(&wire, Some(&params), &mut back).unwrap();
            let warm = scratch.allocations();
            for _ in 0..3 {
                wire.clear();
                scratch.encode_into(config, &params, Some(&params), &mut wire);
                scratch.decode_into(&wire, Some(&params), &mut back).unwrap();
            }
            prop_assert_eq!(scratch.allocations(), warm);
        }
    }
}
