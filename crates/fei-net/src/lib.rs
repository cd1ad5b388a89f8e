//! Network substrate for the EE-FEI testbed.
//!
//! The paper's prototype connects 20 Raspberry Pi edge servers to a laptop
//! coordinator through a TP-Link WiFi router, while IoT devices feed samples
//! to edge servers over NB-IoT-like uplinks. This crate models exactly the
//! quantities those links contribute to the paper's energy accounting:
//!
//! * [`link::Link`] — point-to-point bandwidth/latency/energy; presets for
//!   the WiFi up/down links and the NB-IoT sample uplink;
//! * [`medium::SharedMedium`] — the router's shared airtime when `K` edge
//!   servers upload their models simultaneously;
//! * [`lossy::LossyLink`] — unlicensed-band collision loss with fixed
//!   per-attempt success probability (the §IV-A argument that expected
//!   per-sample upload energy stays constant);
//! * [`codec`] — a framed binary codec (CRC32-protected) for shipping model
//!   parameters between edge servers and the coordinator in the threaded FL
//!   runtime;
//! * [`wire`] — the versioned payload format inside those frames: `F64`,
//!   `F32`, and `Q8` encodings with an optional delta-vs-global mode, all
//!   through zero-steady-state-allocation scratch buffers;
//! * [`transport`] — blocking TCP transport for those frames: a streaming
//!   reassembler tolerant of arbitrary read boundaries, and a non-blocking
//!   framed connection used by the socket runtime in `fei-proto::node`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
// A silently wrapped length, tag or timer desynchronizes the wire: every
// narrowing `as` in library code is an error (DESIGN.md §9).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod codec;
pub mod link;
mod lossy;
mod medium;
pub mod transport;
pub mod wire;

pub use codec::{decode_frame, encode_frame, len_u32, CodecError, Frame};
pub use link::Link;
pub use lossy::LossyLink;
pub use medium::SharedMedium;
pub use transport::{FrameConn, TransportError};
pub use wire::{Encoding, WireConfig, WireScratch};
