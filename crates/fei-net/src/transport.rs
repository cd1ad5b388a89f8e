//! Blocking TCP transport for CRC32-framed protocol traffic.
//!
//! The [`crate::codec`] frame format is self-delimiting — magic, type, a
//! big-endian `u32` length, payload, CRC32 — so a byte stream of
//! concatenated frames can be cut at *any* boundary by the kernel and
//! reassembled exactly. This module supplies the two pieces the socket
//! runtime in `fei-proto::node` needs:
//!
//! * [`FrameBuffer`] — a streaming reassembler: feed it arbitrary chunks
//!   (1-byte reads, coalesced writes, truncated tails) and pop complete
//!   frames. A short tail is simply "not yet"; a bad magic or checksum is a
//!   typed [`TransportError::Desync`] — the connection is unrecoverable
//!   because frame boundaries are lost, but the process never panics.
//! * [`FrameConn`] — a non-blocking `TcpStream` wrapped around a
//!   [`FrameBuffer`]. `poll()` drains whatever the kernel has and returns at
//!   most one frame per call; `send()` writes a whole encoded frame,
//!   spinning briefly on `WouldBlock` (localhost socket buffers dwarf our
//!   frames, so back-pressure is a failure signal, not a steady state).
//!
//! Raw frame bytes are kept alongside the decoded frame: the coordinator
//! node persists exactly the bytes it received into its frame trace, so the
//! deterministic oracle replays bit-identical input.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

use crate::codec::{split_frame, CodecError};

/// One reassembled frame: the decoded tag/payload plus the exact wire bytes
/// it was parsed from (for trace capture and re-decoding by protocol-layer
/// state machines that consume raw frame bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Frame type tag.
    pub msg_type: u8,
    /// The complete encoded frame, exactly as it appeared on the wire.
    pub bytes: Vec<u8>,
}

/// Errors from the TCP transport.
#[derive(Debug)]
pub enum TransportError {
    /// An OS-level socket error.
    Io(io::Error),
    /// The byte stream no longer parses as frames (bad magic or checksum):
    /// frame boundaries are lost and the connection must be dropped.
    Desync(CodecError),
    /// The peer closed the connection and no complete frame remains buffered.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Desync(e) => write!(f, "frame stream desynchronized: {e}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Streaming reassembler for length-delimited CRC32 frames.
///
/// Consumed bytes are compacted lazily: the buffer tracks a read offset and
/// shifts the tail down only once the offset passes a threshold, so a busy
/// connection does not `memmove` on every frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    at: usize,
}

/// Compact the buffer once this many consumed bytes accumulate.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk of received bytes (any size, any alignment).
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Number of buffered bytes not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Pops the next complete frame, if one is buffered.
    ///
    /// Returns `Ok(None)` when the buffered tail is a prefix of a frame
    /// (read more and retry).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Desync`] on bad magic or checksum — the
    /// stream cannot be re-synchronized and the connection should be
    /// dropped. The error is sticky only in the sense that the corrupt
    /// bytes stay at the front of the buffer; callers are expected to
    /// discard the buffer with the connection.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, TransportError> {
        match split_frame(&self.buf[self.at..]) {
            Ok((frame, consumed)) => {
                let raw = RawFrame {
                    msg_type: frame.msg_type,
                    bytes: self.buf[self.at..self.at + consumed].to_vec(),
                };
                self.at += consumed;
                if self.at >= COMPACT_THRESHOLD {
                    self.buf.drain(..self.at);
                    self.at = 0;
                }
                Ok(Some(raw))
            }
            Err(CodecError::Truncated { .. }) => Ok(None),
            Err(e) => Err(TransportError::Desync(e)),
        }
    }
}

/// How many `WouldBlock` spins `send` tolerates before reporting an error.
/// Localhost socket buffers are hundreds of kilobytes; a frame that cannot
/// drain after this many yields means the peer stopped reading.
const SEND_SPIN_LIMIT: u32 = 100_000;

/// A framed, non-blocking TCP connection.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    buf: FrameBuffer,
    eof: bool,
}

impl FrameConn {
    /// Wraps an accepted or connected stream, switching it to non-blocking
    /// mode with `TCP_NODELAY` (control frames are latency-sensitive).
    ///
    /// # Errors
    ///
    /// Returns any socket-option error from the OS.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: FrameBuffer::new(),
            eof: false,
        })
    }

    /// Connects to `addr` (blocking connect, then non-blocking I/O).
    ///
    /// # Errors
    ///
    /// Returns the OS connect error (`ConnectionRefused` while the peer is
    /// down is the common, retryable case).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// The peer's address.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the socket is no longer connected.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one complete encoded frame, retrying short writes.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] on socket errors or when the peer
    /// stops draining (`WriteZero` after the spin limit), and
    /// [`TransportError::Closed`] on a broken pipe.
    pub fn send(&mut self, frame_bytes: &[u8]) -> Result<(), TransportError> {
        let mut written = 0;
        let mut spins = 0u32;
        while written < frame_bytes.len() {
            match self.stream.write(&frame_bytes[written..]) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    spins += 1;
                    if spins > SEND_SPIN_LIMIT {
                        return Err(TransportError::Io(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "peer stopped draining the socket",
                        )));
                    }
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::BrokenPipe
                        || e.kind() == io::ErrorKind::ConnectionReset =>
                {
                    return Err(TransportError::Closed)
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        Ok(())
    }

    /// Drains available bytes from the socket and returns at most one
    /// complete frame. `Ok(None)` means no complete frame yet (call again
    /// next cycle).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] once the peer has closed and all
    /// buffered frames are drained, [`TransportError::Desync`] on stream
    /// corruption, and [`TransportError::Io`] on other socket errors.
    pub fn poll(&mut self) -> Result<Option<RawFrame>, TransportError> {
        // Serve already-buffered frames before touching the socket.
        if let Some(frame) = self.buf.next_frame()? {
            return Ok(Some(frame));
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend(&chunk[..n]);
                    // Keep draining; frames are popped below.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::BrokenPipe =>
                {
                    self.eof = true;
                    break;
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        match self.buf.next_frame()? {
            Some(frame) => Ok(Some(frame)),
            None if self.eof => Err(TransportError::Closed),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;
    use crate::codec::encode_frame;

    #[test]
    fn reassembles_one_byte_at_a_time() {
        let wire = encode_frame(7, b"hello");
        let mut fb = FrameBuffer::new();
        for &b in wire.iter() {
            fb.extend(&[b]);
        }
        let frame = fb.next_frame().unwrap().unwrap();
        assert_eq!(frame.msg_type, 7);
        assert_eq!(frame.bytes, wire.to_vec());
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn truncated_tail_is_not_an_error() {
        let wire = encode_frame(1, b"abc");
        let mut fb = FrameBuffer::new();
        fb.extend(&wire[..wire.len() - 1]);
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(&wire[wire.len() - 1..]);
        assert!(fb.next_frame().unwrap().is_some());
    }

    #[test]
    fn bad_magic_is_typed_desync() {
        let mut fb = FrameBuffer::new();
        fb.extend(&[0x00; 16]);
        assert!(matches!(
            fb.next_frame(),
            Err(TransportError::Desync(CodecError::BadMagic))
        ));
    }

    #[test]
    fn checksum_corruption_is_typed_desync() {
        let mut wire = encode_frame(1, b"xyz").to_vec();
        wire[8] ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert!(matches!(
            fb.next_frame(),
            Err(TransportError::Desync(CodecError::ChecksumMismatch))
        ));
    }

    #[test]
    fn frames_round_trip_over_localhost_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut conn = FrameConn::connect(addr).unwrap();
            for i in 0..10u8 {
                let wire = encode_frame(i, &vec![i; usize::from(i) * 37]);
                conn.send(&wire).unwrap();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::from_stream(stream).unwrap();
        let mut got = Vec::new();
        while got.len() < 10 {
            match conn.poll() {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => std::thread::yield_now(),
                Err(TransportError::Closed) => break,
                Err(e) => panic!("poll failed: {e}"),
            }
        }
        sender.join().unwrap();
        assert_eq!(got.len(), 10);
        for (i, frame) in got.iter().enumerate() {
            let i = u8::try_from(i).unwrap();
            assert_eq!(frame.msg_type, i);
            assert_eq!(
                frame.bytes,
                encode_frame(i, &vec![i; usize::from(i) * 37]).to_vec()
            );
        }
    }

    #[test]
    fn poll_reports_closed_after_peer_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wire = encode_frame(9, b"last");
        let w = wire.clone();
        let sender = std::thread::spawn(move || {
            let mut conn = FrameConn::connect(addr).unwrap();
            conn.send(&w).unwrap();
            // Drop closes the socket.
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::from_stream(stream).unwrap();
        sender.join().unwrap();
        // The buffered frame is still served before Closed surfaces.
        let mut saw_frame = false;
        loop {
            match conn.poll() {
                Ok(Some(frame)) => {
                    assert_eq!(frame.bytes, wire.to_vec());
                    saw_frame = true;
                }
                Ok(None) => std::thread::yield_now(),
                Err(TransportError::Closed) => break,
                Err(e) => panic!("poll failed: {e}"),
            }
        }
        assert!(saw_frame);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use crate::codec::encode_frame;

    /// A sequence of (tag, payload) frames plus a random chunking of the
    /// concatenated wire bytes.
    fn frames_strategy() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
        proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..96)),
            0..12,
        )
    }

    proptest! {
        /// Arbitrary frame sequences split at arbitrary byte boundaries
        /// reassemble to exactly the input frames — never a panic, never a
        /// desync, never a frame invented or lost.
        #[test]
        fn arbitrary_chunking_reassembles_exactly(
            frames in frames_strategy(),
            cuts in proptest::collection::vec(1usize..64, 0..64),
        ) {
            let mut wire = Vec::new();
            for (tag, payload) in &frames {
                wire.extend_from_slice(&encode_frame(*tag, payload));
            }
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            let mut at = 0;
            let mut cut_iter = cuts.iter().copied().cycle();
            while at < wire.len() {
                let step = cut_iter.next().unwrap_or(1).min(wire.len() - at);
                // An empty `cuts` vector degenerates to 1-byte reads.
                let step = step.max(1);
                fb.extend(&wire[at..at + step]);
                at += step;
                while let Some(frame) = fb.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            prop_assert_eq!(got.len(), frames.len());
            for (frame, (tag, payload)) in got.iter().zip(&frames) {
                prop_assert_eq!(frame.msg_type, *tag);
                prop_assert_eq!(&frame.bytes, &encode_frame(*tag, payload).to_vec());
            }
            prop_assert_eq!(fb.pending(), 0);
        }

        /// A truncated tail never yields a frame and never errors — the
        /// reassembler just waits for more bytes.
        #[test]
        fn truncated_tails_wait_instead_of_failing(
            tag in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..96),
            keep_frames in 0usize..4,
        ) {
            let wire = encode_frame(tag, &payload).to_vec();
            let mut stream = Vec::new();
            for _ in 0..keep_frames {
                stream.extend_from_slice(&wire);
            }
            // Append a strictly-truncated copy.
            for cut in 1..wire.len() {
                let mut fb = FrameBuffer::new();
                fb.extend(&stream);
                fb.extend(&wire[..cut]);
                let mut whole = 0;
                while let Some(_f) = fb.next_frame().unwrap() {
                    whole += 1;
                }
                prop_assert_eq!(whole, keep_frames);
                prop_assert_eq!(fb.pending(), cut);
            }
        }

        /// Corruption anywhere in the *current* frame head surfaces as a
        /// typed Desync error, never a panic.
        #[test]
        fn corruption_is_typed_never_a_panic(
            tag in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..96),
            flip_at in any::<u16>(),
            flip_bit in 0usize..8,
        ) {
            let mut wire = encode_frame(tag, &payload).to_vec();
            let idx = usize::from(flip_at) % wire.len();
            wire[idx] ^= 1 << flip_bit;
            let mut fb = FrameBuffer::new();
            fb.extend(&wire);
            // Every outcome must be typed: a clean frame (flip in a
            // don't-care position cannot happen — CRC covers everything —
            // but a flipped *length* byte may just look truncated), a
            // quiet wait for more bytes, or a typed desync. Nothing panics.
            match fb.next_frame() {
                Ok(Some(_)) => {
                    // Only possible if the flip produced a shorter valid
                    // frame, which CRC32 makes astronomically unlikely;
                    // treat as a failure so we notice.
                    prop_assert!(false, "corrupted frame decoded successfully");
                }
                Ok(None) => {} // looks truncated: wait state, acceptable
                Err(TransportError::Desync(_)) => {}
                Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            }
        }
    }
}
