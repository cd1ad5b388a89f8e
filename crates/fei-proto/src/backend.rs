//! The seam between the node loops and what carries them.
//!
//! [`CoordinatorNode`](crate::CoordinatorNode) and
//! [`ParticipantNode`](crate::ParticipantNode) touch the outside world
//! through four small traits — a frame connection ([`Conn`]), the two ways
//! of getting one ([`Listener`], [`Dialer`]) and an append-only durable
//! file ([`Log`]) — and are generic, statically dispatched, over them. The
//! real backend is the default: the impls below, on [`FrameListener`],
//! [`FrameStream`], [`CoordinatorAddr`] and `File`. The only other one is the
//! simulator (`sim.rs`) that [`crate::Cluster`] runs the same loops on, and
//! the traits are sealed to keep it so: the loops rely on what these two
//! guarantee (whole frames or nothing, a sync that means durable).

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

use fei_net::codec::FRAME_OVERHEAD;
use fei_net::transport::{FrameListener, FrameStream, TransportError};
use fei_net::CodecError;

use crate::error::ProtoError;
use crate::node::CoordinatorAddr;

pub(crate) mod sealed {
    pub trait Sealed {}
}
use sealed::Sealed;

/// One framed connection. Any error means the connection is lost: the
/// caller drops it (and, dialing, makes another).
pub trait Conn: Sealed + Debug {
    /// The next whole frame's bytes; `Ok(None)` when none has arrived yet.
    /// A dead connection errs only once its buffered frames are drained.
    fn poll(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Sends one whole encoded frame, in bounded time.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Blocks until something — a frame or the connection's end — has
    /// arrived for [`Conn::poll`] since the last wait, or `timeout` passes;
    /// true if it has.
    fn wait(&mut self, timeout: Duration) -> bool;
}

/// Hands every frame `conn` has ready to `on_frame`; true when the
/// connection turned out lost.
pub(crate) fn drain<C: Conn>(conn: &mut C, mut on_frame: impl FnMut(Vec<u8>)) -> bool {
    loop {
        match conn.poll() {
            Ok(Some(bytes)) => on_frame(bytes),
            Ok(None) => return false,
            Err(_) => return true,
        }
    }
}

/// The coordinator's side of connection setup.
pub trait Listener: Sealed + Debug {
    /// The connections this listener hands out.
    type Conn: Conn;

    /// The next pending connection, if any (never blocks).
    fn accept(&mut self) -> Option<Self::Conn>;

    /// Blocks until a connection is pending or an accepted one has
    /// something to poll, or `timeout` passes; true if woken by input.
    fn wait(&mut self, timeout: Duration) -> bool;
}

/// The participant's side of connection setup.
pub trait Dialer: Sealed + Debug {
    /// The connections this dialer makes.
    type Conn: Conn;

    /// One connection attempt; `None` while the coordinator is unreachable.
    fn dial(&mut self) -> Option<Self::Conn>;
}

/// An append-only file with an explicit durability point: a crash may lose
/// appended bytes until [`Log::sync`] has returned, and none after.
pub trait Log: Sealed + Debug {
    /// The file's length in bytes.
    fn len(&mut self) -> io::Result<usize>;

    /// Reads the file's bytes from offset `at` into the front of `buf`, as
    /// many as fit and the file holds, returning how many (0 at its end);
    /// the write position stays at the file's end.
    fn read_at(&mut self, at: usize, buf: &mut [u8]) -> io::Result<usize>;

    /// Durably cuts the file to `len` bytes; appends continue from there.
    fn truncate(&mut self, len: usize) -> io::Result<()>;

    /// Appends `bytes`, not yet durably (on failure, how much landed is
    /// unknown).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Makes every appended byte durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// What [`open_log`] found: the length of the valid bytes, or the mid-log
/// damage that makes the file unusable.
pub(crate) type Opened = Result<usize, ProtoError>;

/// The buffer a log is read through, front to back and once: a restart
/// holds no more of its history's bytes than this at a time, except a
/// record longer than it, which the buffer grows to hold.
const READ_CHUNK: usize = 1 << 20;

/// The one open path of every record log (disk journal, trace file,
/// simulated file): stream it through one bounded buffer, handing each
/// record to `each` as it decodes, and cut a torn trailing record — the
/// signature of a crash mid-append — so appends extend a clean log. What
/// is torn and what is damage is decided exactly as
/// [`walk`](crate::record::walk) decides it over the whole file's bytes.
/// On mid-log damage the records before it have been handed over and the
/// file is left whole.
pub(crate) fn open_log<G: Log, T>(
    log: &mut G,
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    each: impl FnMut(T),
) -> io::Result<Opened> {
    read_log(log, READ_CHUNK, decode, each)
}

/// [`open_log`] through a `chunk`-byte buffer.
fn read_log<G: Log, T>(
    log: &mut G,
    chunk: usize,
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    mut each: impl FnMut(T),
) -> io::Result<Opened> {
    let mut window = Window::new(log, chunk)?;
    let mut at = 0;
    while at < window.len {
        match window.decode_at(at, &decode)? {
            Ok((record, consumed)) => {
                each(record);
                at += consumed;
            }
            // The tail rule of `walk`: a truncated record is a tear unless
            // a whole record of this log's own starts inside it.
            Err(e @ ProtoError::Codec(CodecError::Truncated { .. })) => {
                for later in at + 1..window.len {
                    if window.decode_at(later, &decode)?.is_ok() {
                        return Ok(Err(e));
                    }
                }
                break;
            }
            Err(e) => return Ok(Err(e)),
        }
    }
    if at < window.len {
        log.truncate(at)?;
    }
    Ok(Ok(at))
}

/// How many leading bytes the log shares with `bytes`, read once through
/// the same bounded buffer as [`open_log`].
pub(crate) fn common_prefix<G: Log>(log: &mut G, bytes: &[u8]) -> io::Result<usize> {
    let mut window = Window::new(log, READ_CHUNK)?;
    let end = window.len.min(bytes.len());
    let mut at = 0;
    while at < end {
        let held = window.bytes_from(at, 1)?;
        let n = held.len().min(end - at);
        let (theirs, ours) = (&held[..n], &bytes[at..at + n]);
        if theirs != ours {
            return Ok(at + theirs.iter().zip(ours).take_while(|(a, b)| a == b).count());
        }
        at += n;
    }
    Ok(at)
}

/// A log read front to back through one reused buffer: `buf[..held]` is
/// the file's bytes from offset `base` on. Every byte is read from the
/// file at most once.
struct Window<'g, G> {
    log: &'g mut G,
    len: usize,
    buf: Vec<u8>,
    base: usize,
    held: usize,
}

impl<'g, G: Log> Window<'g, G> {
    fn new(log: &'g mut G, chunk: usize) -> io::Result<Self> {
        let len = log.len()?;
        let buf = vec![0; chunk.min(len)];
        Ok(Self {
            log,
            len,
            buf,
            base: 0,
            held: 0,
        })
    }

    /// The file's bytes from `at` (within or just past what is held) as
    /// far as they are read; when fewer than `want` of them are and the
    /// file has more, what lies before `at` is dropped and the buffer
    /// refilled, grown first if `want` outsizes it.
    fn bytes_from(&mut self, at: usize, want: usize) -> io::Result<&[u8]> {
        let want = want.min(self.len - at);
        if self.base + self.held < at + want {
            let spent = at - self.base;
            self.buf.copy_within(spent..self.held, 0);
            self.held -= spent;
            self.base = at;
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            let end = self.buf.len().min(self.len - at);
            while self.held < end {
                let read = self
                    .log
                    .read_at(at + self.held, &mut self.buf[self.held..end])?;
                if read == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                self.held += read;
            }
        }
        Ok(&self.buf[at - self.base..self.held])
    }

    /// `decode` of the file's bytes from `at` on, exactly as over the whole
    /// file: a record the buffer cuts short but the file does not is read
    /// on, and a declared length past the file's end is truncated there,
    /// unread.
    fn decode_at<T>(
        &mut self,
        at: usize,
        decode: &impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    ) -> io::Result<Result<(T, usize), ProtoError>> {
        let left = self.len - at;
        let mut want = 1;
        loop {
            let bytes = self.bytes_from(at, want)?;
            let held = bytes.len();
            match decode(bytes) {
                // The frame ran out of held bytes (a body that runs out
                // reports its payload's length, which is shorter).
                Err(ProtoError::Codec(CodecError::Truncated { needed, available }))
                    if available == held && held < left =>
                {
                    // A length inside the file is read on; past it, only
                    // the header that declares it is.
                    want = if needed <= left {
                        needed
                    } else {
                        FRAME_OVERHEAD.min(left)
                    };
                    if want <= held {
                        let available = left;
                        return Ok(Err(CodecError::Truncated { needed, available }.into()));
                    }
                }
                decoded => return Ok(decoded),
            }
        }
    }
}

impl Sealed for FrameStream {}
impl Conn for FrameStream {
    fn poll(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        Ok(FrameStream::poll(self)?.map(|raw| raw.bytes))
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        FrameStream::send(self, frame)
    }

    fn wait(&mut self, timeout: Duration) -> bool {
        FrameStream::wait(self, timeout)
    }
}

impl Sealed for FrameListener {}
impl Listener for FrameListener {
    type Conn = FrameStream;

    fn accept(&mut self) -> Option<FrameStream> {
        FrameListener::accept(self)
    }

    fn wait(&mut self, timeout: Duration) -> bool {
        FrameListener::wait(self, timeout)
    }
}

impl Sealed for CoordinatorAddr {}
impl Dialer for CoordinatorAddr {
    type Conn = FrameStream;

    fn dial(&mut self) -> Option<FrameStream> {
        FrameStream::connect(self.resolve()?).ok()
    }
}

/// Opens `path` for reading and appending, creating it when absent.
pub(crate) fn open_file(path: &Path) -> io::Result<File> {
    let mut options = OpenOptions::new();
    options.read(true).write(true).create(true).truncate(false);
    options.open(path)
}

impl Sealed for File {}
impl Log for File {
    fn len(&mut self) -> io::Result<usize> {
        usize::try_from(self.metadata()?.len()).map_err(io::Error::other)
    }

    fn read_at(&mut self, at: usize, buf: &mut [u8]) -> io::Result<usize> {
        self.seek(SeekFrom::Start(at as u64))?;
        let read = self.read(buf)?;
        self.seek(SeekFrom::End(0))?;
        Ok(read)
    }

    fn truncate(&mut self, len: usize) -> io::Result<()> {
        self.set_len(len as u64)?;
        self.sync_data()?;
        self.seek(SeekFrom::Start(len as u64)).map(|_| ())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::*;
    use crate::cluster::{Cluster, ClusterConfig, CoordinatorCrash};
    use crate::coordinator::CoordinatorConfig;
    use crate::journal::JournalRecord;
    use crate::record::{scan, walk};
    use crate::sim::SimFile;
    use crate::trace::TraceEvent;

    /// A real trace and journal file: a three-device, five-round cluster
    /// campaign whose coordinator is killed once and recovers.
    fn logs() -> &'static (Vec<u8>, Vec<u8>) {
        static LOGS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
        LOGS.get_or_init(|| {
            let coordinator = CoordinatorConfig {
                k: 2,
                over_select: 1,
                quorum: 2,
                epochs: 5,
                heartbeat_interval: 5,
                heartbeat_timeout: 20,
                round_deadline: 40,
            };
            let mut config = ClusterConfig::quiet(coordinator, 3, 5);
            config.crashes = vec![CoordinatorCrash {
                at_tick: 9,
                down_ticks: 3,
            }];
            let cluster = Cluster::new(config);
            let (journal, trace) = cluster.files();
            let report = cluster.run();
            assert_eq!(report.committed, 5, "{report:?}");
            (trace.bytes(), journal.bytes())
        })
    }

    /// Where each record of `bytes` starts.
    fn starts<T>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    ) -> Vec<usize> {
        let lens = scan(bytes, |b| decode(b).map(|(_, len)| (len, len)));
        let (lens, _) = lens.expect("own log");
        let mut at = 0;
        lens.into_iter()
            .map(|len| {
                at += len;
                at - len
            })
            .collect()
    }

    /// Streaming `bytes` through a `chunk`-byte buffer hands `each` the
    /// same records, cuts the same torn tail and refuses the same damage,
    /// with the same error, as [`walk`] over the whole of them, and reads
    /// no byte twice.
    fn streams_as_walked<T: Debug + PartialEq>(
        bytes: &[u8],
        chunk: usize,
        decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError> + Copy,
    ) {
        let mut walked = Vec::new();
        let whole = walk(bytes, decode, |record| walked.push(record));
        let mut file = SimFile::default();
        file.append(bytes).expect("simulated file");
        let mut streamed = Vec::new();
        let opened = read_log(&mut file, chunk, decode, |record| streamed.push(record));
        assert_eq!(streamed, walked);
        match (opened.expect("simulated file"), whole) {
            (Ok(valid), Ok(torn)) => {
                assert_eq!(valid, bytes.len() - torn);
                assert_eq!(file.bytes(), &bytes[..valid]);
            }
            (Err(streamed), Err(whole)) => {
                assert_eq!(streamed, whole);
                assert_eq!(file.bytes(), bytes, "damage leaves the file whole");
            }
            (streamed, whole) => panic!("streamed {streamed:?}, walked {whole:?}"),
        }
        assert!(file.read() <= bytes.len(), "a byte was read twice");
    }

    /// [`streams_as_walked`] for both logs, each under its own decoder,
    /// damaged in place by `damage` (given their record starts).
    fn check_both(damage: impl Fn(&mut [u8], &[usize]), chunk: usize) {
        let (trace, journal) = logs();
        let mut damaged = trace.clone();
        damage(&mut damaged, &starts(trace, TraceEvent::decode));
        streams_as_walked(&damaged, chunk, TraceEvent::decode);
        let mut damaged = journal.clone();
        damage(&mut damaged, &starts(journal, JournalRecord::decode));
        streams_as_walked(&damaged, chunk, JournalRecord::decode);
    }

    #[test]
    fn a_log_cut_anywhere_streams_as_it_walks() {
        let (trace, journal) = logs();
        for chunk in [7, 4096] {
            for cut in 0..=trace.len() {
                streams_as_walked(&trace[..cut], chunk, TraceEvent::decode);
            }
            for cut in 0..=journal.len() {
                streams_as_walked(&journal[..cut], chunk, JournalRecord::decode);
            }
        }
    }

    /// Buffer sizes from under one record's header to the real one.
    fn chunks() -> impl Strategy<Value = usize> {
        prop_oneof![Just(7), Just(64), Just(4096), Just(READ_CHUNK)]
    }

    /// `pick` reduced to an index below `len`.
    fn below(pick: u64, len: usize) -> usize {
        (pick % len as u64) as usize
    }

    proptest! {
        #[test]
        fn a_damaged_log_streams_as_it_walks(picks in any::<u64>(), mask in 1u8..=255, chunk in chunks()) {
            for pick in [picks, picks >> 16, picks >> 32, picks >> 48] {
                // A flipped byte anywhere, a damaged length field, a zeroed
                // head.
                check_both(|bytes, _| bytes[below(pick, bytes.len())] ^= mask, chunk);
                check_both(|bytes, starts| {
                    let record = starts[below(pick, starts.len())];
                    bytes[record + 3 + usize::from(mask % 4)] ^= mask;
                }, chunk);
                check_both(|bytes, _| {
                    let len = below(pick, bytes.len());
                    bytes[..len].fill(0);
                }, chunk);
            }
        }
    }
}
