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

use fei_net::transport::{FrameListener, FrameStream, TransportError};

use crate::error::ProtoError;
use crate::node::CoordinatorAddr;
use crate::record::walk;

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
    /// Everything in the file; the write position ends up at its end.
    fn contents(&mut self) -> io::Result<Vec<u8>>;

    /// Durably cuts the file to `len` bytes; appends continue from there.
    fn truncate(&mut self, len: usize) -> io::Result<()>;

    /// Appends `bytes`, not yet durably (on failure, how much landed is
    /// unknown).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Makes every appended byte durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// What [`open_log`] found: the valid bytes, or the mid-log damage that
/// makes the file unusable.
pub(crate) type Opened = Result<Vec<u8>, ProtoError>;

/// The one open path of every record log (disk journal, trace file,
/// simulated file): read it, walk its records, handing each to `each` as it
/// decodes, and cut a torn trailing record — the signature of a crash
/// mid-append — so appends extend a clean log. On mid-log damage the
/// records before it have been handed over and the file is left whole.
pub(crate) fn open_log<G: Log, T>(
    log: &mut G,
    decode: impl Fn(&[u8]) -> Result<(T, usize), ProtoError>,
    each: impl FnMut(T),
) -> io::Result<Opened> {
    let mut bytes = log.contents()?;
    let torn_bytes = match walk(&bytes, decode, each) {
        Ok(torn_bytes) => torn_bytes,
        Err(e) => return Ok(Err(e)),
    };
    if torn_bytes > 0 {
        bytes.truncate(bytes.len() - torn_bytes);
        log.truncate(bytes.len())?;
    }
    Ok(Ok(bytes))
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
    fn contents(&mut self) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        self.seek(SeekFrom::Start(0))?;
        self.read_to_end(&mut bytes)?;
        Ok(bytes)
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
