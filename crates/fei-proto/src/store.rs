//! Disk-backed round-journal store.
//!
//! [`crate::journal::RoundJournal`] is an in-memory byte log; this module
//! writes it to a file. The coordinator node keeps that file as a *view*
//! of its trace, the log it actually recovers from ([`crate::node`]): it
//! appends with [`DiskJournal::append_to`] after each trace sync and never
//! syncs, and a restart compares the file with the journal the trace
//! replays to instead of decoding it, and re-derives whatever a crash cut
//! or scrambled (a file damaged before its tail is emptied and rewritten
//! whole). Used as a log of its own, the store keeps the write-ahead rule
//! of DESIGN.md §13 at the OS level:
//!
//! * **Append + fsync before effects.** [`DiskJournal::sync_to`] appends
//!   the journal's new suffix and calls `fdatasync` before the caller is
//!   allowed to act on the transition. A crash after the sync replays the
//!   transition; a crash before it replays the pre-transition state; there
//!   is no third case.
//! * **Torn-tail recovery on open.** A SIGKILL can land mid-`write`;
//!   [`DiskJournal::open`] scans the log, cuts an incomplete trailing
//!   record (CRC-framed records make the cut unambiguous), truncates the
//!   file to the valid prefix, and hands that prefix to the caller.
//!   Mid-log corruption — acknowledged bytes that changed — is a hard
//!   [`StoreError::Corrupt`], never silently skipped.
//! * **Single writer.** Opening takes a lock file (`<path>.lock`, created
//!   with `O_EXCL`); a second open — or an open against the lock a killed
//!   process left behind — fails with a typed [`StoreError::Locked`]. Only
//!   the supervisor, having *observed* the writer's death, may
//!   [`DiskJournal::break_lock`] and respawn.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::backend::{common_prefix, open_file, open_log, Log};
use crate::error::ProtoError;
use crate::journal::JournalRecord;

/// Errors from the disk journal.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level file error, tagged with the operation that failed.
    Io {
        /// What the store was doing ("open", "append", "fsync", ...).
        op: &'static str,
        /// The OS error text.
        message: String,
    },
    /// The log is (or appears) owned by another writer. For a journal the
    /// lock file exists — a concurrent double-open or the stale lock of a
    /// killed process; only a supervisor that has observed the writer's
    /// death should [`DiskJournal::break_lock`]. For a trace another open
    /// file holds its OS lock, which dies with the process that held it.
    Locked {
        /// The journal's lock file, or the locked trace file.
        path: PathBuf,
    },
    /// Acknowledged journal bytes no longer parse: the log device broke
    /// its promise (or the file was overwritten). Recovery must not guess.
    Corrupt(ProtoError),
    /// The caller's in-memory journal is not an extension of what this
    /// store already wrote — the two histories diverged.
    Diverged {
        /// Bytes this store holds.
        written: usize,
        /// Length of the journal the caller offered.
        offered: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, message } => write!(f, "journal store {op} failed: {message}"),
            StoreError::Locked { path } => {
                write!(f, "held by another writer: {}", path.display())
            }
            StoreError::Corrupt(e) => write!(f, "journal corrupt on disk: {e}"),
            StoreError::Diverged { written, offered } => write!(
                f,
                "journal diverged: store holds {written} bytes, caller offered {offered}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |e| StoreError::Io {
        op,
        message: e.to_string(),
    }
}

/// The lock-file path guarding `path`: `<path>.lock` (appended, so
/// `round.journal` locks as `round.journal.lock`).
fn lock_path_for(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".lock");
    PathBuf::from(name)
}

/// A single-writer, fsync-disciplined disk image of a
/// [`crate::journal::RoundJournal`]. Generic over the `Log` that holds
/// the bytes; the default is a real file guarded by a lock file.
#[derive(Debug)]
pub struct DiskJournal<G: Log = File> {
    log: G,
    /// The writer lock held (`None` over a simulated file, and once
    /// [`DiskJournal::close`] has released it).
    lock_path: Option<PathBuf>,
    written: usize,
    /// Whether the file is a view of a log it is rebuilt from, and so is
    /// never synced.
    view: bool,
}

impl DiskJournal {
    /// Opens (or creates) the journal at `path`, taking the writer lock.
    ///
    /// Returns the store and the valid byte prefix that survived on disk —
    /// a torn trailing record from a mid-append crash is cut off and the
    /// file truncated to the returned prefix, so subsequent appends extend
    /// a clean log. Hand the prefix to [`crate::Coordinator::recover`]
    /// (non-empty) or start fresh (empty).
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when the lock file already exists (double
    /// open, or the stale lock of a killed writer);
    /// [`StoreError::Corrupt`] when acknowledged bytes before the tail no
    /// longer parse; [`StoreError::Io`] on OS failures.
    pub fn open(path: &Path) -> Result<(Self, Vec<u8>), StoreError> {
        Self::locked(path, Self::over)
    }

    /// Takes the writer lock on the node's journal file, a view of its
    /// trace ([`DiskJournal::view`]), and opens it without reading it:
    /// [`DiskJournal::align`] compares it with the replayed journal later.
    ///
    /// # Errors
    ///
    /// As [`DiskJournal::open`], except [`StoreError::Corrupt`].
    pub(crate) fn open_view(path: &Path) -> Result<Self, StoreError> {
        Self::locked(path, |file| Ok((Self::view(file), ()))).map(|(store, ())| store)
    }

    /// Takes the writer lock on `path`, then opens the file under it.
    fn locked<T>(
        path: &Path,
        open: impl FnOnce(File) -> Result<(Self, T), StoreError>,
    ) -> Result<(Self, T), StoreError> {
        let lock_path = lock_path_for(path);
        // O_EXCL creation is the lock: exactly one winner per lock file.
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut lock) => {
                // Advisory content for humans debugging a stale lock.
                let _ = write!(lock, "{}", std::process::id());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                return Err(StoreError::Locked { path: lock_path });
            }
            Err(e) => return Err(io_err("lock")(e)),
        }
        let opened = open_file(path).map_err(io_err("open")).and_then(open);
        if opened.is_err() {
            // Don't leave a lock behind for a store that never existed.
            let _ = std::fs::remove_file(&lock_path);
        }
        opened.map(|(mut store, found)| {
            store.lock_path = Some(lock_path);
            (store, found)
        })
    }

    /// Removes the lock file guarding `path`, returning whether one
    /// existed. **Only** for a supervisor that has positively observed the
    /// previous writer's death (reaped the process) — breaking the lock of
    /// a live writer forfeits the single-writer guarantee.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the lock exists but cannot be removed.
    pub fn break_lock(path: &Path) -> Result<bool, StoreError> {
        let lock_path = lock_path_for(path);
        match std::fs::remove_file(&lock_path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("unlock")(e)),
        }
    }
}

impl<G: Log> DiskJournal<G> {
    /// A store over an already-open log that is its own record, without a
    /// lock: streams it to find the valid prefix, which it returns — a torn
    /// tail is the expected signature of a crash mid-append and is cut.
    /// Mid-log damage is fatal.
    fn over(mut log: G) -> Result<(Self, Vec<u8>), StoreError> {
        let mut prefix = Vec::new();
        let decode = |bytes: &[u8]| {
            let (_, len) = JournalRecord::decode(bytes)?;
            Ok((bytes[..len].to_vec(), len))
        };
        let opened = open_log(&mut log, decode, |record| prefix.extend(record));
        let written = opened.map_err(io_err("read"))?;
        let store = Self {
            log,
            lock_path: None,
            written: written.map_err(StoreError::Corrupt)?,
            view: false,
        };
        Ok((store, prefix))
    }

    /// A store over a `view` of a log it is rebuilt from, without a lock
    /// and unread until [`DiskJournal::align`]. Nothing in it is ever
    /// synced, so a crash can leave any bytes behind.
    pub(crate) fn view(log: G) -> Self {
        Self {
            log,
            lock_path: None,
            written: 0,
            view: true,
        }
    }

    /// Lines the view up with `replayed`, the journal its log replays to,
    /// so that appends continue it. A file that is a byte prefix of it —
    /// a torn last record included, which the next append completes — is
    /// only compared. Otherwise it is opened as a log: a torn tail is cut,
    /// and damage before the tail empties it for the caller to append
    /// `replayed` again whole; its valid records must then be a prefix of
    /// `replayed`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Diverged`] (with the length of the valid records)
    /// when they are not; [`StoreError::Io`] on OS failures.
    pub(crate) fn align(&mut self, replayed: &[u8]) -> Result<(), StoreError> {
        let len = self.log.len().map_err(io_err("read"))?;
        let same = common_prefix(&mut self.log, replayed).map_err(io_err("read"))?;
        if same == len {
            self.written = len;
            return Ok(());
        }
        let opened = open_log(&mut self.log, JournalRecord::decode, drop);
        self.written = match opened.map_err(io_err("read"))? {
            Ok(valid) => valid,
            Err(_) => {
                self.log.truncate(0).map_err(io_err("truncate"))?;
                0
            }
        };
        // The valid records are a prefix of `replayed` iff they end inside
        // the bytes the two share.
        if self.written > same {
            let (written, offered) = (self.written, replayed.len());
            return Err(StoreError::Diverged { written, offered });
        }
        Ok(())
    }

    /// Appends the suffix of `journal_bytes` beyond what is already
    /// written, unsynced (the node's trace is what makes it durable), and
    /// returns its length.
    ///
    /// # Errors
    ///
    /// [`StoreError::Diverged`] when `journal_bytes` does not extend what
    /// is written; [`StoreError::Io`] on OS failures.
    pub(crate) fn append_to(&mut self, journal_bytes: &[u8]) -> Result<usize, StoreError> {
        let Some(suffix) = journal_bytes.get(self.written..) else {
            let (written, offered) = (self.written, journal_bytes.len());
            return Err(StoreError::Diverged { written, offered });
        };
        if !suffix.is_empty() {
            self.log.append(suffix).map_err(io_err("append"))?;
            self.written += suffix.len();
        }
        Ok(suffix.len())
    }

    /// `DiskJournal::append_to`, then `fdatasync` when it appended: for a
    /// journal that is its own log, whose caller must not act on a
    /// transition (send frames, commit models) until this returns — the
    /// write-ahead guarantee.
    ///
    /// # Errors
    ///
    /// As `DiskJournal::append_to`, and [`StoreError::Io`] when the sync
    /// fails.
    pub fn sync_to(&mut self, journal_bytes: &[u8]) -> Result<usize, StoreError> {
        let appended = self.append_to(journal_bytes)?;
        if appended > 0 {
            self.log.sync().map_err(io_err("fsync"))?;
        }
        Ok(appended)
    }

    /// Syncs outstanding data — unless the file is a view, which is never
    /// synced — and releases the writer lock.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the final fsync or the lock removal fails.
    pub fn close(mut self) -> Result<(), StoreError> {
        if !self.view {
            self.log.sync().map_err(io_err("fsync"))?;
        }
        match self.lock_path.take() {
            Some(lock) => std::fs::remove_file(lock).map_err(io_err("unlock")),
            None => Ok(()),
        }
    }
}

impl<G: Log> Drop for DiskJournal<G> {
    fn drop(&mut self) {
        // Best-effort unlock for orderly exits (including test panics).
        // A SIGKILL skips Drop — exactly the stale-lock case break_lock
        // and the supervisor exist for.
        if let Some(lock) = &self.lock_path {
            let _ = std::fs::remove_file(lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::journal::RoundJournal;
    use crate::record::scan;

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    fn temp_journal_path(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "fei-store-{tag}-{}-{n}.journal",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(lock_path_for(path));
    }

    fn sample_bytes() -> Vec<u8> {
        let mut j = RoundJournal::new();
        j.append(&JournalRecord::EpochStarted { epoch: 0, tick: 0 });
        j.append(&JournalRecord::ClientJoined { client: 1, tick: 1 });
        j.append(&JournalRecord::RoundOpened {
            round: 0,
            deadline_tick: 50,
            tick: 5,
            selected: vec![1],
        });
        j.bytes().to_vec()
    }

    #[test]
    fn fresh_open_returns_empty_prefix_and_appends_survive_reopen() {
        let path = temp_journal_path("fresh");
        let bytes = sample_bytes();
        {
            let (mut store, prefix) = DiskJournal::open(&path).expect("fresh open");
            assert!(prefix.is_empty());
            assert_eq!(store.sync_to(&bytes).expect("sync"), bytes.len());
            // Idempotent: nothing new, nothing written.
            assert_eq!(store.sync_to(&bytes).expect("sync again"), 0);
            store.close().expect("close");
        }
        let (mut store, prefix) = DiskJournal::open(&path).expect("reopen");
        assert_eq!(prefix, bytes);
        // The reopened store resumes at the end of what survived.
        assert_eq!(store.append_to(&bytes).expect("append nothing"), 0);
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn mid_log_corruption_is_fatal_and_releases_the_lock() {
        let path = temp_journal_path("corrupt");
        let mut bytes = sample_bytes();
        bytes[2] ^= 0xFF; // damage the first record, keep the length intact
        std::fs::write(&path, &bytes).expect("seed corrupt file");
        assert!(matches!(
            DiskJournal::open(&path),
            Err(StoreError::Corrupt(_))
        ));
        // The failed open must not leave a lock that blocks inspection.
        assert!(!std::fs::exists(lock_path_for(&path)).expect("probe lock"));
        // Opened as a view of a trace, the same file is emptied instead
        // when it is aligned with the journal it views, for its writer to
        // fill again whole.
        let mut store = DiskJournal::open_view(&path).expect("a view opens");
        let whole = sample_bytes();
        store.align(&whole).expect("damage is no divergence");
        assert!(std::fs::read(&path).expect("read back").is_empty());
        assert_eq!(store.append_to(&whole).expect("refill"), whole.len());
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_cut_and_file_truncated() {
        let path = temp_journal_path("torn");
        let bytes = sample_bytes();
        // Simulate a crash 3 bytes into the final record's append.
        let record_starts = record_boundaries(&bytes);
        let last_start = record_starts[record_starts.len() - 1];
        std::fs::write(&path, &bytes[..last_start + 3]).expect("seed torn file");
        let (mut store, prefix) = DiskJournal::open(&path).expect("open survives torn tail");
        assert_eq!(prefix, &bytes[..last_start]);
        assert_eq!(
            store.append_to(&bytes[..last_start]).expect("at the cut"),
            0
        );
        drop(store);
        // The truncation is durable: the file itself shrank.
        assert_eq!(
            std::fs::read(&path).expect("read back").len(),
            last_start,
            "torn bytes must not survive on disk"
        );
        cleanup(&path);
    }

    #[test]
    fn double_open_is_a_typed_lock_error() {
        let path = temp_journal_path("double");
        let (_store, _) = DiskJournal::open(&path).expect("first open");
        match DiskJournal::open(&path) {
            Err(StoreError::Locked { path: lock }) => {
                assert!(lock.to_string_lossy().ends_with(".lock"));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn stale_lock_is_rejected_until_broken() {
        let path = temp_journal_path("stale");
        // A killed writer leaves its lock file behind.
        std::fs::write(lock_path_for(&path), b"12345").expect("plant stale lock");
        assert!(matches!(
            DiskJournal::open(&path),
            Err(StoreError::Locked { .. })
        ));
        assert!(DiskJournal::break_lock(&path).expect("break"));
        // Breaking an absent lock reports false, not an error.
        assert!(!DiskJournal::break_lock(&path).expect("break again"));
        let (_store, prefix) = DiskJournal::open(&path).expect("open after break");
        assert!(prefix.is_empty());
        cleanup(&path);
    }

    #[test]
    fn shrinking_journal_is_a_typed_divergence() {
        let path = temp_journal_path("diverge");
        let bytes = sample_bytes();
        let (mut store, _) = DiskJournal::open(&path).expect("open");
        store.sync_to(&bytes).expect("sync");
        assert!(matches!(
            store.sync_to(&bytes[..bytes.len() - 1]),
            Err(StoreError::Diverged { .. })
        ));
        cleanup(&path);
    }

    /// Byte offsets where each journal record starts.
    fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
        let (records, _) = scan(bytes, JournalRecord::decode).expect("sample journal");
        records
            .iter()
            .scan(0, |at, record| {
                let start = *at;
                *at += record.encoded_len();
                Some(start)
            })
            .collect()
    }
}
