//! Process supervision for the coordinator daemon.
//!
//! The [`Supervisor`] owns the coordinator's lifecycle as a *real OS
//! process*: it spawns the daemon through a [`ProcessFactory`], detects
//! death ([`ProcessHandle::is_alive`] via non-blocking reaping), kills it
//! on demand (SIGKILL semantics — no cleanup runs, the trace's fsync
//! discipline is what keeps state safe), and respawns it against the same
//! journal path after breaking the stale lock file the dead incarnation
//! left behind (the trace's OS lock died with it). [`Supervisor::shutdown`]
//! is the graceful path: it dials the
//! coordinator and sends a [`ControlFrame::Shutdown`] frame, which
//! cancels any open round ([`crate::AbortReason::Cancelled`]) before the
//! process exits on its own.
//!
//! The factory indirection keeps kill semantics behind one trait: tests
//! can supervise an in-process thread stand-in, while production spawns
//! `fei_coordinatord` via [`CommandFactory`].

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;

use fei_net::transport::FrameConn;

use crate::frames::ControlFrame;
use crate::store::DiskJournal;

/// Errors from the supervision layer.
#[derive(Debug)]
pub enum SupervisorError {
    /// Spawning, killing, or reaping the child failed at the OS level.
    Io {
        /// What the supervisor was doing.
        op: &'static str,
        /// The OS error text.
        message: String,
    },
    /// No child is currently under supervision.
    NotRunning,
    /// Breaking the dead incarnation's journal lock failed.
    Lock(crate::store::StoreError),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Io { op, message } => {
                write!(f, "supervisor {op} failed: {message}")
            }
            SupervisorError::NotRunning => write!(f, "no supervised process is running"),
            SupervisorError::Lock(e) => write!(f, "breaking stale journal lock: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> SupervisorError {
    move |e| SupervisorError::Io {
        op,
        message: e.to_string(),
    }
}

/// A supervised child: alive-or-dead, and killable. The single trait the
/// kill semantics hide behind — OS process in production, anything with
/// equivalent death semantics in tests.
pub trait ProcessHandle {
    /// Whether the child is still running (must reap: a zombie counts as
    /// dead).
    fn is_alive(&mut self) -> bool;
    /// Kills the child immediately (SIGKILL semantics: no notice, no
    /// cleanup) and reaps it.
    ///
    /// # Errors
    ///
    /// [`SupervisorError::Io`] if the OS refuses.
    fn kill(&mut self) -> Result<(), SupervisorError>;
}

/// Builds one child per incarnation.
pub trait ProcessFactory {
    /// The handle type this factory produces.
    type Handle: ProcessHandle;
    /// Spawns incarnation `incarnation` (0-based).
    ///
    /// # Errors
    ///
    /// [`SupervisorError::Io`] when the spawn fails.
    fn spawn(&mut self, incarnation: u64) -> Result<Self::Handle, SupervisorError>;
}

/// [`ProcessHandle`] over a real OS [`Child`].
#[derive(Debug)]
pub struct ChildHandle {
    child: Child,
}

impl ChildHandle {
    /// Wraps a spawned child.
    pub(crate) fn new(child: Child) -> Self {
        Self { child }
    }
}

impl ProcessHandle for ChildHandle {
    fn is_alive(&mut self) -> bool {
        // try_wait reaps on exit, so a dead child never lingers as a
        // zombie; an errored wait is treated as dead.
        matches!(self.child.try_wait(), Ok(None))
    }

    fn kill(&mut self) -> Result<(), SupervisorError> {
        // kill() on an already-exited child reports InvalidInput; that is
        // success for our purposes (the child is dead either way).
        match self.child.kill() {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {}
            Err(e) => return Err(io_err("kill")(e)),
        }
        self.child.wait().map_err(io_err("reap"))?;
        Ok(())
    }
}

/// A `ProcessFactory` that builds a fresh [`Command`] per incarnation
/// via a closure — the production path for spawning `fei_coordinatord`.
pub struct CommandFactory<B: FnMut(u64) -> Command> {
    build: B,
}

impl<B: FnMut(u64) -> Command> CommandFactory<B> {
    /// Wraps a command builder; the closure receives the incarnation
    /// number (0-based) so restarts can differ (e.g. a larger
    /// `--restart-lag`).
    pub fn new(build: B) -> Self {
        Self { build }
    }
}

impl<B: FnMut(u64) -> Command> ProcessFactory for CommandFactory<B> {
    type Handle = ChildHandle;

    fn spawn(&mut self, incarnation: u64) -> Result<ChildHandle, SupervisorError> {
        let mut command = (self.build)(incarnation);
        let child = command.spawn().map_err(io_err("spawn"))?;
        Ok(ChildHandle::new(child))
    }
}

/// Spawns, watches, kills, and respawns one coordinator child at a time,
/// breaking the stale journal lock a SIGKILLed incarnation leaves behind
/// before handing the journal path to the next one.
pub struct Supervisor<F: ProcessFactory> {
    factory: F,
    handle: Option<F::Handle>,
    incarnation: u64,
    kills: u64,
    respawns: u64,
    journal_path: Option<PathBuf>,
}

impl<F: ProcessFactory> Supervisor<F> {
    /// A supervisor with no journal management.
    pub(crate) fn new(factory: F) -> Self {
        Self {
            factory,
            handle: None,
            incarnation: 0,
            kills: 0,
            respawns: 0,
            journal_path: None,
        }
    }

    /// A supervisor that breaks the stale lock at `journal` before every
    /// respawn. Only safe because the supervisor *reaped* the previous
    /// incarnation first — the lock's single-writer guarantee holds.
    pub fn with_journal(factory: F, journal: PathBuf) -> Self {
        let mut s = Self::new(factory);
        s.journal_path = Some(journal);
        s
    }

    /// Spawns the first incarnation.
    ///
    /// # Errors
    ///
    /// The factory's spawn error.
    pub fn start(&mut self) -> Result<(), SupervisorError> {
        let handle = self.factory.spawn(self.incarnation)?;
        self.handle = Some(handle);
        Ok(())
    }

    /// Whether the current incarnation is alive (false when none was
    /// started).
    pub fn is_alive(&mut self) -> bool {
        match self.handle.as_mut() {
            Some(handle) => handle.is_alive(),
            None => false,
        }
    }

    /// Kills the current incarnation (SIGKILL semantics) and reaps it.
    ///
    /// # Errors
    ///
    /// `SupervisorError::NotRunning` when nothing is supervised.
    pub fn kill(&mut self) -> Result<(), SupervisorError> {
        match self.handle.as_mut() {
            Some(handle) => {
                handle.kill()?;
                self.handle = None;
                self.kills += 1;
                Ok(())
            }
            None => Err(SupervisorError::NotRunning),
        }
    }

    /// Spawns the next incarnation, breaking the journal's stale lock
    /// first (the previous incarnation is dead and reaped by now — see
    /// [`Supervisor::kill`] / [`Supervisor::is_alive`]).
    ///
    /// # Errors
    ///
    /// `SupervisorError::Lock` when the lock cannot be broken, or the
    /// factory's spawn error.
    pub fn respawn(&mut self) -> Result<(), SupervisorError> {
        if let Some(handle) = self.handle.as_mut() {
            if handle.is_alive() {
                // Never two writers: take the old one down first.
                handle.kill()?;
                self.kills += 1;
            }
            self.handle = None;
        }
        if let Some(path) = &self.journal_path {
            DiskJournal::break_lock(path).map_err(SupervisorError::Lock)?;
        }
        self.incarnation += 1;
        self.respawns += 1;
        let handle = self.factory.spawn(self.incarnation)?;
        self.handle = Some(handle);
        Ok(())
    }

    /// Incarnations killed by the supervisor.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Respawns performed.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// The current incarnation number (0-based).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Graceful shutdown: dials `addr` and sends a
    /// [`ControlFrame::Shutdown`] frame. The coordinator cancels any open
    /// round and exits on its own; the caller waits for death via
    /// [`Supervisor::is_alive`].
    ///
    /// # Errors
    ///
    /// `SupervisorError::Io` when the dial or send fails.
    pub fn shutdown(addr: SocketAddr) -> Result<(), SupervisorError> {
        let mut conn = FrameConn::connect(addr).map_err(|e| SupervisorError::Io {
            op: "shutdown dial",
            message: e.to_string(),
        })?;
        conn.send(&ControlFrame::Shutdown.encode())
            .map_err(|e| SupervisorError::Io {
                op: "shutdown send",
                message: e.to_string(),
            })?;
        // Give the kernel a beat to flush before the connection drops.
        std::thread::sleep(Duration::from_millis(20));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;

    /// A fake child that dies when poked.
    struct FakeHandle {
        alive: bool,
        kills: Arc<AtomicU64>,
    }

    impl ProcessHandle for FakeHandle {
        fn is_alive(&mut self) -> bool {
            self.alive
        }

        fn kill(&mut self) -> Result<(), SupervisorError> {
            self.alive = false;
            self.kills.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    struct FakeFactory {
        spawned: Vec<u64>,
        kills: Arc<AtomicU64>,
    }

    impl ProcessFactory for FakeFactory {
        type Handle = FakeHandle;

        fn spawn(&mut self, incarnation: u64) -> Result<FakeHandle, SupervisorError> {
            self.spawned.push(incarnation);
            Ok(FakeHandle {
                alive: true,
                kills: self.kills.clone(),
            })
        }
    }

    #[test]
    fn kill_then_respawn_advances_the_incarnation() {
        let kills = Arc::new(AtomicU64::new(0));
        let factory = FakeFactory {
            spawned: Vec::new(),
            kills: kills.clone(),
        };
        let mut sup = Supervisor::new(factory);
        sup.start().expect("start");
        assert!(sup.is_alive());
        assert_eq!(sup.incarnation(), 0);

        sup.kill().expect("kill");
        assert!(!sup.is_alive());
        assert_eq!(kills.load(Ordering::Relaxed), 1);

        sup.respawn().expect("respawn");
        assert!(sup.is_alive());
        assert_eq!(sup.incarnation(), 1);
        assert_eq!(sup.kills(), 1);
        assert_eq!(sup.respawns(), 1);
    }

    #[test]
    fn respawn_on_a_live_child_kills_it_first() {
        let kills = Arc::new(AtomicU64::new(0));
        let factory = FakeFactory {
            spawned: Vec::new(),
            kills: kills.clone(),
        };
        let mut sup = Supervisor::new(factory);
        sup.start().expect("start");
        sup.respawn().expect("respawn");
        assert_eq!(kills.load(Ordering::Relaxed), 1, "old child must die first");
        assert_eq!(sup.incarnation(), 1);
    }

    #[test]
    fn kill_without_a_child_is_a_typed_error() {
        let factory = FakeFactory {
            spawned: Vec::new(),
            kills: Arc::new(AtomicU64::new(0)),
        };
        let mut sup = Supervisor::new(factory);
        assert!(matches!(sup.kill(), Err(SupervisorError::NotRunning)));
        assert!(!sup.is_alive());
    }

    #[test]
    fn respawn_breaks_the_stale_journal_lock() {
        let path = std::env::temp_dir().join(format!(
            "fei-sup-lock-{}-{}.journal",
            std::process::id(),
            line!()
        ));
        // Simulate a SIGKILLed incarnation: lock file left behind.
        let lock = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".lock");
            std::path::PathBuf::from(os)
        };
        std::fs::write(&lock, b"424242\n").expect("plant stale lock");

        let factory = FakeFactory {
            spawned: Vec::new(),
            kills: Arc::new(AtomicU64::new(0)),
        };
        let mut sup = Supervisor::with_journal(factory, path.clone());
        sup.respawn().expect("respawn breaks lock");
        assert!(!lock.exists(), "stale lock must be gone before the spawn");
        // And the journal is now openable by the next incarnation.
        let (store, prefix) = DiskJournal::open(&path).expect("journal reopens");
        assert!(prefix.is_empty());
        store.close().expect("close");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn process_handle_reaps_a_real_child() {
        // A real OS child via CommandFactory: spawn `sleep`, SIGKILL it,
        // observe death.
        let mut factory = CommandFactory::new(|_incarnation| {
            let mut c = Command::new("sleep");
            c.arg("30");
            c
        });
        let mut handle = factory.spawn(0).expect("spawn sleep");
        assert!(handle.is_alive());
        handle.kill().expect("kill sleep");
        assert!(!handle.is_alive());
    }
}
