//! The TCP rung: a real `fei_coordinatord` process, one product
//! `ParticipantNode` thread and one probe participant, over localhost
//! sockets with the journal and trace fsync'd in a work directory of the
//! checkout.
//!
//! K = quorum = fleet = 2, so every round waits for both participants: the
//! product peer and the daemon set the pace, and the probe — the public
//! `Participant` state machine over a `FrameConn`, clocked in wall
//! milliseconds — only watches. It stamps wall-clock at each `Select`, at
//! its own first `UpdateSubmit` and at each `RoundCommit`; those stamps are
//! the per-round latency samples, taken without any span recording.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    parse_stats, read_trace, replay_trace, ControlFrame, ControlStats, CoordinatorAddr,
    CoordinatorConfig, FrameConn, Participant, ParticipantConfig, ParticipantNode,
    ParticipantNodeConfig, ParticipantStats, TraceEvent,
};
use crate::procfs;

/// A whole workload (all campaigns, set-up and checks) must end within
/// this; a wedged daemon or fleet fails the run instead of hanging it.
pub const WATCHDOG: Duration = Duration::from_secs(120);

/// Idle sleep of the probe loop: short against the 1 ms cycles of the
/// daemon and the peer, so the probe never sets the pace.
const PROBE_IDLE: Duration = Duration::from_micros(100);

/// The probe reads the daemon's `VmHWM` every this many commits.
const RSS_EVERY: u64 = 50;

/// What one campaign asks of the daemon.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Bytes of the global payload in every `Select` (echoed back as the
    /// update by both participants).
    pub global_bytes: usize,
    /// Rounds to close before the daemon exits.
    pub rounds: u64,
}

impl CampaignSpec {
    /// The protocol configuration, passed to the daemon flag by flag and to
    /// the replay oracle as a value, so the two cannot drift apart.
    pub fn coordinator(&self) -> CoordinatorConfig {
        CoordinatorConfig {
            k: 2,
            over_select: 0,
            quorum: 2,
            epochs: 1,
            heartbeat_interval: 10,
            heartbeat_timeout: 200,
            round_deadline: 400,
        }
    }

    pub fn global(&self) -> Vec<u8> {
        vec![0xAB; self.global_bytes]
    }
}

/// Builds `fei_coordinatord` beside this executable and returns its path.
///
/// The benchmark is a package of its own, and cargo does not build the
/// binaries of a path dependency, so the daemon is built here, from the
/// repository workspace in the current directory, into the target
/// directory this executable was built into. When nothing changed this is
/// a no-op of a few tens of milliseconds.
///
/// # Errors
///
/// A message saying what to run when the current directory is not the
/// repository root or the build fails.
pub fn daemon_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no parent directory")?;
    let daemon = bin_dir.join("fei_coordinatord");
    let target_dir = bin_dir
        .parent()
        .ok_or("executable is not in <target>/release")?;
    if !Path::new("src/bin/fei_coordinatord.rs").exists() {
        return Err(format!(
            "fei_coordinatord cannot be built: run the benchmark from the repository root \
             (no src/bin/fei_coordinatord.rs in {})",
            std::env::current_dir().unwrap_or_default().display()
        ));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet"])
        .args(["--bin", "fei_coordinatord", "--target-dir"])
        .arg(target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build fei_coordinatord: {e}"))?;
    if !status.success() || !daemon.exists() {
        return Err(format!(
            "fei_coordinatord was not built beside {} ({status}); \
             try `cargo build --release --bin fei_coordinatord --target-dir {}`",
            exe.display(),
            target_dir.display()
        ));
    }
    Ok(daemon)
}

/// A unique scratch directory inside the build directory of the checkout,
/// removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// # Errors
    ///
    /// The OS error creating the directory.
    pub fn create(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let root = exe.parent().ok_or("executable has no parent directory")?;
        let dir = root.join("perfbench-work").join(format!(
            "{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Paths of one daemon's artifacts inside a work directory.
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub journal: PathBuf,
    pub trace: PathBuf,
    pub stats: PathBuf,
    pub port: PathBuf,
}

impl Artifacts {
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            journal: dir.join("coordinator.journal"),
            trace: dir.join("coordinator.trace"),
            stats: dir.join("coordinator.stats"),
            port: dir.join("coordinator.port"),
        }
    }
}

/// A running daemon; killed and reaped when dropped, whatever the path out.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
}

impl Daemon {
    /// # Errors
    ///
    /// The OS error spawning the process.
    pub fn spawn(exe: &Path, files: &Artifacts, spec: CampaignSpec) -> Result<Self, String> {
        let config = spec.coordinator();
        let flag = |name: &str, value: String| [name.to_string(), value];
        let child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(&files.port)
            .arg("--journal")
            .arg(&files.journal)
            .arg("--trace")
            .arg(&files.trace)
            .arg("--stats")
            .arg(&files.stats)
            .args(flag("--rounds", spec.rounds.to_string()))
            .args(flag("--global-bytes", spec.global_bytes.to_string()))
            .args(flag("--max-cycles", "600000".to_string()))
            .args(flag("--k", config.k.to_string()))
            .args(flag("--over-select", config.over_select.to_string()))
            .args(flag("--quorum", config.quorum.to_string()))
            .args(flag("--epochs", config.epochs.to_string()))
            .args(flag(
                "--heartbeat-interval",
                config.heartbeat_interval.to_string(),
            ))
            .args(flag(
                "--heartbeat-timeout",
                config.heartbeat_timeout.to_string(),
            ))
            .args(flag("--round-deadline", config.round_deadline.to_string()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        Ok(Self { child })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit by itself, sampling its peak RSS while
    /// it lives. Returns the exit status and the last `VmHWM` seen (kB).
    ///
    /// The daemon's memory peaks as it exits (its report clones the whole
    /// history), and it writes `stats` after that and just before it goes:
    /// once that file is there the loop stops sleeping, so the last sample
    /// includes the peak on every run, not on the runs where a sleep
    /// happened to end in time.
    ///
    /// # Errors
    ///
    /// A message when `deadline` passes first (the daemon is then killed by
    /// `Drop`).
    pub fn wait_exit(
        &mut self,
        stats: &Path,
        deadline: Instant,
    ) -> Result<(ExitStatus, Option<u64>), String> {
        let mut hwm = None;
        loop {
            if let Some(kb) = procfs::vm_hwm_kb(self.pid()) {
                hwm = Some(kb);
            }
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((status, hwm)),
                Ok(None) if Instant::now() > deadline => {
                    return Err("daemon did not exit before the watchdog".to_string())
                }
                Ok(None) if stats.exists() => std::hint::spin_loop(),
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // No-ops when the daemon already exited and was reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Wall-clock stamps of one round, as the probe saw it.
#[derive(Debug, Clone, Copy)]
pub struct RoundStamps {
    pub select: Instant,
    pub submit: Instant,
    pub commit: Instant,
}

/// Everything one campaign produced.
#[derive(Debug)]
pub struct Campaign {
    /// Daemon spawn → the probe's first `Select`.
    pub setup_s: f64,
    /// First `Select` → last `RoundCommit`.
    pub wall_s: f64,
    /// Daemon spawn → daemon exit.
    pub total_s: f64,
    pub stamps: Vec<RoundStamps>,
    /// The daemon's own accounting, from its `--stats` file.
    pub stats: ControlStats,
    pub probe: ParticipantStats,
    pub peer: ParticipantStats,
    /// CPU seconds of the daemon process (user + system).
    pub daemon_cpu_s: f64,
    /// `(rounds committed, VmHWM kB)` samples of the daemon.
    pub rss: Vec<(u64, u64)>,
    pub journal_bytes: u64,
    pub trace_bytes: u64,
}

impl Campaign {
    /// `Select` → `RoundCommit` per round, in milliseconds.
    pub fn round_ms(&self) -> Vec<f64> {
        self.stamps
            .iter()
            .map(|s| (s.commit - s.select).as_secs_f64() * 1e3)
            .collect()
    }

    pub fn peak_rss_kb(&self) -> u64 {
        self.rss.iter().map(|(_, kb)| *kb).max().unwrap_or(0)
    }
}

/// Client ids of the probe and the peer, made from the workload seed.
fn client_ids(seed: u64) -> (u64, u64) {
    let base = (seed % 1_000_000) * 2;
    (base, base + 1)
}

/// Runs one campaign to completion in `dir`.
///
/// # Errors
///
/// A message on any miss: the daemon exits non-zero or early, a round does
/// not commit, the fleet loses its connection, or the watchdog passes.
/// The daemon is killed and reaped and the peer thread joined on every
/// path out.
pub fn run_campaign(
    exe: &Path,
    dir: &Path,
    spec: CampaignSpec,
    seed: u64,
    deadline: Instant,
) -> Result<Campaign, String> {
    let files = Artifacts::in_dir(dir);
    let (probe_id, peer_id) = client_ids(seed);
    let children_before = procfs::self_cpu().children_s;
    let spawned = Instant::now();
    let mut daemon = Daemon::spawn(exe, &files, spec)?;

    let stop = Arc::new(AtomicBool::new(false));
    let peer = {
        let stop = Arc::clone(&stop);
        let port = files.port.clone();
        std::thread::spawn(move || {
            let mut config = ParticipantNodeConfig::new(ParticipantConfig::new(peer_id, 0));
            config.max_cycles = 600_000;
            // Dial every cycle: the port file appears a few milliseconds
            // after the spawn, and set-up time should not wait out the
            // default ten-cycle redial.
            config.reconnect_cycles = 1;
            ParticipantNode::new(CoordinatorAddr::PortFile(port), config).run(&stop)
        })
    };

    let probed = probe(&mut daemon, &files, spec, probe_id, spawned, deadline);
    // The daemon first (its exit is where its memory peaks, and the wait
    // samples it), then the peer.
    let exited = probed.and_then(|probed| Ok((probed, daemon.wait_exit(&files.stats, deadline)?)));
    stop.store(true, Ordering::Relaxed);
    let peer_report = peer.join();
    let (mut probed, (status, hwm)) = exited?;
    let total_s = spawned.elapsed().as_secs_f64();
    let peer_stats = match peer_report {
        Ok(Ok(report)) => report.stats,
        Ok(Err(e)) => return Err(format!("peer participant failed: {e}")),
        Err(_) => return Err("peer participant thread panicked".to_string()),
    };
    if !status.success() {
        return Err(format!("fei_coordinatord exited with {status}"));
    }
    if let Some(kb) = hwm {
        probed.rss.push((spec.rounds, kb));
    }
    let daemon_cpu_s = procfs::self_cpu().children_s - children_before;

    let stats_text = std::fs::read_to_string(&files.stats)
        .map_err(|e| format!("read {}: {e}", files.stats.display()))?;
    let stats = parse_stats(&stats_text);
    if stats.committed_rounds != spec.rounds || stats.aborted_rounds != 0 {
        return Err(format!(
            "campaign committed {} and aborted {} of {} rounds",
            stats.committed_rounds, stats.aborted_rounds, spec.rounds
        ));
    }
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let wall_s = match (probed.stamps.first(), probed.stamps.last()) {
        (Some(first), Some(last)) => (last.commit - first.select).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Campaign {
        setup_s: probed.setup_s,
        wall_s,
        total_s,
        stamps: probed.stamps,
        stats,
        probe: probed.stats,
        peer: peer_stats,
        daemon_cpu_s,
        rss: probed.rss,
        journal_bytes: size(&files.journal),
        trace_bytes: size(&files.trace),
    })
}

/// What the probe brings back from a campaign.
struct Probed {
    setup_s: f64,
    stamps: Vec<RoundStamps>,
    stats: ParticipantStats,
    rss: Vec<(u64, u64)>,
}

/// The probe participant: joins, echoes every global back, and stamps.
fn probe(
    daemon: &mut Daemon,
    files: &Artifacts,
    spec: CampaignSpec,
    client: u64,
    spawned: Instant,
    deadline: Instant,
) -> Result<Probed, String> {
    let addr = CoordinatorAddr::PortFile(files.port.clone());
    let mut conn = loop {
        if let Some(conn) = addr.resolve().and_then(|a| FrameConn::connect(a).ok()) {
            break conn;
        }
        if Instant::now() > deadline {
            return Err("daemon never published a reachable port".to_string());
        }
        std::thread::sleep(PROBE_IDLE);
    };
    // The virtual clock is wall milliseconds since the spawn.
    let now_ms = || spawned.elapsed().as_millis() as u64;
    let mut machine = Participant::new(ParticipantConfig::new(client, 0));
    conn.send(&machine.start(now_ms()).encode())
        .map_err(|e| format!("probe join: {e}"))?;

    let mut setup_s = 0.0;
    let mut stamps: Vec<RoundStamps> = Vec::with_capacity(spec.rounds as usize);
    let mut rss = Vec::new();
    let mut open: Option<(u64, Instant, Option<Instant>)> = None;
    'campaign: loop {
        let now = now_ms();
        let mut out = Vec::new();
        let mut busy = false;
        loop {
            let raw = match conn.poll() {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(e) => {
                    return Err(format!(
                        "probe lost the daemon after {} of {} rounds: {e}",
                        stamps.len(),
                        spec.rounds
                    ))
                }
            };
            busy = true;
            let at = Instant::now();
            let Ok((frame, _)) = ControlFrame::decode(&raw.bytes) else {
                return Err("daemon sent an undecodable frame".to_string());
            };
            match &frame {
                ControlFrame::Select { round, .. } => {
                    if stamps.is_empty() && open.is_none() {
                        setup_s = (at - spawned).as_secs_f64();
                    }
                    open = Some((*round, at, None));
                }
                ControlFrame::RoundCommit { round, .. } => {
                    if let Some((opened, select, Some(submit))) = open {
                        if opened == *round {
                            stamps.push(RoundStamps {
                                select,
                                submit,
                                commit: at,
                            });
                            open = None;
                            let done = stamps.len() as u64;
                            if done.is_multiple_of(RSS_EVERY) {
                                if let Some(kb) = procfs::vm_hwm_kb(daemon.pid()) {
                                    rss.push((done, kb));
                                }
                            }
                            if done == spec.rounds {
                                // The daemon exits now and closes the
                                // socket; nothing more is owed either way.
                                break 'campaign;
                            }
                        }
                    }
                }
                ControlFrame::RoundAbort { round, reason } => {
                    return Err(format!("round {round} aborted: {}", reason.name()));
                }
                _ => {}
            }
            // A rejection leaves the machine unchanged (a duplicate verdict
            // after a retransmit, say); the daemon counts it on its side.
            if let Ok(frames) = machine.handle_control(frame, now) {
                out.extend(frames);
            }
        }
        out.extend(machine.tick(now));
        for frame in &out {
            if let (ControlFrame::UpdateSubmit { .. }, Some((_, _, submit @ None))) =
                (frame, open.as_mut())
            {
                *submit = Some(Instant::now());
            }
            conn.send(&frame.encode())
                .map_err(|e| format!("probe send {}: {e}", frame.name()))?;
            busy = true;
        }
        if !busy {
            if Instant::now() > deadline {
                return Err(format!(
                    "watchdog: {} of {} rounds after {:?}",
                    stamps.len(),
                    spec.rounds,
                    spawned.elapsed()
                ));
            }
            std::thread::sleep(PROBE_IDLE);
        }
    }
    Ok(Probed {
        setup_s,
        stamps,
        stats: machine.stats(),
        rss,
    })
}

/// What the replay oracle found in a campaign's on-disk artifacts.
#[derive(Debug)]
pub struct Replayed {
    /// Events in the trace file.
    pub events: usize,
    /// `Tick` events among them: one per daemon poll cycle.
    pub ticks: usize,
    /// `Recover` events among them: one per restart.
    pub recoveries: usize,
    /// The daemon incarnation the replay ended in.
    pub epoch: u64,
    /// Seconds `read_trace` + `replay_trace` took.
    pub replay_s: f64,
}

/// Checks a finished daemon's artifacts against the replay oracle:
/// `read_trace` + `replay_trace` of the on-disk trace must reproduce the
/// journal file byte for byte and the `--stats` file through `parse_stats`.
///
/// # Errors
///
/// A message naming the first artifact that does not match.
pub fn verify_artifacts(files: &Artifacts, spec: CampaignSpec) -> Result<Replayed, String> {
    let started = Instant::now();
    let (events, torn) = read_trace(&files.trace).map_err(|e| format!("read trace: {e}"))?;
    let audit = replay_trace(&spec.coordinator(), &spec.global(), &events);
    let replay_s = started.elapsed().as_secs_f64();
    if torn != 0 {
        return Err(format!(
            "trace file has {torn} torn bytes after a clean exit"
        ));
    }
    let journal = std::fs::read(&files.journal).map_err(|e| format!("read journal: {e}"))?;
    if audit.journal != journal {
        return Err(format!(
            "replayed journal ({} B) differs from the journal file ({} B)",
            audit.journal.len(),
            journal.len()
        ));
    }
    let stats_text =
        std::fs::read_to_string(&files.stats).map_err(|e| format!("read stats: {e}"))?;
    if audit.stats != parse_stats(&stats_text) {
        return Err("replayed ControlStats differ from the --stats file".to_string());
    }
    if audit.stats.committed_rounds != spec.rounds {
        return Err(format!(
            "replay committed {} of {} rounds",
            audit.stats.committed_rounds, spec.rounds
        ));
    }
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    Ok(Replayed {
        events: events.len(),
        ticks: count(|e| matches!(e, TraceEvent::Tick { .. })),
        recoveries: count(|e| matches!(e, TraceEvent::Recover { .. })),
        epoch: audit.epoch,
        replay_s,
    })
}

/// One timed restart of a finished campaign.
#[derive(Debug)]
pub struct Restart {
    /// Daemon spawn → exit 0.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    pub stats_text: String,
}

/// Copies the pristine journal and trace into `dir` (untimed), then times
/// a daemon started on them with the same `--rounds`: it replays its trace,
/// recovers from its journal, finds the campaign complete and exits 0.
///
/// # Errors
///
/// A message when the copy fails, the daemon exits non-zero, or the
/// watchdog passes.
pub fn time_restart(
    exe: &Path,
    pristine: &Artifacts,
    dir: &Path,
    spec: CampaignSpec,
    deadline: Instant,
) -> Result<Restart, String> {
    let files = Artifacts::in_dir(dir);
    for (from, to) in [
        (&pristine.journal, &files.journal),
        (&pristine.trace, &files.trace),
    ] {
        std::fs::copy(from, to).map_err(|e| format!("copy {}: {e}", from.display()))?;
    }
    let children_before = procfs::self_cpu().children_s;
    let spawned = Instant::now();
    let mut daemon = Daemon::spawn(exe, &files, spec)?;
    let (status, hwm) = daemon.wait_exit(&files.stats, deadline)?;
    let wall_s = spawned.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("restarted fei_coordinatord exited with {status}"));
    }
    let stats_text = std::fs::read_to_string(&files.stats)
        .map_err(|e| format!("read {}: {e}", files.stats.display()))?;
    Ok(Restart {
        wall_s,
        cpu_s: procfs::self_cpu().children_s - children_before,
        peak_rss_kb: hwm.unwrap_or(0),
        stats_text,
    })
}
