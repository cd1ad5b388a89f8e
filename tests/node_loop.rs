//! The shipped `run()` loops on real sockets: paced by the clock, woken by
//! input, held up by no one, and leaving no thread behind.
//!
//! `CoordinatorNode::run` and `ParticipantNode::run` block until a frame
//! arrives or a tick falls due. What that must keep true is wall-clock
//! behaviour the seeded simulator cannot see, so these tests measure it —
//! with bounds wide enough for a debug build on a busy two-core runner:
//!
//! * **a tick is a period of wall time**, idle or flooded (a loop that
//!   ticked per wake-up, or whose wait rounded up to scheduler jiffies,
//!   fails the band from one side or the other);
//! * **one peer that stops reading stalls nobody**: its send times out,
//!   typed, its connection goes, the round goes on without it;
//! * **threads end**: every reader and acceptor thread is gone once what it
//!   served is dropped.
//!
//! The tests share the machine's two cores, so they run one at a time.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use fei_net::transport::FrameStream;
use fei_proto::node::{
    CoordinatorAddr, CoordinatorNode, CoordinatorNodeConfig, NodePersistence, NodeReport,
    ParticipantNode, ParticipantNodeConfig,
};
use fei_proto::{ControlFrame, CoordinatorConfig, ParticipantConfig};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The tick period of every node here.
const PERIOD: Duration = Duration::from_millis(1);

fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        k: 3,
        over_select: 0,
        quorum: 2,
        epochs: 1,
        heartbeat_interval: 10,
        heartbeat_timeout: 200,
        round_deadline: 400,
    }
}

/// A coordinator running until a shutdown frame arrives, on its own thread;
/// joins to its report and how long `run()` took.
fn spawn_coordinator(
    config: CoordinatorNodeConfig,
) -> (SocketAddr, std::thread::JoinHandle<(NodeReport, Duration)>) {
    let node = CoordinatorNode::start("127.0.0.1:0", config, NodePersistence::default())
        .expect("coordinator start");
    let addr = node.local_addr().expect("local addr");
    let running = std::thread::spawn(move || {
        let started = Instant::now();
        let report = node.run().expect("coordinator run");
        (report, started.elapsed())
    });
    (addr, running)
}

/// Tells the coordinator at `addr` to exit; hold the connection until it has.
fn shut_down(addr: SocketAddr) -> FrameStream {
    let mut conn = FrameStream::connect(addr).expect("connect");
    conn.send(&ControlFrame::Shutdown.encode())
        .expect("shutdown");
    conn
}

/// `ticks` as a share of the `elapsed / PERIOD` a perfectly paced clock
/// would have made.
fn pace(ticks: u64, elapsed: Duration) -> f64 {
    ticks as f64 * PERIOD.as_secs_f64() / elapsed.as_secs_f64()
}

/// Never faster than the clock, and no slower than half of it (a late tick
/// is skipped, not caught up, so a loop the scheduler sits on reads low).
fn assert_paced(what: &str, ticks: u64, elapsed: Duration) {
    let pace = pace(ticks, elapsed);
    assert!(
        (0.5..=1.1).contains(&pace),
        "{what}: {ticks} ticks in {elapsed:?} ({pace:.2} of one per period)"
    );
}

#[test]
fn an_idle_coordinator_ticks_on_time_and_wakes_for_nothing() {
    let _serial = serial();
    let mut config = CoordinatorNodeConfig::new(coordinator_config());
    config.target_rounds = 0;
    let (addr, running) = spawn_coordinator(config);
    std::thread::sleep(PERIOD * 100);
    let _conn = shut_down(addr);
    let (report, elapsed) = running.join().expect("coordinator thread");
    assert!(report.shutdown);
    assert_paced("idle coordinator", report.cycles, elapsed);
    // No busy loop: the only wake-ups are the shutdown's own connection and
    // frame (which may also land on a tick and need none).
    assert!(report.pumps <= 2, "{} pumps while idle", report.pumps);
}

/// A coordinator `run()` with one client writing heartbeats as fast as the
/// socket takes them for 100 periods; the report, how long `run()` took,
/// and how many frames were written.
fn flooded_run() -> (NodeReport, Duration, u64) {
    let mut config = CoordinatorNodeConfig::new(coordinator_config());
    config.target_rounds = 0;
    let started = Instant::now();
    let (addr, running) = spawn_coordinator(config);
    let mut client = FrameStream::connect(addr).expect("connect");
    let join = ControlFrame::JoinRequest {
        client: 7,
        wire_version: fei_net::wire::WIRE_VERSION,
    };
    client.send(&join.encode()).expect("join");
    // Thirty-two heartbeats a write: frames arrive faster than the loop can
    // apply them, so there is always another one waiting to be polled.
    let beat = ControlFrame::Heartbeat { client: 7, tick: 1 };
    let burst = beat.encode().repeat(32);
    let mut sent = 0u64;
    while started.elapsed() < PERIOD * 100 && client.send(&burst).is_ok() {
        sent += 32;
    }
    let _conn = shut_down(addr);
    let (report, elapsed) = running.join().expect("coordinator thread");
    (report, elapsed, sent)
}

#[test]
fn a_flood_of_frames_does_not_move_the_clock() {
    let _serial = serial();
    for attempt in 1.. {
        let (report, elapsed, sent) = flooded_run();
        // The frames were handled as they came (all but what was still in
        // flight when the shutdown overtook it)...
        let handled = report.audit.stats.frames_in;
        assert!(handled > 1000 && handled <= sent + 2, "{handled} of {sent}");
        assert!(report.pumps >= 10, "{} pumps under flood", report.pumps);
        // ...at the tick the wall clock had reached: not one the wake-ups
        // hurried it to, and not one the frames kept it from.
        let pace = pace(report.cycles, elapsed);
        let ticks = report.cycles;
        assert!(pace <= 1.1, "{ticks} ticks in {elapsed:?} ({pace:.2})");
        if pace >= 0.5 {
            break;
        }
        // A flooded loop is never idle, so a host with no core to spare
        // deschedules it like any busy thread and the ticks it slept through
        // are skipped (measured: ≥ 0.9 on an idle host, 0.44–0.64 with both
        // cores taken by other work — and then with ≤ 8 turns in 1 000
        // draining more than 64 frames, so it is the scheduler, not the
        // flood, that holds it). The slow side, and only it, is retried.
        assert!(attempt < 5, "{ticks} ticks in {elapsed:?} ({pace:.2})");
    }
}

#[test]
fn a_participant_facing_a_silent_coordinator_keeps_its_clock() {
    let _serial = serial();
    // Accepts (in the kernel's backlog) and never says a word.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let device = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let config = ParticipantNodeConfig::new(ParticipantConfig::new(1, 0));
            ParticipantNode::new(CoordinatorAddr::Fixed(addr), config)
                .run(&stop)
                .expect("participant run")
        })
    };
    let started = Instant::now();
    std::thread::sleep(PERIOD * 100);
    stop.store(true, Ordering::Relaxed);
    let report = device.join().expect("participant thread");
    assert_paced("waiting participant", report.cycles, started.elapsed());
}

#[test]
fn one_peer_that_stops_reading_stalls_nobody() {
    let _serial = serial();
    const ROUNDS: u64 = 100;
    let mut config = CoordinatorNodeConfig::new(CoordinatorConfig {
        // Every round closes at its deadline, two updates of three in hand
        // (or fewer, should the runner sit on a device for 8 ms).
        round_deadline: 8,
        ..coordinator_config()
    });
    config.global = vec![0xAB; 62_807];
    config.target_rounds = ROUNDS;
    let node = CoordinatorNode::start("127.0.0.1:0", config, NodePersistence::default())
        .expect("coordinator start");
    let addr = node.local_addr().expect("local addr");

    let stop = Arc::new(AtomicBool::new(false));
    let fleet: Vec<_> = (0..2u64)
        .map(|client| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let config = ParticipantNodeConfig::new(ParticipantConfig::new(client, 0));
                ParticipantNode::new(CoordinatorAddr::Fixed(addr), config)
                    .run(&stop)
                    .expect("participant run")
            })
        })
        .collect();
    // The third device joins, keeps its lease alive, and never reads: every
    // round's 62 kB selection notice piles up in the socket buffers until
    // the kernel stops taking more.
    let staller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let join = ControlFrame::JoinRequest {
                client: 2,
                wire_version: fei_net::wire::WIRE_VERSION,
            };
            stream.write_all(&join.encode()).expect("join");
            let started = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let beat = ControlFrame::Heartbeat { client: 2, tick: 0 };
                if stream.write_all(&beat.encode()).is_err() {
                    // The coordinator hung up on us.
                    return Some(started.elapsed());
                }
                std::thread::sleep(PERIOD * 5);
            }
            None
        })
    };

    let started = Instant::now();
    let report = node.run().expect("coordinator run");
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let dropped_after = staller.join().expect("staller thread");
    for device in fleet {
        let stats = device.join().expect("participant thread").stats;
        assert!(stats.commits >= ROUNDS * 8 / 10, "{stats:?}");
    }
    let committed = report.audit.stats.committed_rounds;
    assert!(committed >= ROUNDS * 9 / 10, "{committed} of {ROUNDS}");
    // The stalled send cost its bound once; the clock lost that and no more.
    let ideal = elapsed.as_secs_f64() / PERIOD.as_secs_f64();
    assert!(
        report.cycles as f64 >= ideal / 2.0,
        "{} ticks in {elapsed:?}",
        report.cycles
    );
    let dropped_after = dropped_after.expect("the stalled connection was dropped mid-run");
    assert!(dropped_after < elapsed, "{dropped_after:?} of {elapsed:?}");
}

#[test]
fn no_thread_outlives_what_it_served() {
    let _serial = serial();
    let mut config = CoordinatorNodeConfig::new(coordinator_config());
    config.target_rounds = 0;
    let (addr, running) = spawn_coordinator(config);
    // Dropping a connection joins its reader, so each drop returning is
    // this end's thread gone; the coordinator is left 200 dead peers.
    for _ in 0..200 {
        drop(FrameStream::connect(addr).expect("connect"));
    }
    let conn = shut_down(addr);
    // `run()` returns through `finish()`, which drops — and so joins — the
    // acceptor and the reader of every connection still held.
    let (report, _) = running.join().expect("coordinator thread");
    assert!(report.shutdown);
    drop(conn);
    // The acceptor owned the listening socket: the port is closed with it.
    let refused = TcpStream::connect(addr).expect_err("the acceptor is gone");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
}
