//! A device whose lease lapses comes back, with no coordinator restart.
//!
//! A real `CoordinatorNode` on localhost TCP and one device spoken for by a
//! raw `FrameStream`, its protocol decisions made by the product
//! `Participant`: the device joins, is selected, and goes silent past its
//! heartbeat lease, so the coordinator expires it (the round it was alone
//! in aborts on fleet collapse). When it beats again, the coordinator's
//! answer must put it back on the join handshake: the participant answers
//! with a `JoinRequest`, is admitted, selected again, and its update
//! commits.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fei_net::transport::FrameStream;
use fei_proto::node::{CoordinatorNode, CoordinatorNodeConfig, NodePersistence};
use fei_proto::{AbortReason, ControlFrame, CoordinatorConfig, Participant, ParticipantConfig};

const CLIENT: u64 = 7;

/// The device: a socket and the state machine that decides what it sends.
struct Device {
    conn: FrameStream,
    participant: Participant,
    /// The participant's clock, one tick per step of the script.
    now: u64,
}

impl Device {
    fn connect(addr: SocketAddr) -> Device {
        Device {
            conn: FrameStream::connect(addr).expect("connect"),
            participant: Participant::new(ParticipantConfig::new(CLIENT, 0)),
            now: 0,
        }
    }

    fn send(&mut self, frames: &[ControlFrame]) {
        for frame in frames {
            self.conn.send(&frame.encode()).expect("coordinator is up");
        }
    }

    /// The next frame the coordinator sends, fed to the participant; the
    /// frame and the participant's answer.
    fn receive(&mut self) -> (ControlFrame, Vec<ControlFrame>) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(raw) = self.conn.poll().expect("coordinator is up") {
                let (frame, _) = ControlFrame::decode(&raw.bytes).expect("well-formed frame");
                self.now += 1;
                let answer = self
                    .participant
                    .handle_frame(&raw.bytes, self.now)
                    .expect("a frame the participant accepts");
                return (frame, answer);
            }
            assert!(Instant::now() < deadline, "the coordinator went quiet");
            self.conn.wait(Duration::from_millis(10));
        }
    }

    /// Receives until `wanted` matches, answering nothing on the way.
    fn receive_until(&mut self, wanted: impl Fn(&ControlFrame) -> bool) -> ControlFrame {
        loop {
            let (frame, _) = self.receive();
            if wanted(&frame) {
                return frame;
            }
        }
    }
}

#[test]
fn a_lapsed_client_is_readmitted_without_a_restart() {
    let mut config = CoordinatorNodeConfig::new(CoordinatorConfig {
        k: 1,
        over_select: 0,
        quorum: 1,
        epochs: 1,
        heartbeat_interval: 10,
        // Wide enough that a runner sitting on the test thread between the
        // rejoin and the update does not lapse the new lease.
        heartbeat_timeout: 300,
        // Longer than the lease: the first round can only end by the
        // device lapsing out of it.
        round_deadline: 5_000,
    });
    config.target_rounds = 2;
    let node = CoordinatorNode::start("127.0.0.1:0", config, NodePersistence::default())
        .expect("coordinator start");
    let addr = node.local_addr().expect("local addr");
    let running = std::thread::spawn(move || node.run().expect("coordinator run"));

    let mut device = Device::connect(addr);
    let join = device.participant.start(0);
    device.send(&[join]);
    device.receive_until(|f| matches!(f, ControlFrame::JoinAck { .. }));
    device.receive_until(|f| matches!(f, ControlFrame::Select { round: 0, .. }));
    // Silence: no heartbeat and no update until the lease has lapsed,
    // which the round's abort announces.
    let abort = device.receive_until(|f| matches!(f, ControlFrame::RoundAbort { .. }));
    assert_eq!(
        abort,
        ControlFrame::RoundAbort {
            round: 0,
            reason: AbortReason::FleetCollapse
        }
    );

    // The device speaks again, to a coordinator that no longer knows it.
    let beat = ControlFrame::Heartbeat {
        client: CLIENT,
        tick: device.now,
    };
    device.send(&[beat]);
    let (reply, answer) = device.receive();
    assert!(
        matches!(
            answer[..],
            [ControlFrame::JoinRequest { client: CLIENT, .. }]
        ),
        "a ready participant answered {reply:?} with {answer:?}, not a join request"
    );
    assert_eq!(device.participant.stats().sessions_rejoined, 1);
    device.send(&answer);
    device.receive_until(|f| matches!(f, ControlFrame::JoinAck { .. }));

    // Back on the roster: selected for the next round, and its update
    // commits.
    device.receive_until(|f| matches!(f, ControlFrame::Select { round: 1, .. }));
    device.now += 1;
    let submit = device.participant.tick(device.now);
    assert!(
        submit
            .iter()
            .any(|f| matches!(f, ControlFrame::UpdateSubmit { round: 1, .. })),
        "{submit:?}"
    );
    device.send(&submit);
    let commit = device.receive_until(|f| matches!(f, ControlFrame::RoundCommit { .. }));
    assert_eq!(
        commit,
        ControlFrame::RoundCommit {
            round: 1,
            accepted: vec![CLIENT]
        }
    );
    assert_eq!(device.participant.stats().commits, 1);

    let report = running.join().expect("coordinator thread");
    let stats = report.audit.stats;
    assert_eq!((stats.committed_rounds, stats.aborted_rounds), (1, 1));
    assert_eq!(stats.aborts.fleet_collapse, 1);
}
