//! Property tests: coordinator transitions are total and deterministic.
//!
//! For any frame (well-formed or arbitrary bytes) in any reachable state,
//! the coordinator takes exactly one defined transition or returns one
//! typed rejection — it never panics — and replaying the same input
//! sequence from the same configuration reproduces the same phases,
//! rounds, effects, and counters.

use fei_net::wire::WIRE_VERSION;
use fei_proto::{
    AbortReason, ControlFrame, Coordinator, CoordinatorConfig, LivenessTracker, Phase,
};
use proptest::prelude::*;

fn config() -> CoordinatorConfig {
    CoordinatorConfig {
        k: 2,
        over_select: 1,
        quorum: 2,
        epochs: 3,
        heartbeat_interval: 4,
        heartbeat_timeout: 12,
        round_deadline: 25,
    }
}

/// Any control frame, valid or nonsensical for the state it lands in.
fn arb_frame() -> impl Strategy<Value = ControlFrame> {
    let client = 0u64..6;
    let round = 0u64..4;
    prop_oneof![
        (client.clone(), 0u8..4).prop_map(|(client, v)| ControlFrame::JoinRequest {
            client,
            wire_version: WIRE_VERSION.wrapping_add(v),
        }),
        (client.clone(), 0u32..20, 0u32..40).prop_map(|(client, i, t)| ControlFrame::JoinAck {
            client,
            heartbeat_interval: i,
            heartbeat_timeout: t,
        }),
        (client.clone(), 0u64..200)
            .prop_map(|(client, tick)| ControlFrame::Heartbeat { client, tick }),
        (
            round.clone(),
            client.clone(),
            1u32..8,
            0u64..300,
            proptest::collection::vec(any::<u8>(), 0..16)
        )
            .prop_map(|(round, client, epochs, deadline_tick, global)| {
                ControlFrame::Select {
                    round,
                    client,
                    epochs,
                    deadline_tick,
                    global,
                }
            }),
        (
            round.clone(),
            client.clone(),
            1u32..64,
            proptest::collection::vec(any::<u8>(), 0..16)
        )
            .prop_map(
                |(round, client, samples, update)| ControlFrame::UpdateSubmit {
                    round,
                    client,
                    samples,
                    update,
                }
            ),
        (
            round.clone(),
            prop_oneof![
                Just(AbortReason::QuorumMiss),
                Just(AbortReason::FleetCollapse),
                Just(AbortReason::Cancelled),
                Just(AbortReason::CoordinatorCrash),
            ]
        )
            .prop_map(|(round, reason)| ControlFrame::RoundAbort { round, reason }),
        (round.clone(), proptest::collection::vec(0u64..6, 0..4))
            .prop_map(|(round, accepted)| ControlFrame::RoundCommit { round, accepted }),
        (0u64..4, round).prop_map(|(epoch, round)| ControlFrame::EpochNotice { epoch, round }),
        (client, 0u64..4).prop_map(|(client, epoch)| ControlFrame::Rejoin { client, epoch }),
    ]
}

/// One scripted step of a run.
#[derive(Debug, Clone)]
enum Step {
    Frame(ControlFrame),
    RawBytes(Vec<u8>),
    StartRound,
    Tick(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => arb_frame().prop_map(Step::Frame),
        1 => proptest::collection::vec(any::<u8>(), 0..40).prop_map(Step::RawBytes),
        1 => Just(Step::StartRound),
        3 => (1u64..6).prop_map(Step::Tick),
    ]
}

/// Replays a script, returning a full observable trace.
fn replay(steps: &[Step]) -> (Vec<String>, Coordinator) {
    let mut coordinator = Coordinator::new(config());
    coordinator.open_rendezvous().expect("fresh coordinator");
    coordinator.set_global(vec![0xCD; 8]);
    let mut now = 0u64;
    let mut trace = Vec::new();
    for step in steps {
        let observed = match step {
            Step::Frame(frame) => {
                format!("{:?}", coordinator.handle_control(frame.clone(), now))
            }
            Step::RawBytes(bytes) => format!("{:?}", coordinator.handle_frame(bytes, now)),
            Step::StartRound => format!("{:?}", coordinator.start_round(now)),
            Step::Tick(dt) => {
                now += dt;
                format!("{:?}", coordinator.tick(now))
            }
        };
        trace.push(format!(
            "{observed} | phase={} round={}",
            coordinator.phase().name(),
            coordinator.round()
        ));
    }
    (trace, coordinator)
}

proptest! {
    /// Totality: no input script — frames in any state, garbage bytes,
    /// round opens, clock jumps — ever panics the coordinator.
    #[test]
    fn transitions_are_total(steps in proptest::collection::vec(arb_step(), 0..60)) {
        let (_, coordinator) = replay(&steps);
        // The machine always rests in a defined state.
        let phase = coordinator.phase();
        prop_assert!(matches!(
            phase,
            Phase::Rendezvous | Phase::Selected | Phase::Training | Phase::RoundClosed
        ), "resting phase {phase:?}");
    }

    /// Determinism: replaying the same script yields the identical trace of
    /// results, effects, phases, rounds, and counters.
    #[test]
    fn transitions_are_deterministic(steps in proptest::collection::vec(arb_step(), 0..60)) {
        let (trace_a, a) = replay(&steps);
        let (trace_b, b) = replay(&steps);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.round(), b.round());
        prop_assert_eq!(a.phase(), b.phase());
    }

    /// Garbage bytes are always a typed rejection, never an accepted frame
    /// of some other shape — unless they happen to be a valid encoding,
    /// which random byte soup of this length cannot be (the CRC gate).
    #[test]
    fn garbage_bytes_never_panic_and_count_as_rejections(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut coordinator = Coordinator::new(config());
        coordinator.open_rendezvous().expect("fresh coordinator");
        let before = coordinator.stats().rejected;
        let result = coordinator.handle_frame(&bytes, 0);
        if result.is_err() {
            prop_assert_eq!(coordinator.stats().rejected, before + 1);
        }
    }

    /// The heartbeat lease boundary is exact for any timeout and beat
    /// schedule: live through `last + timeout - 1`, expired at
    /// `last + timeout`.
    #[test]
    fn heartbeat_expiry_boundary_is_exact(
        timeout in 1u64..50,
        last_beat in 0u64..1_000,
    ) {
        let mut tracker = LivenessTracker::new(timeout);
        tracker.register(7, last_beat);
        prop_assert!(tracker.is_live(7, last_beat + timeout - 1));
        prop_assert!(!tracker.is_live(7, last_beat + timeout));
        prop_assert_eq!(tracker.expire(last_beat + timeout - 1), Vec::<u64>::new());
        prop_assert_eq!(tracker.expire(last_beat + timeout), vec![7]);
    }
}
