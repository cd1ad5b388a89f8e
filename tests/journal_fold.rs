//! The journal owns the coordinator's durable state: what a crashed
//! incarnation held and what `Coordinator::recover` rebuilds from its log
//! are one fold, so an update the live machine voided when its sender's
//! lease lapsed stays void across a crash — even if the sender rejoins
//! before the round closes — and at every prefix of a run the recovered
//! machine sees the round the live one sees.

use ee_fei::net::wire::WIRE_VERSION;
use ee_fei::prelude::*;
use ee_fei::proto::JournalState;

fn config() -> CoordinatorConfig {
    CoordinatorConfig {
        k: 2,
        over_select: 1,
        quorum: 2,
        epochs: 5,
        heartbeat_interval: 5,
        heartbeat_timeout: 20,
        round_deadline: 50,
    }
}

fn join(client: u64) -> ControlFrame {
    ControlFrame::JoinRequest {
        client,
        wire_version: WIRE_VERSION,
    }
}

fn beat(client: u64, tick: u64) -> ControlFrame {
    ControlFrame::Heartbeat { client, tick }
}

fn submit(client: u64, round: u64) -> ControlFrame {
    ControlFrame::UpdateSubmit {
        round,
        client,
        samples: 10,
        update: vec![client as u8; 3],
    }
}

fn committed(effects: &[Effect]) -> Option<Vec<u64>> {
    effects.iter().find_map(|e| match e {
        Effect::RoundCommitted { accepted, .. } => Some(accepted.clone()),
        _ => None,
    })
}

fn buffered(c: &Coordinator) -> Vec<u64> {
    c.update_payloads().keys().copied().collect()
}

/// The divergence this file exists for: client 2 submits, lapses (the live
/// machine discards its update), rejoins, and then the coordinator crashes.
#[test]
fn an_update_voided_by_expiry_is_not_resurrected_by_recovery() {
    let mut live = Coordinator::new(config());
    live.open_rendezvous().expect("idle");
    for client in 0..3 {
        live.handle_control(join(client), 0).expect("join");
    }
    live.start_round(0).expect("quorum of 3");
    live.handle_control(submit(2, 0), 5)
        .expect("in-time update");
    for tick in [10, 19] {
        for client in [0, 1] {
            live.handle_control(beat(client, tick), tick).expect("beat");
        }
    }
    // Client 2 (last heard at 0, timeout 20) expires here; its update goes.
    assert!(live.tick(20).is_empty());
    assert_eq!(buffered(&live), Vec::<u64>::new());
    live.handle_control(join(2), 25).expect("rejoin");
    for client in [0, 1] {
        live.handle_control(beat(client, 29), 29).expect("beat");
    }
    live.handle_control(submit(0, 0), 30).expect("update 0");

    let (mut recovered, _) =
        Coordinator::recover(config(), live.journal().bytes(), 31).expect("clean log");
    assert_eq!(recovered.stats().resumed_rounds, 1);
    assert_eq!(buffered(&live), vec![0]);
    assert_eq!(buffered(&recovered), vec![0], "expiry voided client 2");

    // Client 1 delivers: client 2 still owes an update on both machines,
    // so neither closes early — and at the deadline both commit [0, 1].
    for c in [&mut live, &mut recovered] {
        let effects = c.handle_control(submit(1, 0), 32).expect("update 1");
        assert_eq!(committed(&effects), None);
        for client in [0, 1] {
            c.handle_control(beat(client, 45), 45).expect("beat");
        }
        assert_eq!(committed(&c.tick(50)), Some(vec![0, 1]));
        assert_eq!(buffered(c), vec![0, 1], "the committed payload set");
    }
}

/// Fixed-seed twin of fei-proto's `recover_equals_live_at_every_prefix`
/// property: a long random interleaving of joins, heartbeats, submits,
/// rejoins, round opens and clock jumps (leases lapse and clients rejoin
/// mid-round); after every step the journal's own fold equals a fold of
/// its replayed records, and a recovery that resumes sees the live round.
#[test]
fn recover_equals_live_at_every_prefix_of_a_seeded_run() {
    let mut rng = DetRng::new(0x24_F01D);
    let mut live = Coordinator::new(config());
    live.open_rendezvous().expect("idle");
    let (mut now, mut resumed, mut voided) = (0u64, 0u32, 0u32);
    for _ in 0..600 {
        let client = rng.next_below(4);
        let before = live.update_payloads().len();
        let mut ticked = false;
        // Rejections are part of the walk; only the state matters here.
        let _ = match rng.next_below(12) {
            0..=1 => live.handle_control(join(client), now),
            2..=4 => live.handle_control(beat(client, now), now),
            5..=6 => live.handle_control(submit(client, live.round()), now),
            // A beat the coordinator answers `UnknownClient` (its lease
            // lapsed) is nudged with `Rejoin`, and the device joins again.
            7 => match live.handle_control(beat(client, now), now) {
                Err(ProtoError::UnknownClient { .. }) => live.handle_control(join(client), now),
                other => other,
            },
            8 => live.start_round(now),
            _ => {
                now += 1 + rng.next_below(9);
                let open_before = live.journal().state().open_round.is_some();
                let effects = live.tick(now);
                ticked = open_before && live.journal().state().open_round.is_some();
                Ok(effects)
            }
        };
        if ticked && live.update_payloads().len() < before {
            voided += 1;
        }

        let journal = live.journal();
        let replay = journal.replay().expect("clean log");
        assert_eq!(
            &JournalState::from_records(&replay.records),
            journal.state()
        );

        let (recovered, _) = Coordinator::recover(config(), journal.bytes(), now).expect("clean");
        if recovered.stats().resumed_rounds == 1 {
            resumed += 1;
            assert_eq!(recovered.round(), live.round());
            assert_eq!(recovered.update_payloads(), live.update_payloads());
            let (theirs, ours) = (recovered.journal().state(), journal.state());
            assert_eq!(theirs.open_round, ours.open_round);
            assert_eq!(theirs.roster, ours.roster);
        }
    }
    assert!(
        resumed > 50,
        "the walk must spend time mid-round: {resumed}"
    );
    assert!(voided > 0, "the walk must void a buffered update mid-round");
}
