//! Coordinator crash-recovery, end to end through the facade: the round
//! journal replays idempotently under arbitrary record sequences and torn
//! tails (property-based), a cluster survives a coordinator kill at every
//! tick of a round's life — covering all six coordinator phases — without
//! losing liveness, safety, or recovery guarantees, and a training-engine
//! checkpoint taken from one FedAvg runtime resumes the other runtime
//! bit-identically.

use ee_fei::prelude::*;
use ee_fei::proto::{JournalRecord, JournalState, RoundJournal};
use proptest::prelude::*;

// --- journal replay idempotence -----------------------------------------

fn arb_reason() -> impl Strategy<Value = AbortReason> {
    prop_oneof![
        Just(AbortReason::QuorumMiss),
        Just(AbortReason::FleetCollapse),
        Just(AbortReason::Cancelled),
        Just(AbortReason::CoordinatorCrash),
    ]
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    let tick = 0u64..1_000;
    prop_oneof![
        (0u64..4, tick.clone())
            .prop_map(|(epoch, tick)| JournalRecord::EpochStarted { epoch, tick }),
        (0u64..8, tick.clone())
            .prop_map(|(client, tick)| JournalRecord::ClientJoined { client, tick }),
        (0u64..8, tick.clone())
            .prop_map(|(client, tick)| JournalRecord::ClientExpired { client, tick }),
        (
            0u64..6,
            0u64..2_000,
            tick.clone(),
            proptest::collection::vec(0u64..8, 0..5)
        )
            .prop_map(|(round, deadline_tick, tick, selected)| {
                JournalRecord::RoundOpened {
                    round,
                    deadline_tick,
                    tick,
                    selected,
                }
            }),
        (
            0u64..6,
            0u64..8,
            1u32..64,
            tick.clone(),
            proptest::collection::vec(any::<u8>(), 0..24)
        )
            .prop_map(|(round, client, samples, tick, update)| {
                JournalRecord::UpdateAccepted {
                    round,
                    client,
                    samples,
                    tick,
                    update,
                }
            }),
        (
            0u64..6,
            tick.clone(),
            proptest::collection::vec(0u64..8, 0..5)
        )
            .prop_map(|(round, tick, accepted)| JournalRecord::RoundCommitted {
                round,
                tick,
                accepted,
            }),
        (0u64..6, arb_reason(), tick).prop_map(|(round, reason, tick)| {
            JournalRecord::RoundAborted {
                round,
                reason,
                tick,
            }
        }),
    ]
}

fn journal_of(records: &[JournalRecord]) -> RoundJournal {
    let mut journal = RoundJournal::new();
    for record in records {
        journal.append(record);
    }
    journal
}

proptest! {
    /// Any record sequence replays back exactly, in order, with no torn
    /// tail — the log's append/decode pair is lossless.
    #[test]
    fn journal_replay_is_lossless(records in proptest::collection::vec(arb_record(), 0..40)) {
        let journal = journal_of(&records);
        let replay = journal.replay().expect("clean log replays");
        prop_assert_eq!(replay.records, records);
        prop_assert_eq!(replay.torn_bytes, 0usize);
    }

    /// Folding a log in which every record was delivered twice (an
    /// at-least-once log device) recovers the same coordinator state as
    /// the original — replay is idempotent per record.
    #[test]
    fn journal_fold_is_idempotent(records in proptest::collection::vec(arb_record(), 0..40)) {
        let mut duplicated = Vec::with_capacity(records.len() * 2);
        for record in &records {
            duplicated.push(record.clone());
            duplicated.push(record.clone());
        }
        prop_assert_eq!(
            JournalState::from_records(&records),
            JournalState::from_records(&duplicated)
        );
    }

    /// Cutting the log at any byte — a crash mid-append — leaves a replayable
    /// prefix: every record fully written before the cut survives, and the
    /// partial trailing frame is reported as torn, never as corruption.
    #[test]
    fn truncated_journal_replays_a_prefix(
        records in proptest::collection::vec(arb_record(), 1..30),
        cut_seed in any::<u64>(),
    ) {
        let journal = journal_of(&records);
        let bytes = journal.bytes();
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        let torn = RoundJournal::from_bytes(bytes[..cut].to_vec());
        let replay = torn.replay().expect("torn tail is not corruption");
        let n = replay.records.len();
        prop_assert!(n <= records.len());
        prop_assert_eq!(replay.records.as_slice(), &records[..n]);
        // The recovered state of the prefix matches folding those records
        // directly — truncation never invents or reorders state.
        prop_assert_eq!(
            JournalState::from_records(&replay.records),
            JournalState::from_records(&records[..n])
        );
    }
}

// --- crash-at-every-state cluster sweep ---------------------------------

/// A quiet 4-participant cluster whose staggered training times hold
/// rounds open across many ticks, so a crash sweep over `0..=24` passes
/// through every coordinator phase — Idle, Rendezvous, Selected, Training,
/// and RoundClosed — at least once.
fn staggered_config(crashes: Vec<CoordinatorCrash>) -> ClusterConfig {
    ClusterConfig {
        coordinator: CoordinatorConfig {
            k: 2,
            over_select: 1,
            quorum: 2,
            epochs: 5,
            heartbeat_interval: 5,
            heartbeat_timeout: 20,
            round_deadline: 40,
        },
        participants: (0..4)
            .map(|c| ParticipantConfig::new(c, 2 + 4 * c))
            .collect(),
        uplink: ChaosConfig::quiet(1),
        downlink: ChaosConfig::quiet(2),
        target_rounds: 5,
        max_ticks: 10_000,
        global_payload: vec![0xAB; 32],
        crashes,
    }
}

#[test]
fn crash_at_every_tick_of_a_rounds_life_stays_live_and_safe() {
    for at_tick in 0..=24 {
        let crash = CoordinatorCrash {
            at_tick,
            down_ticks: 3,
        };
        let report = Cluster::new(staggered_config(vec![crash])).run();
        assert_eq!(
            report.coordinator_crashes, 1,
            "crash at {at_tick} never fired"
        );
        assert!(
            report.liveness_ok(),
            "crash at {at_tick}: stuck={} closed={} of 5",
            report.stuck,
            report.round_log.len()
        );
        assert!(
            report.safety_ok(),
            "crash at {at_tick}: {} expired-client aggregations",
            report.safety_violations
        );
        assert!(
            report.recovery_ok(),
            "crash at {at_tick}: {} recovery-budget violations, {} double aggregations",
            report.recovery_violations,
            report.double_aggregations
        );
        assert_eq!(report.committed + report.aborted, 5, "crash at {at_tick}");
    }
}

#[test]
fn crash_runs_replay_bit_identically_through_the_facade() {
    for at_tick in [0u64, 7, 13, 21] {
        let crash = CoordinatorCrash {
            at_tick,
            down_ticks: 4,
        };
        let a = Cluster::new(staggered_config(vec![crash])).run();
        let b = Cluster::new(staggered_config(vec![crash])).run();
        assert_eq!(a, b, "crash at {at_tick}: replay diverged");
    }
}

// --- engine checkpoint/restore across runtimes --------------------------

fn federation(seed: u64) -> (Vec<Dataset>, Dataset) {
    let gen = SyntheticMnist::new(SyntheticMnistConfig {
        pixel_noise_std: 0.3,
        ..Default::default()
    });
    let train = gen.generate(240, 0);
    let test = gen.generate(80, 1);
    let clients = Partition::iid(train.len(), 6, &mut DetRng::new(seed)).apply(&train);
    (clients, test)
}

fn resume_config() -> FedAvgConfig {
    FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 2,
        dropout_prob: 0.2,
        sgd: SgdConfig::new(0.05, 0.99, None),
        ..Default::default()
    }
}

#[test]
fn serial_checkpoint_resumes_the_threaded_engine_bit_identically() {
    let (clients, test) = federation(41);
    let config = resume_config();
    let mut reference = FedAvg::new(config.clone(), clients.clone(), test.clone());
    let mut crashed = FedAvg::new(config.clone(), clients.clone(), test.clone());
    for _ in 0..3 {
        reference.run_round();
        crashed.run_round();
    }
    // The driver loses the serial engine in a crash, keeps its checkpoint,
    // and restarts on the thread-per-server runtime instead.
    let checkpoint = crashed.checkpoint();
    assert_eq!(checkpoint.round(), 3);
    let mut resumed = ThreadedFedAvg::new(config, clients, test);
    resumed.restore(checkpoint);
    for round in 3..6 {
        assert_eq!(
            reference.run_round(),
            resumed.run_round(),
            "round {round} diverged after the serial -> threaded resume"
        );
    }
    assert_eq!(reference.global_model(), resumed.global_model());

    // Live re-planning works on the resumed threaded engine as it does on
    // the serial one: same fleet view, same rounds after a new (K, E).
    assert_eq!(resumed.live_fleet(), reference.live_fleet());
    assert_eq!(resumed.live_fleet().len(), resumed.num_clients());
    reference.set_participation(2, 3);
    resumed.set_participation(2, 3);
    assert_eq!(
        reference.run_round(),
        resumed.run_round(),
        "diverged after re-planning (K, E) on both engines"
    );
}

#[test]
fn threaded_checkpoint_resumes_the_serial_engine_bit_identically() {
    let (clients, test) = federation(43);
    let config = resume_config();
    let mut reference = ThreadedFedAvg::new(config.clone(), clients.clone(), test.clone());
    let mut crashed = ThreadedFedAvg::new(config.clone(), clients.clone(), test.clone());
    for _ in 0..3 {
        reference.run_round();
        crashed.run_round();
    }
    let checkpoint = crashed.checkpoint();
    assert_eq!(checkpoint.round(), 3);
    let mut resumed = FedAvg::new(config, clients, test);
    resumed.restore(checkpoint);
    for round in 3..6 {
        assert_eq!(
            reference.run_round(),
            resumed.run_round(),
            "round {round} diverged after the threaded -> serial resume"
        );
    }
    assert_eq!(reference.global_model(), resumed.global_model());
}
