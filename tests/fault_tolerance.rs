//! Fault injection and fault-tolerant rounds: determinism, engine
//! agreement, liveness under worker death, quorum semantics, and typed
//! fleet-exhaustion errors.

use std::time::Duration;

use ee_fei::prelude::*;
use proptest::prelude::*;

fn federation(seed: u64) -> (Vec<Dataset>, Dataset) {
    let gen = SyntheticMnist::new(SyntheticMnistConfig {
        pixel_noise_std: 0.3,
        ..Default::default()
    });
    let train = gen.generate(200, 0);
    let test = gen.generate(60, 1);
    let clients = Partition::iid(train.len(), 5, &mut DetRng::new(seed)).apply(&train);
    (clients, test)
}

fn chaotic_spec() -> FaultSpec {
    FaultSpec {
        crash_prob: 0.05,
        restart_rounds: 2,
        straggler_prob: 0.2,
        straggler_factor: 3.0,
        upload_loss_prob: 0.25,
        corrupt_prob: 0.05,
        ..Default::default()
    }
}

fn tolerant() -> ToleranceConfig {
    ToleranceConfig {
        over_select: 1,
        quorum: Some(2),
        deadline_s: Some(8.0),
        ..Default::default()
    }
}

fn faulty_config(k: usize) -> FedAvgConfig {
    FedAvgConfig {
        clients_per_round: k,
        local_epochs: 2,
        sgd: SgdConfig::new(0.05, 0.99, None),
        tolerance: tolerant(),
        ..Default::default()
    }
}

#[test]
fn same_fault_seed_is_bit_identical() {
    let run = || {
        let (clients, test) = federation(31);
        let mut engine = FedAvg::new(faulty_config(3), clients, test)
            .with_faults(FaultInjector::new(chaotic_spec()));
        let history = engine.try_run_until(StopCondition::rounds(8)).unwrap();
        (history, engine.global_model().clone())
    };
    let (history_a, model_a) = run();
    let (history_b, model_b) = run();
    assert_eq!(history_a.records(), history_b.records());
    assert_eq!(model_a, model_b);
    // The schedule actually injected something.
    assert!(
        history_a.records().iter().any(|r| r.faults.any()),
        "no faults fired"
    );
}

#[test]
fn engines_agree_under_faults() {
    let (clients, test) = federation(37);
    let config = faulty_config(3);
    let spec = chaotic_spec();
    let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone())
        .with_faults(FaultInjector::new(spec.clone()));
    let mut threaded =
        ThreadedFedAvg::new(config, clients, test).with_faults(FaultInjector::new(spec));

    for round in 0..8 {
        let a = serial.run_round();
        let b = threaded.run_round();
        assert_eq!(
            a.selected, b.selected,
            "round {round}: different selections"
        );
        assert_eq!(
            a.responded, b.responded,
            "round {round}: different arrivals"
        );
        assert_eq!(a.outcome, b.outcome, "round {round}: different outcomes");
        assert_eq!(
            a.test_eval, b.test_eval,
            "round {round}: different evaluations"
        );
        let mut a_faults = a.faults;
        // Worker losses are the threaded engine's own failure channel; the
        // injected schedule must match exactly otherwise.
        a_faults.worker_losses = b.faults.worker_losses;
        assert_eq!(a_faults, b.faults, "round {round}: different fault stats");
    }
    assert_eq!(serial.global_model(), threaded.global_model());
}

#[test]
fn worker_panic_becomes_dropout_not_hang() {
    let (clients, test) = federation(41);
    let config = FedAvgConfig {
        clients_per_round: 5, // the poisoned worker is always selected
        local_epochs: 1,
        ..Default::default()
    };
    let mut engine =
        ThreadedFedAvg::new(config, clients, test).with_worker_timeout(Duration::from_millis(500));
    engine.inject_worker_panic(2);
    let record = engine.run_round();
    assert!(record.faults.worker_losses >= 1, "{:?}", record.faults);
    assert!(record.responded.len() < record.selected.len());
    assert!(
        record.outcome.committed(),
        "survivors still commit the round"
    );
    // The dead worker keeps degrading to a dropout on later rounds — the
    // send fails fast, so no per-round timeout stall either.
    let record = engine.run_round();
    assert!(record.faults.worker_losses >= 1);
    assert_eq!(engine.rounds_completed(), 2);
}

#[test]
fn a_crash_round_returns_without_waiting_out_the_worker_timeout() {
    // At the default 30 s timeout, a crash that left its own round waiting
    // for the dead server's reply would blow the 5 s budget many times over.
    for iteration in 0..20 {
        let (clients, test) = federation(41);
        let config = FedAvgConfig {
            clients_per_round: 5, // the poisoned server is always selected
            local_epochs: 1,
            ..Default::default()
        };
        let mut engine = ThreadedFedAvg::new(config, clients, test);
        engine.inject_worker_panic(2);
        let start = std::time::Instant::now();
        let record = engine.run_round();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "iteration {iteration}: the crash round took {elapsed:?}"
        );
        assert_eq!(record.faults.worker_losses, 1, "iteration {iteration}");
        let survivors: Vec<usize> = record
            .selected
            .iter()
            .copied()
            .filter(|&c| c != 2)
            .collect();
        assert_eq!(record.responded, survivors, "iteration {iteration}");
    }
}

#[test]
fn quorum_miss_abandons_round_and_preserves_model() {
    let (clients, test) = federation(43);
    let config = FedAvgConfig {
        clients_per_round: 4,
        local_epochs: 1,
        tolerance: ToleranceConfig {
            quorum: Some(4),
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let spec = FaultSpec {
        upload_loss_prob: 0.6,
        ..Default::default()
    };
    let mut engine = FedAvg::new(config, clients, test).with_faults(FaultInjector::new(spec));

    let mut saw_abandoned = false;
    for _ in 0..10 {
        let before = engine.global_model().clone();
        let record = engine.run_round();
        if record.outcome == RoundOutcome::Abandoned {
            saw_abandoned = true;
            assert_eq!(
                &before,
                engine.global_model(),
                "abandoned round must not move the model"
            );
            assert!(record.responded.len() < 4);
        }
    }
    assert!(
        saw_abandoned,
        "60% loss with single-attempt uploads must miss a 4-quorum"
    );
}

#[test]
fn fleet_exhaustion_is_a_typed_error() {
    let (clients, test) = federation(47);
    let config = FedAvgConfig {
        clients_per_round: 2,
        local_epochs: 1,
        tolerance: ToleranceConfig {
            quorum: Some(2),
            ..Default::default()
        },
        ..Default::default()
    };
    let spec = FaultSpec {
        crash_prob: 0.9,
        restart_rounds: 0,
        ..Default::default()
    };
    let mut engine = FedAvg::new(config, clients, test).with_faults(FaultInjector::new(spec));

    let mut exhausted = None;
    for _ in 0..10 {
        match engine.try_run_round() {
            Ok(_) => {}
            Err(err) => {
                exhausted = Some(err);
                break;
            }
        }
    }
    let rounds_before = engine.rounds_completed();
    match exhausted.expect("90% permanent crashes must exhaust a 5-device fleet") {
        FlError::FleetBelowQuorum {
            alive, required, ..
        } => {
            assert!(alive < required);
            assert_eq!(required, 2);
        }
        other => panic!("expected FleetBelowQuorum, got {other}"),
    }
    // The failed round did not advance the counter, and the error repeats.
    assert!(engine.try_run_round().is_err());
    assert_eq!(engine.rounds_completed(), rounds_before);
}

#[test]
fn unreachable_target_terminates_and_is_recorded() {
    let (clients, test) = federation(53);
    let config = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 1,
        ..Default::default()
    };
    let mut engine = FedAvg::new(config, clients, test);
    let history = engine.run_until(StopCondition::accuracy(0.999, 4));
    assert_eq!(history.len(), 4, "must terminate at max_rounds");
    assert_eq!(history.missed_target(), Some(0.999));
    // A reachable target leaves no missed-target marker.
    let (clients, test) = federation(53);
    let config = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 1,
        ..Default::default()
    };
    let mut engine = FedAvg::new(config, clients, test);
    let history = engine.run_until(StopCondition::accuracy(0.05, 30));
    assert_eq!(history.missed_target(), None);
}

#[test]
fn lossy_uploads_account_retransmitted_bytes() {
    let (clients, test) = federation(59);
    let config = FedAvgConfig {
        clients_per_round: 4,
        local_epochs: 1,
        ..Default::default()
    };
    let spec = FaultSpec {
        upload_loss_prob: 0.4,
        ..Default::default()
    };
    let mut engine =
        ThreadedFedAvg::new(config, clients, test).with_faults(FaultInjector::new(spec));
    let history = engine.try_run_until(StopCondition::rounds(6)).unwrap();
    let retries: usize = history
        .records()
        .iter()
        .map(|r| r.faults.upload_retries)
        .sum();
    assert!(
        retries > 0,
        "40% loss over 24 uploads must retry at least once"
    );
    let stats = engine.transport_stats();
    assert!(
        stats.bytes_retransmitted > 0,
        "retries must be charged to the transport: {stats:?}"
    );
    assert!(stats.bytes_retransmitted < stats.bytes_up);
}

proptest! {
    #[test]
    fn round_invariants_hold_under_arbitrary_faults(
        crash in 0.0f64..0.4,
        loss in 0.0f64..0.6,
        straggle in 0.0f64..0.5,
        quorum in 1usize..4,
        over_select in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
        let train = gen.generate(60, 0);
        let test = gen.generate(20, 1);
        let clients =
            Partition::iid(train.len(), 4, &mut DetRng::new(seed)).apply(&train);
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            eval_every: 4,
            tolerance: ToleranceConfig {
                over_select,
                quorum: Some(quorum),
                deadline_s: Some(6.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let spec = FaultSpec {
            crash_prob: crash,
            restart_rounds: 1,
            straggler_prob: straggle,
            upload_loss_prob: loss,
            seed,
            ..Default::default()
        };
        let mut engine =
            FedAvg::new(config, clients, test).with_faults(FaultInjector::new(spec));
        for _ in 0..3 {
            let before = engine.global_model().clone();
            match engine.try_run_round() {
                Ok(record) => {
                    // Arrivals are a subset of the selection, capped at K.
                    prop_assert!(record.responded.len() <= 2);
                    prop_assert!(record
                        .responded
                        .iter()
                        .all(|c| record.selected.contains(c)));
                    // Selection respects over-selection and the fleet.
                    prop_assert!(record.selected.len() <= (2 + over_select).min(4));
                    // Outcome is consistent with the quorum.
                    let expected = RoundOutcome::of(
                        record.responded.len(),
                        record.selected.len(),
                        quorum,
                    );
                    prop_assert_eq!(record.outcome, expected);
                    if record.outcome == RoundOutcome::Abandoned {
                        prop_assert!(record.responded.len() < quorum);
                        prop_assert_eq!(&before, engine.global_model());
                    } else {
                        prop_assert!(record.responded.len() >= quorum);
                    }
                }
                Err(FlError::FleetBelowQuorum { alive, required, .. }) => {
                    // Typed exhaustion: the quorum really is unreachable.
                    prop_assert!(alive < required);
                    break;
                }
                Err(other) => panic!("aggregation cannot fail here: {other}"),
            }
        }
    }
}
