//! The two FedAvg engines — in-process and one-thread-per-server with
//! serialized transport — must be observationally identical.

use ee_fei::prelude::*;

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

#[test]
fn threaded_and_serial_runs_are_bit_identical() {
    let (clients, test) = federation(11);
    let config = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 2,
        sgd: SgdConfig::new(0.05, 0.99, None),
        ..Default::default()
    };
    let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
    let mut threaded = ThreadedFedAvg::new(config, clients, test);

    for round in 0..6 {
        let a = serial.run_round();
        let b = threaded.run_round();
        assert_eq!(
            a.selected, b.selected,
            "round {round}: different selections"
        );
        assert_eq!(
            a.test_eval, b.test_eval,
            "round {round}: different evaluations"
        );
        assert_eq!(
            a.global_train_loss, b.global_train_loss,
            "round {round}: different train losses"
        );
    }
    assert_eq!(serial.global_model(), threaded.global_model());
}

#[test]
fn engines_agree_under_weighted_aggregation_and_uneven_data() {
    // Uneven split exercises the sample-count weighting across the wire.
    let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
    let train = gen.generate(300, 0);
    let test = gen.generate(60, 1);
    let (head, rest) = train.split_at(40);
    let (mid, tail) = rest.split_at(100);
    let clients = vec![head, mid, tail];

    let config = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 3,
        aggregation: AggregationRule::WeightedBySamples,
        ..Default::default()
    };
    let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
    let mut threaded = ThreadedFedAvg::new(config, clients, test);
    for _ in 0..4 {
        serial.run_round();
        threaded.run_round();
    }
    assert_eq!(serial.global_model(), threaded.global_model());
}

#[test]
fn engines_agree_under_dropout() {
    let (clients, test) = federation(17);
    let config = FedAvgConfig {
        clients_per_round: 4,
        local_epochs: 2,
        dropout_prob: 0.3,
        ..Default::default()
    };
    let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
    let mut threaded = ThreadedFedAvg::new(config, clients, test);
    let mut saw_drop = false;
    for _ in 0..8 {
        let a = serial.run_round();
        let b = threaded.run_round();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.responded, b.responded);
        assert_eq!(a.test_eval, b.test_eval);
        saw_drop |= a.responded.len() < a.selected.len();
    }
    assert!(saw_drop, "30% dropout over 32 draws should drop someone");
    assert_eq!(serial.global_model(), threaded.global_model());
}

#[test]
fn engines_agree_when_training_an_mlp() {
    // The whole pipeline is generic over the model: run FedAvg on a small
    // MLP through both engines and require bit-identical results.
    let (clients, test) = federation(23);
    let config = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 2,
        sgd: SgdConfig::new(0.1, 1.0, None),
        ..Default::default()
    };
    let template = Mlp::new(clients[0].dim(), 16, clients[0].num_classes(), 42);
    let mut serial = FedAvg::with_model(
        config.clone(),
        clients.clone(),
        test.clone(),
        template.clone(),
    );
    let mut threaded = ThreadedFedAvg::with_model(config, clients, test, template);
    let mut last_eval = None;
    for _ in 0..5 {
        let a = serial.run_round();
        let b = threaded.run_round();
        assert_eq!(a.test_eval, b.test_eval);
        last_eval = a.test_eval;
    }
    assert_eq!(
        serial.global_model().to_flat(),
        threaded.global_model().to_flat()
    );
    // And it actually learns something beyond the 10-class prior.
    assert!(last_eval.expect("evaluated").accuracy > 0.3);
}

#[test]
fn serial_threaded_and_chunked_parallel_records_are_identical() {
    // Three executions of the same campaign — in-process serial gradients,
    // thread-per-server transport, and in-process chunked-parallel
    // gradients — must produce *identical* RoundRecords: the fixed-shape
    // pairwise reduction makes the intra-client parallel gradient
    // bit-identical to its serial evaluation, and the transport layer adds
    // nothing numeric.
    let (clients, test) = federation(29);
    let serial_cfg = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 2,
        sgd: SgdConfig::new(0.05, 0.99, None).with_grad_reduction(GradReduction::FusedSerial),
        ..Default::default()
    };
    let parallel_cfg = FedAvgConfig {
        sgd: SgdConfig::new(0.05, 0.99, None)
            .with_grad_reduction(GradReduction::FusedParallel { threads: 4 }),
        ..serial_cfg.clone()
    };

    // One more input: mini-batch SGD. The update frame carries no step
    // count, so the threaded coordinator derives it — 40 samples in batches
    // of 16 is three steps per epoch, six per round, on both engines.
    let batched_cfg = FedAvgConfig {
        sgd: SgdConfig::new(0.05, 0.99, Some(16)),
        ..serial_cfg.clone()
    };
    let mut batched_serial = FedAvg::new(batched_cfg.clone(), clients.clone(), test.clone());
    let mut batched_threaded = ThreadedFedAvg::new(batched_cfg, clients.clone(), test.clone());
    for round in 0..3 {
        let a = batched_serial.run_round();
        let b = batched_threaded.run_round();
        assert!(a.local_stats.iter().all(|s| s.gradient_steps == 6));
        assert_eq!(a, b, "round {round}: mini-batch records diverge");
    }

    let mut serial = FedAvg::new(serial_cfg.clone(), clients.clone(), test.clone());
    let mut threaded = ThreadedFedAvg::new(serial_cfg, clients.clone(), test.clone());
    let mut parallel = FedAvg::new(parallel_cfg, clients, test);

    for round in 0..5 {
        let a = serial.run_round();
        let b = threaded.run_round();
        let c = parallel.run_round();
        assert_eq!(a, b, "round {round}: threaded record diverges from serial");
        assert_eq!(a, c, "round {round}: chunked-parallel record diverges");
    }
    assert_eq!(serial.global_model(), threaded.global_model());
    assert_eq!(serial.global_model(), parallel.global_model());
}

#[test]
fn chunked_parallel_agrees_across_thread_counts() {
    // The reduction shape depends only on batch size, never thread count:
    // any worker count must land on the same bits.
    let (clients, test) = federation(31);
    let engine_with = |threads: usize| {
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 3,
            sgd: SgdConfig::new(0.08, 1.0, None)
                .with_grad_reduction(GradReduction::FusedParallel { threads }),
            ..Default::default()
        };
        let mut engine = FedAvg::new(config, clients.clone(), test.clone());
        for _ in 0..3 {
            engine.run_round();
        }
        engine.global_model().clone()
    };
    let reference = engine_with(1);
    for threads in [2, 3, 8, 64] {
        assert_eq!(
            engine_with(threads),
            reference,
            "{threads} worker threads changed the trained bits"
        );
    }
}

#[test]
fn pooled_round_records_identical_for_any_pool_size() {
    // FusedParallel now runs on a persistent worker pool owned by the
    // engine and reused across every client and round. The pool deals
    // chunk bands by the same static formula for every size, so the full
    // RoundRecord stream — selections, evaluations, losses, fault stats —
    // must be identical from one worker (inline fallback) through eight,
    // and identical to the serial reduction.
    let (clients, test) = federation(37);
    let records_with = |reduction: GradReduction| {
        let config = FedAvgConfig {
            clients_per_round: 3,
            local_epochs: 2,
            sgd: SgdConfig::new(0.05, 0.99, None).with_grad_reduction(reduction),
            ..Default::default()
        };
        let mut engine = FedAvg::new(config, clients.clone(), test.clone());
        (0..3).map(|_| engine.run_round()).collect::<Vec<_>>()
    };
    let reference = records_with(GradReduction::FusedSerial);
    for size in 1..=8 {
        assert_eq!(
            records_with(GradReduction::FusedParallel { threads: size }),
            reference,
            "pool size {size} changed a RoundRecord"
        );
    }
}

#[test]
fn transport_volume_matches_model_size() {
    let (clients, test) = federation(13);
    let config = FedAvgConfig {
        clients_per_round: 2,
        local_epochs: 1,
        ..Default::default()
    };
    let mut threaded = ThreadedFedAvg::new(config, clients, test);
    let rounds = 5;
    for _ in 0..rounds {
        threaded.run_round();
    }
    let stats = threaded.transport_stats();
    assert_eq!(stats.jobs, 2 * rounds as u64);
    let model_bytes = threaded.global_model().payload_bytes() as u64;
    // Down: model + 8-byte round header + 11-byte frame; up adds the
    // 24-byte update header. Bound the overhead rather than pin it.
    assert!(stats.bytes_down >= stats.jobs * model_bytes);
    assert!(stats.bytes_down <= stats.jobs * (model_bytes + 64));
    assert!(stats.bytes_up >= stats.jobs * model_bytes);
    assert!(stats.bytes_up <= stats.jobs * (model_bytes + 64));
}
