//! Miniature versions of the paper's qualitative findings — the properties
//! the full benches reproduce at scale, pinned here so regressions surface
//! in `cargo test`.

use ee_fei::prelude::*;

fn experiment() -> FlExperiment {
    FlExperiment::prepare(FlExperimentConfig {
        num_devices: 6,
        scale: 0.008,
        test_scale: 0.05,
        data: SyntheticMnistConfig {
            pixel_noise_std: 0.4,
            label_flip_prob: 0.05,
            ..Default::default()
        },
        sgd: SgdConfig::new(0.02, 0.999, None),
        eval_every: 1,
        partition: PartitionStrategy::Iid,
        seed: 3,
        transport: WireConfig::default(),
    })
}

const TARGET: f64 = 0.88;

#[test]
fn more_local_epochs_need_fewer_rounds() {
    // Fig. 4(c)/(d), left side of the optimum: E up, T down.
    let exp = experiment();
    let (_, t1) = exp.run_to_accuracy(6, 1, TARGET, 300);
    let (_, t8) = exp.run_to_accuracy(6, 8, TARGET, 300);
    let (t1, t8) = (t1.expect("E=1 converges"), t8.expect("E=8 converges"));
    assert!(t8 < t1, "E=8 took {t8} rounds, E=1 took {t1}");
}

#[test]
fn more_clients_never_need_more_rounds() {
    // Fig. 4(a)/(b): K accelerates convergence (here: never hurts).
    let exp = experiment();
    let (_, t_small) = exp.run_to_accuracy(1, 8, TARGET, 300);
    let (_, t_large) = exp.run_to_accuracy(6, 8, TARGET, 300);
    let (t_small, t_large) = (
        t_small.expect("K=1 converges"),
        t_large.expect("K=6 converges"),
    );
    assert!(
        t_large <= t_small,
        "K=6 took {t_large} rounds, K=1 took {t_small}"
    );
}

#[test]
fn energy_versus_e_has_an_interior_optimum() {
    // Fig. 6: energy falls from E=1 then rises again — an optimal E exists.
    let exp = experiment();
    let testbed = Testbed::new(
        TestbedConfig {
            num_devices: 6,
            samples_per_device: 80,
            ..Default::default()
        },
        RaspberryPi::paper_calibrated(),
    );
    let energy_at = |e: usize, cap: usize| -> f64 {
        let (_, t) = exp.run_to_accuracy(1, e, TARGET, cap);
        let t = t.unwrap_or_else(|| panic!("E={e} never reached {TARGET}"));
        testbed.run(1, e, t).total_joules()
    };
    let e1 = energy_at(1, 400);
    let e_mid = energy_at(8, 200);
    let e_big = energy_at(600, 40);
    assert!(e_mid < e1, "E=8 ({e_mid} J) should beat E=1 ({e1} J)");
    assert!(
        e_mid < e_big,
        "E=8 ({e_mid} J) should beat E=600 ({e_big} J)"
    );
}

#[test]
fn k_star_is_one_under_iid_data() {
    // Fig. 5's conclusion: with IID shards, one uploader is energy-optimal.
    let exp = experiment();
    let testbed = Testbed::new(
        TestbedConfig {
            num_devices: 6,
            samples_per_device: 80,
            ..Default::default()
        },
        RaspberryPi::paper_calibrated(),
    );
    let energy_at = |k: usize| -> f64 {
        let (_, t) = exp.run_to_accuracy(k, 8, TARGET, 300);
        let t = t.unwrap_or_else(|| panic!("K={k} never reached {TARGET}"));
        testbed.run(k, 8, t).total_joules()
    };
    let e1 = energy_at(1);
    let e3 = energy_at(3);
    let e6 = energy_at(6);
    assert!(
        e1 <= e3 && e1 <= e6,
        "K=1 ({e1} J) vs K=3 ({e3} J), K=6 ({e6} J)"
    );
}

#[test]
fn table1_shape_holds_on_the_simulated_pi() {
    // Step-(3) duration grows linearly in E and near-linearly in n_k.
    let pi = RaspberryPi::paper_calibrated();
    let mut rng = DetRng::new(9);
    let rows = pi.measure_table1(&mut rng);
    // Within each E block, duration increases with n_k.
    for block in rows.chunks(4) {
        for pair in block.windows(2) {
            assert!(pair[1].seconds > pair[0].seconds);
        }
    }
    // Doubling E (10 -> 20) roughly doubles duration at fixed n_k.
    for i in 0..4 {
        let ratio = rows[i + 4].seconds / rows[i].seconds;
        assert!((1.7..2.3).contains(&ratio), "E-scaling ratio {ratio}");
    }
}

#[test]
fn shorter_runs_are_prefixes_of_longer_ones() {
    // The paper artifacts read every run off one campaign surface that
    // trains each (K, E) once: a shorter request is a prefix of the stored
    // run, a longer one resumes it from a checkpoint. Both are exact only
    // while a run's random streams depend on (K, E) alone, never on its
    // round cap or accuracy target.
    let exp = experiment();
    for (k, e, cap) in [(1, 1, 40), (3, 4, 12), (6, 8, 5)] {
        let long = exp.run_rounds(k, e, 2 * cap);
        let prefix = |rounds: usize| &long.records()[..rounds];

        let (capped, t) = exp.run_to_accuracy(k, e, 0.999, cap);
        assert_eq!((t, capped.missed_target()), (None, Some(0.999)));
        assert_eq!(capped.records(), prefix(cap), "K={k} E={e}: capped");

        // A target the long run first reaches by half the cap.
        let target = long.accuracy_curve()[cap / 2].1;
        let (stopped, t) = exp.run_to_accuracy(k, e, target, 2 * cap);
        let t = t.expect("the long run reaches it");
        assert_eq!(Some(t), long.rounds_to_accuracy(target));
        assert_eq!(stopped.records(), prefix(t), "K={k} E={e}: early stop");

        let mut first = exp.engine(k, e);
        let head = first.run_until(StopCondition::rounds(cap));
        let mut resumed = exp.engine(k, e);
        resumed.restore(first.checkpoint());
        let tail = resumed.run_until(StopCondition::rounds(cap));
        assert_eq!(
            [head.records(), tail.records()].concat(),
            long.records(),
            "K={k} E={e}: resumed from a checkpoint"
        );
    }
}
