//! Threaded FedAvg deployment: edge servers served by a pool of worker
//! threads with serialized model transport.
//!
//! Runs the same federation twice — once in-process, once with every edge
//! server's job on a worker pool exchanging byte frames over channels — and shows
//! they produce bit-identical models while the threaded run reports real
//! transport volumes.
//!
//! Run: `cargo run --release --example threaded_deployment`

use ee_fei::prelude::*;

fn main() {
    // A 6-server federation on a small synthetic workload.
    let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
    let train = gen.generate(1_200, 0);
    let test = gen.generate(400, 1);
    let clients = Partition::iid(train.len(), 6, &mut DetRng::new(42)).apply(&train);

    let config = FedAvgConfig {
        clients_per_round: 3,
        local_epochs: 5,
        sgd: SgdConfig::new(0.05, 0.999, None),
        ..Default::default()
    };

    println!("running 10 rounds in-process…");
    let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
    let serial_history = serial.run_until(StopCondition::rounds(10));

    println!("running 10 rounds on a worker pool sized to the cores…");
    let mut threaded = ThreadedFedAvg::new(config, clients, test);
    let threaded_history = threaded.run_until(StopCondition::rounds(10));

    // Same selection, same training, same aggregation -> same model.
    assert_eq!(serial.global_model(), threaded.global_model());
    println!("models are bit-identical across engines ✓");

    let eval = serial_history
        .last()
        .and_then(|r| r.test_eval)
        .expect("evaluated");
    println!(
        "after 10 rounds: test accuracy {:.3}, loss {:.3}",
        eval.accuracy, eval.loss
    );
    assert_eq!(
        serial_history.accuracy_curve(),
        threaded_history.accuracy_curve()
    );

    let stats = threaded.transport_stats();
    println!(
        "transport: {} training jobs, {:.1} kB downlink, {:.1} kB uplink",
        stats.jobs,
        stats.bytes_down as f64 / 1e3,
        stats.bytes_up as f64 / 1e3
    );
    let payload = serial.global_model().payload_bytes();
    println!(
        "(each of the {} jobs moved one {}-byte model in each direction, plus framing)",
        stats.jobs, payload
    );
}
