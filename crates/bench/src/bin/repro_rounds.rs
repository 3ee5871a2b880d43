//! The per-round export path repro pipelines consume: a small protected
//! federation (LeNet-5, {L2, L5} sheltered in `SecureTrainer`, 3 of 4
//! clients, 5 rounds) printed as JSON — participants, mean loss,
//! protected layers, TEE ledger. `tests/integration_edges.rs` pins the
//! JSON across transports; fleet-scale gates live in `repro_gates`.

use std::sync::Arc;

use gradsec_core::ProtectionPolicy;
use gradsec_data::SyntheticCifar100;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::Federation;
use gradsec_nn::zoo;

fn main() {
    let data = Arc::new(SyntheticCifar100::with_classes(96, 2, 5));
    let policy = ProtectionPolicy::static_layers(&[1, 4]).expect("valid layer set");
    let mut fed = Federation::builder(TrainingPlan {
        rounds: 5,
        clients_per_round: 3,
        batches_per_cycle: 2,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::lenet5_with(2, 13).expect("LeNet-5 builds"))
    .clients(4, data)
    .scheduler(policy)
    .build()
    .expect("federation builds");
    let report = fed.run().expect("federation runs");
    fed.shutdown().expect("clean teardown");
    println!("{}", report.to_json());
}
