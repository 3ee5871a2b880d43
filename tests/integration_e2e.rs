//! End-to-end integration: federation + secure trainer + protection
//! schedule, spanning every crate in the workspace.

use std::sync::Arc;

use gradsec::core::trainer::SecureTrainer;
use gradsec::core::window::MovingWindow;
use gradsec::core::ProtectionPolicy;
use gradsec::data::{batch_of, SyntheticCifar100};
use gradsec::fl::client::DeviceProfile;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::runner::Federation;
use gradsec::nn::gradient::GradientSnapshot;
use gradsec::nn::zoo;

fn plan(rounds: u64) -> TrainingPlan {
    TrainingPlan {
        rounds,
        clients_per_round: 2,
        batches_per_cycle: 2,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 3,
    }
}

#[test]
fn static_protected_federation_trains_and_reports() {
    let data = Arc::new(SyntheticCifar100::with_classes(96, 3, 5));
    let policy = ProtectionPolicy::static_layers(&[1, 4]).unwrap();
    let mut fed = Federation::builder(plan(3))
        .model(|| zoo::lenet5_with(3, 9).expect("builds"))
        .clients(3, data.clone())
        .trainer(|_| Box::new(SecureTrainer::new()))
        .scheduler(policy)
        .build()
        .unwrap();
    let report = fed.run().unwrap();
    assert_eq!(report.rounds_completed, 3);
    for r in &report.rounds {
        assert_eq!(r.protected_layers, vec![1, 4]);
    }
    // Participating clients charged enclave time and memory — the
    // accounting now travels on the wire with every upload and lands in
    // the round ledger.
    let ledger = &report.rounds.last().expect("rounds ran").ledger;
    let entry = ledger.entries().first().expect("at least one participant");
    assert!(entry.time.kernel_s > 0.0, "kernel time charged");
    assert!(entry.time.alloc_s > 0.0, "allocation time charged");
    // L2 + L5 of the 3-class LeNet at batch 8: exactly 219,576 bytes
    // (2 params-copies + activations, see the core memory model).
    assert_eq!(entry.tee_peak_bytes, 219_576);
}

#[test]
fn dynamic_federation_moves_the_window() {
    let data = Arc::new(SyntheticCifar100::with_classes(96, 3, 5));
    let window = MovingWindow::new(2, 5, vec![0.25, 0.25, 0.25, 0.25], 17).unwrap();
    let policy = ProtectionPolicy::dynamic(window);
    let mut fed = Federation::builder(plan(6))
        .model(|| zoo::lenet5_with(3, 9).expect("builds"))
        .clients(2, data)
        .trainer(|_| Box::new(SecureTrainer::new()))
        .scheduler(policy)
        .build()
        .unwrap();
    let report = fed.run().unwrap();
    let sets: Vec<&Vec<usize>> = report.rounds.iter().map(|r| &r.protected_layers).collect();
    assert!(sets.iter().all(|s| s.len() == 2));
    assert!(
        sets.windows(2).any(|w| w[0] != w[1]),
        "the window should move across 6 rounds: {sets:?}"
    );
}

#[test]
fn mixed_fleet_trains_only_attested_tee_clients() {
    let data = Arc::new(SyntheticCifar100::with_classes(64, 2, 5));
    let mut fed = Federation::builder(plan(2))
        .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).expect("builds"))
        .devices(
            vec![
                DeviceProfile::trustzone(0),
                DeviceProfile::legacy(1),
                DeviceProfile::compromised(2),
                DeviceProfile::trustzone(3),
            ],
            data,
        )
        .build()
        .unwrap();
    let report = fed.run().unwrap();
    for r in &report.rounds {
        assert!(r.participants.iter().all(|&i| i == 0 || i == 3));
    }
    // The screened-out devices never reach the ledger either.
    for r in &report.rounds {
        assert!(r
            .ledger
            .entries()
            .iter()
            .all(|e| e.client_id == 0 || e.client_id == 3));
    }
}

#[test]
fn federated_model_learns_under_protection() {
    // Protection changes *where* computation runs, never its math:
    // the protected federation must learn exactly as well.
    let data = Arc::new(SyntheticCifar100::with_classes(120, 2, 5));
    let policy = ProtectionPolicy::static_layers(&[0, 4]).unwrap();
    let mut fed = Federation::builder(TrainingPlan {
        rounds: 8,
        clients_per_round: 3,
        batches_per_cycle: 3,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 5,
    })
    .model(|| zoo::lenet5_with(2, 13).expect("builds"))
    .clients(3, data.clone())
    .trainer(|_| Box::new(SecureTrainer::new()))
    .scheduler(policy)
    .build()
    .unwrap();
    fed.run().unwrap();
    let mut model = zoo::lenet5_with(2, 13).unwrap();
    model.set_weights(fed.server().global()).unwrap();
    let idx: Vec<usize> = (0..120).collect();
    let (x, y) = batch_of(data.as_ref(), &idx);
    let acc = model.accuracy(&x, &y).unwrap();
    assert!(acc > 0.7, "protected federation accuracy only {acc}");
}

#[test]
fn history_supports_flaw1_gradient_recovery() {
    // The DPIA observable: two consecutive globals, recorded by whoever
    // observes them (the server keeps none), diff back to the round's
    // aggregated gradients (paper eq. 2 applied to the global model).
    let data = Arc::new(SyntheticCifar100::with_classes(64, 2, 5));
    let mut fed = Federation::builder(plan(2))
        .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).expect("builds"))
        .clients(2, data)
        .build()
        .unwrap();
    let before = fed.server().global().clone();
    fed.run_round().unwrap();
    let g = GradientSnapshot::from_weight_diff(&before, fed.server().global(), 0.05).unwrap();
    assert!(!g.is_empty());
    assert!(g.to_flat().iter().any(|&x| x != 0.0));
}
