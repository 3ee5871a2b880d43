//! TEE-path integration: enclave failure injection and the exact
//! secure-memory budget boundary of a protected cycle.

use gradsec::core::trainer::SecureTrainer;
use gradsec::data::SyntheticCifar100;
use gradsec::fl::FlError;
use gradsec::nn::zoo;
use gradsec::tee::TeeError;

#[test]
fn enclave_oom_fails_the_cycle_cleanly() {
    // A device whose carveout cannot hold the requested layers must fail
    // provisioning with the enclave OOM — and leave the model usable.
    let ds = SyntheticCifar100::with_classes(32, 4, 3);
    let mut model = zoo::lenet5_with(4, 4).unwrap();
    // L1+L2 at batch 8 need ≈467 KiB; a 256 KiB carveout cannot hold them.
    let trainer = SecureTrainer::new().with_budget(256 * 1024);
    let batches: Vec<Vec<usize>> = vec![(0..8).collect()];
    let err = trainer
        .run_cycle(&mut model, &ds, &batches, 0.05, &[0, 1])
        .unwrap_err();
    assert!(matches!(
        err,
        FlError::Tee(TeeError::OutOfSecureMemory { .. })
    ));
    // The same cycle fits with only L3 (small) protected.
    trainer
        .run_cycle(&mut model, &ds, &batches, 0.05, &[2])
        .unwrap();
}

#[test]
fn budget_boundary_is_exact() {
    use gradsec::core::memory_model::layers_tee_bytes;
    let ds = SyntheticCifar100::with_classes(32, 4, 3);
    let model = zoo::lenet5_with(4, 5).unwrap();
    let need = layers_tee_bytes(&model, &[2], 8);
    let batches: Vec<Vec<usize>> = vec![(0..8).collect()];
    // Exactly enough succeeds.
    let mut m1 = zoo::lenet5_with(4, 5).unwrap();
    SecureTrainer::new()
        .with_budget(need)
        .run_cycle(&mut m1, &ds, &batches, 0.05, &[2])
        .unwrap();
    // One byte short fails.
    let mut m2 = zoo::lenet5_with(4, 5).unwrap();
    assert!(SecureTrainer::new()
        .with_budget(need - 1)
        .run_cycle(&mut m2, &ds, &batches, 0.05, &[2])
        .is_err());
}
