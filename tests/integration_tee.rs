//! TEE-path integration: provisioning protected weights over the trusted
//! I/O path, parking models in secure storage, attestation gating and
//! enclave failure injection.

use gradsec::core::trainer::SecureTrainer;
use gradsec::data::SyntheticCifar100;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::message::{decode, encode, ModelDownload};
use gradsec::fl::FlError;
use gradsec::nn::zoo;
use gradsec::tee::storage::SecureStorage;
use gradsec::tee::ta::Uuid;
use gradsec::tee::tiop::{Role, SecureChannel};
use gradsec::tee::TeeError;

#[test]
fn model_download_over_trusted_io_path() {
    // The paper's §7.3 provisioning: the server seals the protected
    // layers' weights; only the enclave end of the channel can open them.
    let model = zoo::lenet5_with(4, 1).unwrap();
    let download = ModelDownload {
        round: 2,
        weights: model.weights(),
        plan: TrainingPlan::default(),
        protected_layers: vec![1, 4],
    };
    let bytes = encode(&download);
    let mut server = SecureChannel::established(b"attested-secret", Role::Server);
    let mut enclave = SecureChannel::established(b"attested-secret", Role::Client);
    let frame = server.seal(&bytes);
    // The normal world sees only ciphertext.
    assert_ne!(frame.ciphertext, bytes);
    let opened = enclave.open(&frame).unwrap();
    let back: ModelDownload = decode(&opened).unwrap();
    assert_eq!(back, download);
    // Replaying the provisioning frame is rejected.
    assert!(enclave.open(&frame).is_err());
}

#[test]
fn model_parks_in_secure_storage_between_cycles() {
    // §5: "the data used for training is kept in the storage of the FL
    // client using TrustZone's secure storage".
    let model = zoo::lenet5_with(4, 2).unwrap();
    let bytes = encode(&model.weights());
    let ta = Uuid::from_name("gradsec-ta");
    let mut store = SecureStorage::new(b"device-unique", 9);
    store.put(ta, "parked-model", &bytes).unwrap();
    let restored: gradsec::nn::model::ModelWeights =
        decode(&store.get(ta, "parked-model").unwrap()).unwrap();
    assert_eq!(restored, model.weights());
    // A malicious REE filesystem flipping one bit is detected.
    assert!(store.tamper_ciphertext(ta, "parked-model", 100));
    assert!(matches!(
        store.get(ta, "parked-model"),
        Err(TeeError::IntegrityViolation { .. })
    ));
}

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
