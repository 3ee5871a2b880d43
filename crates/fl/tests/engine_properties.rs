//! Property-based tests for the execution engine's schedule handling.
//!
//! For *arbitrary* pick sets — empty, singleton, duplicated, out-of-order,
//! out-of-range — the sequential and parallel engines must agree exactly:
//! the same `Err` for malformed schedules, and bit-identical per-client
//! outcomes plus TEE ledgers for legal ones. This pins down the two
//! historical failure modes: duplicate picks panicking the slot collector,
//! and a worker panic aborting the whole process.

use std::sync::Arc;

use proptest::prelude::*;

use gradsec_data::{split, Dataset, SyntheticMicro};
use gradsec_fl::client::{DeviceProfile, FlClient};
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::message::ModelDownload;
use gradsec_fl::trainer::PlainSgdTrainer;
use gradsec_fl::transport::inprocess::LocalEndpoint;
use gradsec_fl::transport::RemoteClient;
use gradsec_fl::{ExecutionEngine, FlError};
use gradsec_nn::zoo;

const N_CLIENTS: usize = 5;
const DIM: usize = 6;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 1,
        clients_per_round: N_CLIENTS,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 11,
    }
}

fn fleet() -> Vec<RemoteClient> {
    let ds = Arc::new(SyntheticMicro::new(4 * N_CLIENTS, 2, DIM, 3));
    let shards = split::shard(ds.len(), N_CLIENTS, 1);
    (0..N_CLIENTS)
        .zip(shards)
        .map(|(i, shard)| {
            let client = FlClient::new(
                i as u64,
                DeviceProfile::trustzone(i as u64),
                ds.clone(),
                shard,
                zoo::tiny_mlp(DIM, 4, 2, 5).unwrap(),
                Box::new(PlainSgdTrainer),
            );
            RemoteClient::connect(Box::new(LocalEndpoint::new(client))).unwrap()
        })
        .collect()
}

fn download() -> ModelDownload {
    ModelDownload {
        round: 0,
        weights: zoo::tiny_mlp(DIM, 4, 2, 5).unwrap().weights(),
        plan: plan(),
        protected_layers: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential and parallel engines agree — outcome for outcome,
    /// ledger for ledger, error for error — on any schedule.
    #[test]
    fn sequential_and_parallel_agree_on_arbitrary_picks(
        picked in proptest::collection::vec(0usize..N_CLIENTS + 2, 0..2 * N_CLIENTS),
        workers in 2usize..5,
    ) {
        let download = download();
        let mut seq_fleet = fleet();
        let seq = ExecutionEngine::sequential()
            .execute_cycles_with(&mut seq_fleet, &picked, &download, None);
        let mut par_fleet = fleet();
        let par = ExecutionEngine::new(workers)
            .execute_cycles_with(&mut par_fleet, &picked, &download, None);
        prop_assert_eq!(&seq, &par);
        // Malformed schedules fail identically and cleanly.
        let duplicated = picked.iter().any(|a| picked.iter().filter(|b| *b == a).count() > 1);
        let out_of_range = picked.iter().any(|&p| p >= N_CLIENTS);
        if duplicated || out_of_range {
            prop_assert!(matches!(seq, Err(FlError::InvalidSelection { .. })));
        } else {
            let (outcomes, ledger) = seq.unwrap();
            prop_assert_eq!(outcomes.len(), picked.len());
            prop_assert!(outcomes.iter().all(gradsec_fl::ClientOutcome::is_completed));
            prop_assert_eq!(ledger.len(), picked.len());
            // Slots line up with the pick order.
            for (slot, &ci) in picked.iter().enumerate() {
                prop_assert_eq!(outcomes[slot].client_id(), ci as u64);
            }
        }
    }
}
