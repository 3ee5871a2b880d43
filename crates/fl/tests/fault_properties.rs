//! Chaos-style property tests: *arbitrary* fault plans driven through the
//! whole federation stack.
//!
//! For any combination of dropout, message drop/garble probabilities,
//! latency distribution, round deadline and selection spare, a faulted
//! run must be bit-identical between the sequential and parallel engines
//! and between flat and sharded fleets — same per-round reports
//! (participants, surplus, stragglers, failures, ledgers), same final
//! weights, and when a round collapses entirely, the *same error*. The
//! fault layer's determinism is the property under test: every fault
//! decision must be a pure function of `(seed, client, round/message)`,
//! never of scheduling.

use std::sync::Arc;

use proptest::prelude::*;

use gradsec_data::SyntheticMicro;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::{Federation, FederationBuilder};
use gradsec_fl::{ExecutionEngine, FaultPlan, LatencyModel};
use gradsec_nn::zoo;

const CLIENTS: usize = 5;
const DIM: usize = 6;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 2,
        clients_per_round: 3,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 23,
    }
}

fn builder(faults: FaultPlan) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(4 * CLIENTS, 2, DIM, 3));
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, 4, 2, 5).unwrap())
        .clients(CLIENTS, data)
        .faults(faults)
}

/// Decodes a drawn latency selector into a model (the vendored proptest
/// has no enum strategies, so the case index is drawn as an integer).
fn latency_model(kind: usize, a: f64) -> LatencyModel {
    match kind {
        0 => LatencyModel::None,
        1 => LatencyModel::Fixed(a),
        _ => LatencyModel::Exponential { mean_s: a },
    }
}

/// One arbitrary-but-valid fault plan from drawn knobs.
#[allow(clippy::too_many_arguments)]
fn fault_plan(
    seed: u64,
    dropout: f64,
    drop_p: f64,
    garble_p: f64,
    latency_kind: usize,
    lat_a: f64,
    deadline_ds: usize,
    spare: usize,
) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed)
        .dropout(dropout)
        .drop_messages(drop_p)
        .garble_replies(garble_p)
        .latency(latency_model(latency_kind, lat_a))
        .spare(spare);
    if deadline_ds > 0 {
        plan = plan.deadline_s(deadline_ds as f64 / 10.0);
    }
    plan.validate().expect("drawn plans are in range");
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Sequential and parallel engines agree bit-for-bit on any fault
    /// plan — including the rounds that error out entirely.
    #[test]
    fn seq_and_parallel_agree_under_arbitrary_faults(
        seed in 0u64..1_000_000,
        dropout in 0.0f64..0.5,
        drop_p in 0.0f64..0.3,
        garble_p in 0.0f64..0.3,
        latency_kind in 0usize..3,
        lat_a in 0.0f64..3.0,
        deadline_ds in 0usize..40,
        spare in 0usize..3,
        workers in 2usize..5,
    ) {
        let faults = || fault_plan(
            seed, dropout, drop_p, garble_p,
            latency_kind, lat_a, deadline_ds, spare,
        );
        let mut seq = builder(faults()).engine(ExecutionEngine::sequential()).build().unwrap();
        let seq_report = seq.run();
        let mut par = builder(faults()).engine(ExecutionEngine::new(workers)).build().unwrap();
        let par_report = par.run();
        prop_assert_eq!(&seq_report, &par_report, "workers={}", workers);
        if seq_report.is_ok() {
            prop_assert_eq!(seq.server().global(), par.server().global());
        }
    }

    /// Flat and sharded fleets agree bit-for-bit on any fault plan and
    /// any shard count.
    #[test]
    fn flat_and_sharded_agree_under_arbitrary_faults(
        seed in 0u64..1_000_000,
        dropout in 0.0f64..0.5,
        drop_p in 0.0f64..0.3,
        garble_p in 0.0f64..0.3,
        latency_kind in 0usize..3,
        lat_a in 0.0f64..3.0,
        deadline_ds in 0usize..40,
        spare in 0usize..3,
        shards in 1usize..5,
        workers in 1usize..4,
    ) {
        let faults = || fault_plan(
            seed, dropout, drop_p, garble_p,
            latency_kind, lat_a, deadline_ds, spare,
        );
        let mut flat = builder(faults()).build().unwrap();
        let flat_report = flat.run();
        let mut sharded = builder(faults())
            .shards(shards)
            .engine(ExecutionEngine::new(workers))
            .build_sharded()
            .unwrap();
        let sharded_report = sharded.run();
        prop_assert_eq!(
            &flat_report, &sharded_report,
            "shards={} workers={}", shards, workers
        );
        if flat_report.is_ok() {
            prop_assert_eq!(flat.server().global(), sharded.server().global());
        }
    }

    /// The report's cohort partition is always coherent: the four groups
    /// are disjoint, cover the ledger, commit at most `clients_per_round`
    /// updates, and the ledger bills every selected client exactly once.
    #[test]
    fn faulted_reports_partition_the_cohort(
        seed in 0u64..1_000_000,
        dropout in 0.0f64..0.4,
        drop_p in 0.0f64..0.25,
        garble_p in 0.0f64..0.25,
        deadline_ds in 0usize..30,
        spare in 0usize..3,
    ) {
        let faults = fault_plan(
            seed, dropout, drop_p, garble_p, 2, 1.0, deadline_ds, spare,
        );
        let mut fed = builder(faults).build().unwrap();
        // A fully-collapsed run is legal under heavy faults (the
        // agreement properties above pin its determinism); the cohort
        // invariants only apply to the rounds that completed.
        let rounds = fed.run().map(|r| r.rounds).unwrap_or_default();
        let k = plan().clients_per_round;
        for round in &rounds {
            prop_assert!(!round.participants.is_empty());
            prop_assert!(round.participants.len() <= k);
            let mut cohort: Vec<usize> = round
                .participants
                .iter()
                .chain(&round.surplus)
                .chain(&round.stragglers)
                .chain(&round.failures)
                .copied()
                .collect();
            let total = cohort.len();
            cohort.sort_unstable();
            cohort.dedup();
            prop_assert_eq!(cohort.len(), total, "groups overlap");
            prop_assert!(total <= k + spare);
            // Every selected client is accounted in the ledger.
            prop_assert_eq!(round.ledger.len(), total);
            for &ci in &cohort {
                prop_assert!(round.ledger.client(ci as u64).is_some());
            }
        }
    }
}
