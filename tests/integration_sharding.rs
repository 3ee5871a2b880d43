//! Shard-count invariance: a federation partitioned across engine shards
//! must commit the flat federation's bits — report (participants,
//! losses, protected layers, TEE ledgers) and final weights — for every
//! `(shards, workers)` combination, on either transport. Named slices of
//! the deployment matrix (`deployment_matrix.rs`), judged by the same
//! gate, beside the sharded API's own checks.

use gradsec::fl::runner::ShardedFederation;
use gradsec::fl::{ExecutionEngine, FlError};
use gradsec_bench::gate::Deployment::{InProcess, Mux};
use gradsec_bench::gate::{accounted, grid, hold, Local, Policy, Scenario, Section};

/// 5 of 8 clients a round, three rounds of two sampled batches per cycle,
/// the `{L2}` policy in the enclave.
fn secure() -> Scenario {
    Scenario {
        cohort: 5,
        rounds: 3,
        local: Local::TwoSteps,
        policy: Policy::Secure,
        ..Scenario::new(8)
    }
}

#[test]
fn sharded_report_is_invariant_across_shards_and_workers() {
    let cells = grid(&[1, 2, 4], &[1, 2, 4], InProcess);
    hold(&[Section::new("shards", secure(), cells)]);
}

#[test]
fn sharded_ledger_accounts_every_participant() {
    let section = Section::new("ledger", secure(), vec![InProcess(4, 2)]);
    hold(&[section.bars(accounted)]);
}

#[test]
fn sharded_runs_are_transport_agnostic() {
    let cells = vec![InProcess(2, 2), Mux(2, 2)];
    hold(&[Section::new("transports", secure(), cells)]);
}

#[test]
fn duplicate_pick_schedules_error_instead_of_panicking() {
    let mut fed = secure().federation().build().unwrap();
    let download = fed.server().download(vec![]);
    for engine in [ExecutionEngine::sequential(), ExecutionEngine::new(4)] {
        let err = engine
            .execute_cycles(fed.clients_mut(), &[0, 3, 0], &download)
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
    }
}

#[test]
fn sharded_federation_debug_and_layout_are_coherent() {
    let fed: ShardedFederation = secure().federation().shards(4).build_sharded().unwrap();
    assert_eq!(fed.num_clients(), 8);
    assert_eq!(fed.layout().num_shards(), 4);
    let covered: usize = (0..fed.num_shards())
        .map(|s| fed.layout().range(s).len())
        .sum();
    assert_eq!(covered, 8);
    let dbg = format!("{fed:?}");
    assert!(
        dbg.contains("Federation") && dbg.contains("shards: 4"),
        "{dbg}"
    );
    fed.shutdown().unwrap();
}
