//! Multi-process federation: a fleet split across real shard-server
//! child processes over loopback must commit the flat in-process
//! federation's bits — report and final weights — for every process
//! count, with and without injected faults or a screening cap. Named
//! slices of the deployment matrix (`deployment_matrix.rs`), judged by the
//! same gate. A killed shard process must downgrade to an excluded
//! cohort, never a process-wide failure.

use gradsec_bench::gate::Deployment::{InProcess, Processes};
use gradsec_bench::gate::{faults_landed, hold, Local, Policy, Scenario, Section};
use gradsec_bench::matrix;

/// 5 of 8 clients a round, three rounds of two sampled batches per cycle,
/// under a moving window: shard servers train plain SGD, so no enclave
/// policy.
fn fleet() -> Scenario {
    Scenario {
        cohort: 5,
        rounds: 3,
        local: Local::TwoSteps,
        policy: Policy::Window,
        ..Scenario::new(8)
    }
}

#[test]
fn distributed_report_is_invariant_across_processes_and_workers() {
    let cells = vec![Processes(1, 2), Processes(2, 1), Processes(4, 2)];
    hold(&[Section::new("procs", fleet(), cells)]);
}

#[test]
fn distributed_matches_inprocess_sharding() {
    // Same shard count, one crossing processes, one staying in-process:
    // the process boundary must be invisible in the bits.
    let cells = vec![InProcess(2, 2), Processes(2, 2)];
    hold(&[Section::new("procs vs shards", fleet(), cells)]);
}

#[test]
fn distributed_fault_injection_matches_flat() {
    let faulted = Scenario {
        faults: Some(matrix::faults()),
        ..fleet()
    };
    let cells = vec![Processes(2, 2), Processes(4, 2)];
    hold(&[Section::new("procs faulted", faulted, cells).bars(faults_landed)]);
}

#[test]
fn distributed_screening_cap_matches_flat() {
    let capped = Scenario {
        screening: Some(6),
        ..fleet()
    };
    hold(&[Section::new("procs capped", capped, vec![Processes(2, 1)])]);
}

#[test]
fn killed_shard_downgrades_to_excluded_cohort() {
    let fleet = fleet();
    let mut coord = fleet.distributed().shards(2).workers(1).launch().unwrap();
    let first = coord.run_round().unwrap();
    assert_eq!(first.participants.len(), 5);
    let (sent, received) = coord.bytes_on_wire();
    assert!(sent > 0 && received > 0, "no bytes crossed the wire");

    // SIGKILL the second shard's process: clients 4..8 are gone. The
    // federation must keep committing rounds from the surviving shard
    // instead of failing outright.
    coord.kill_shard(1).unwrap();
    assert!(coord.shard_alive(0));
    assert!(!coord.shard_alive(1));

    let dead_range = coord.layout().range(1);
    for _ in 1..fleet.rounds {
        let report = coord.run_round().unwrap();
        assert!(
            !report.participants.is_empty(),
            "surviving shard should keep committing"
        );
        assert!(
            report
                .participants
                .iter()
                .all(|&c| !dead_range.contains(&c)),
            "dead shard's clients must be excluded: {:?}",
            report.participants
        );
        assert_eq!(report.ledger.len(), report.participants.len());
    }
    // Teardown must not report the deliberate kill as an error.
    coord.shutdown().unwrap();
}
