//! Multiplexed-transport determinism: a federation whose client fleet is
//! served by the mux event loops must commit the in-process transport's
//! bits — per-round reports and final weights — flat or sharded, clean
//! or faulted, whatever the event-loop count or read-chunk size. Named
//! slices of the deployment matrix (`deployment_matrix.rs`), judged by the
//! same gate.

use gradsec_bench::gate::Deployment::{InProcess, Mux, Trickle};
use gradsec_bench::gate::{faults_landed, grid, hold, Local, Policy, Scenario, Section};
use gradsec_bench::matrix;

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
fn mux_round_is_bit_identical_to_in_process() {
    let mut cells = grid(&[1], &[2, 4], InProcess);
    cells.extend(grid(&[1], &[1, 2, 4], Mux));
    hold(&[Section::new("mux", secure(), cells)]);
}

#[test]
fn sharded_mux_matches_the_flat_sequential_reference() {
    let cells = grid(&[1, 4], &[1, 2], Mux);
    hold(&[Section::new("sharded mux", secure(), cells)]);
}

#[test]
fn faulted_mux_is_bit_identical_under_a_fixed_seed() {
    let faulted = Scenario {
        faults: Some(matrix::faults()),
        ..secure()
    };
    let cells = vec![InProcess(1, 2), Mux(1, 2)];
    hold(&[Section::new("faulted mux", faulted, cells).bars(faults_landed)]);
}

#[test]
fn tiny_read_chunks_force_straddled_frames_and_still_match() {
    hold(&[Section::new("trickle", secure(), vec![Trickle(1, 1)])]);
}
