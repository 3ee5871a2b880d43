//! The deployment matrix (`gradsec_bench::matrix`): every corner of
//! fleet × codec × backend × faults × adversaries × aggregator, on engine
//! shards, the mux and shard-server processes, and an interior drawn from
//! a fixed seed across every axis, must commit what the flat in-process
//! run commits — report and weights, bit for bit — and owe every run's
//! ledger, schedule and screening invariants. A failure names each failed
//! cell; an interior one names its seed, which `interior(seed, ..)`
//! replays.
//!
//! The integration files beside this one keep a named slice each, judged
//! by the same `gate::hold`, and the checks that are not parity.

use gradsec_bench::gate::hold;
use gradsec_bench::matrix;

/// Interior sections per seed: with the corners, a few seconds in a
/// debug build on two cores.
const INTERIOR: usize = 64;

/// The interior every test run checks.
const SEED: u64 = 42;

/// Seeds the ignored sweep draws interiors from.
const SWEEP: std::ops::Range<u64> = 0..64;

#[test]
fn every_corner_commits_the_flat_run() {
    hold(&matrix::corners());
}

#[test]
fn a_seeded_interior_commits_the_flat_run() {
    hold(&matrix::interior(SEED, INTERIOR));
}

/// `cargo test --release --test deployment_matrix -- --ignored`: the
/// interiors of every seed in [`SWEEP`], for a change to the gate or to a
/// deployment path.
#[test]
#[ignore = "a sweep: minutes, not seconds"]
fn a_sweep_of_interiors_commits_the_flat_run() {
    for seed in SWEEP {
        hold(&matrix::interior(seed, INTERIOR));
    }
}
