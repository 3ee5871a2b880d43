//! The deployment matrix (`gradsec_bench::matrix`), the one parity
//! suite: every corner of fleet × codec × backend × faults × adversaries
//! × aggregator on engine shards, the mux and shard-server processes;
//! the paper's policies — `Secure`'s static sheltered set and a moving
//! `Window`, each trained in the enclave — on the MLP and LeNet-5 across
//! a wide engine, engine shards, the mux (the MLP also on a trickle mux)
//! and shard servers; the mixed fleet; a screening cap; and an
//! interior drawn from a fixed seed across every axis. Each must commit
//! what the flat in-process run commits — report and weights, bit for
//! bit — and owe every run's ledger, schedule and screening invariants;
//! a faulted corner must also shed stragglers and failures. A failure
//! names each failed cell; an interior one names its seed, which
//! `interior(seed, ..)` replays.
//!
//! A new deployment axis is a line in `gradsec_bench::matrix`, not a new
//! file; the end-to-end checks that are not parity live in
//! `integration_edges.rs`.

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
