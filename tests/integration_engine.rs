//! Engine determinism: the parallel round engine must commit the
//! sequential run's bits — round reports, TEE ledger included, and final
//! weights — for any worker count, under the paper's static policy and a
//! moving window alike. Named slices of the deployment matrix
//! (`deployment_matrix.rs`), judged by the same gate.

use gradsec_bench::gate::Deployment::InProcess;
use gradsec_bench::gate::{accounted, grid, hold, Local, Net, Policy, Scenario, Section};

/// LeNet-5: 3 of 4 clients a round, twice, two sampled batches per cycle.
fn lenet(policy: Policy) -> Scenario {
    Scenario {
        cohort: 3,
        rounds: 2,
        net: Net::LeNet,
        local: Local::TwoSteps,
        policy,
        ..Scenario::new(4)
    }
}

#[test]
fn parallel_engine_is_bit_identical_across_worker_counts() {
    let widths = grid(&[1], &[2, 4], InProcess);
    hold(&[Section::new("widths", lenet(Policy::Secure), widths)]);
}

#[test]
fn round_ledger_carries_enclave_accounting_under_parallelism() {
    let section = Section::new("ledger", lenet(Policy::Secure), vec![InProcess(1, 3)]);
    hold(&[section.bars(accounted)]);
}

#[test]
fn dynamic_policy_schedules_identically_on_every_engine() {
    let window = Scenario {
        rounds: 4,
        ..lenet(Policy::Window)
    };
    hold(&[Section::new("window", window, vec![InProcess(1, 2)]).bars(accounted)]);
}
