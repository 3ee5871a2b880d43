//! Transport determinism: a federation driven over loopback TCP must
//! commit the same-seed in-process federation's bits — per-round reports
//! (participants, mean loss, protected layers, the TEE ledger) and final
//! weights — and screen a mixed device fleet alike. Named slices of the
//! deployment matrix (`deployment_matrix.rs`), judged by the same gate,
//! beside the JSON export's own check.

use gradsec_bench::gate::Deployment::Mux;
use gradsec_bench::gate::{accounted, hold, run, Local, Net, Policy, Scenario, Section, FLAT};

/// LeNet-5 under `{L2, L5}` in the enclave: 3 of 4 clients, twice, two
/// sampled batches per cycle.
fn lenet() -> Scenario {
    Scenario {
        cohort: 3,
        rounds: 2,
        net: Net::LeNet,
        local: Local::TwoSteps,
        policy: Policy::Secure,
        ..Scenario::new(4)
    }
}

#[test]
fn tcp_loopback_round_is_bit_identical_to_in_process() {
    // `accounted` checks the enclave bill really crossed the sockets.
    hold(&[Section::new("tcp", lenet(), vec![Mux(1, 1)]).bars(accounted)]);
}

#[test]
fn tcp_transport_is_deterministic_across_engine_widths() {
    let widths = vec![Mux(1, 2), Mux(1, 4)];
    hold(&[Section::new("tcp widths", lenet(), widths)]);
}

#[test]
fn mixed_fleet_screens_identically_over_tcp() {
    // Clients 1 and 2 are legacy and compromised: only 0 and 3 commit.
    let mixed = Scenario {
        cohort: 2,
        rounds: 2,
        local: Local::TwoSteps,
        mixed: true,
        ..Scenario::new(4)
    };
    hold(&[Section::new("tcp mixed", mixed, vec![Mux(1, 1)]).bars(accounted)]);
}

#[test]
fn per_round_json_export_is_stable_across_transports() {
    let (inproc_report, _) = run(&lenet(), FLAT);
    let (tcp_report, _) = run(&lenet(), Mux(1, 2));
    assert_eq!(inproc_report.to_json(), tcp_report.to_json());
    let json = tcp_report.to_json();
    assert!(json.contains(r#""rounds_completed":2"#), "{json}");
    assert!(
        json.contains(r#""ledger":{"entries":[{"client_id":"#),
        "{json}"
    );
}
