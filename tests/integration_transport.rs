//! Transport determinism: a federation driven over loopback TCP must be
//! bit-identical to the same-seed federation over the in-process
//! transport — same per-round reports (participants, mean loss, protected
//! layers and the TEE ledger) and same final global weights. The protocol
//! bytes are identical either way; only the pipe differs.

use std::sync::Arc;

use gradsec::core::trainer::SecureTrainer;
use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticCifar100;
use gradsec::fl::client::DeviceProfile;
use gradsec::fl::config::{TrainingPlan, TransportKind};
use gradsec::fl::runner::{Federation, FederationReport};
use gradsec::fl::ExecutionEngine;
use gradsec::nn::model::ModelWeights;
use gradsec::nn::zoo;

fn federation(transport: TransportKind, workers: usize) -> Federation {
    let data = Arc::new(SyntheticCifar100::with_classes(64, 2, 11));
    let policy = ProtectionPolicy::static_layers(&[1, 4]).unwrap();
    Federation::builder(TrainingPlan {
        rounds: 2,
        clients_per_round: 3,
        batches_per_cycle: 2,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 23,
    })
    .model(|| zoo::lenet5_with(2, 31).expect("LeNet-5 builds"))
    .clients(4, data)
    .trainer(|_| Box::new(SecureTrainer::new()))
    .scheduler(policy)
    .engine(ExecutionEngine::new(workers))
    .transport(transport)
    .build()
    .unwrap()
}

fn run(transport: TransportKind, workers: usize) -> (FederationReport, ModelWeights) {
    let mut fed = federation(transport, workers);
    let report = fed.run().unwrap();
    let weights = fed.server().global().clone();
    fed.shutdown().unwrap();
    (report, weights)
}

#[test]
fn tcp_loopback_round_is_bit_identical_to_in_process() {
    let (inproc_report, inproc_weights) = run(TransportKind::InProcess, 1);
    assert_eq!(inproc_report.rounds_completed, 2);
    let (tcp_report, tcp_weights) = run(TransportKind::TcpMux, 1);
    assert_eq!(
        inproc_report, tcp_report,
        "TCP round reports diverged from in-process"
    );
    assert_eq!(
        inproc_weights, tcp_weights,
        "TCP final weights diverged from in-process"
    );
    // The comparison above covers participants, mean_loss and the full
    // ledger via PartialEq; spot-check the ledger really carried the
    // enclave bill across the sockets.
    for round in &tcp_report.rounds {
        assert_eq!(round.ledger.len(), round.participants.len());
        assert!(round.ledger.total_time().kernel_s > 0.0);
        assert!(round.ledger.total_crossings() > 0);
        assert!(round.ledger.max_tee_peak_bytes() > 0);
    }
}

#[test]
fn tcp_transport_is_deterministic_across_engine_widths() {
    let (seq_report, seq_weights) = run(TransportKind::TcpMux, 1);
    for workers in [2usize, 4] {
        let (report, weights) = run(TransportKind::TcpMux, workers);
        assert_eq!(
            seq_report, report,
            "{workers}-worker TCP report diverged from sequential TCP"
        );
        assert_eq!(seq_weights, weights, "{workers}-worker weights diverged");
    }
}

#[test]
fn mixed_fleet_screens_identically_over_tcp() {
    let data = Arc::new(SyntheticCifar100::with_classes(64, 2, 5));
    let build = |transport| {
        Federation::builder(TrainingPlan {
            rounds: 2,
            clients_per_round: 2,
            batches_per_cycle: 2,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 3,
        })
        .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).expect("builds"))
        .devices(
            vec![
                DeviceProfile::trustzone(0),
                DeviceProfile::legacy(1),
                DeviceProfile::compromised(2),
                DeviceProfile::trustzone(3),
            ],
            data.clone(),
        )
        .transport(transport)
        .build()
        .unwrap()
    };
    let mut inproc = build(TransportKind::InProcess);
    let inproc_report = inproc.run().unwrap();
    let mut tcp = build(TransportKind::TcpMux);
    let tcp_report = tcp.run().unwrap();
    assert_eq!(inproc_report, tcp_report);
    for r in &tcp_report.rounds {
        assert!(r.participants.iter().all(|&i| i == 0 || i == 3));
    }
    tcp.shutdown().unwrap();
}

#[test]
fn per_round_json_export_is_stable_across_transports() {
    let (inproc_report, _) = run(TransportKind::InProcess, 1);
    let (tcp_report, _) = run(TransportKind::TcpMux, 2);
    assert_eq!(inproc_report.to_json(), tcp_report.to_json());
    let json = tcp_report.to_json();
    assert!(json.contains(r#""rounds_completed":2"#), "{json}");
    assert!(
        json.contains(r#""ledger":{"entries":[{"client_id":"#),
        "{json}"
    );
}
