//! Fault & straggler injection, end to end.
//!
//! The guarantees under test:
//!
//! * **Determinism** — under a fixed fault seed, a faulted federation
//!   produces bit-identical reports and final weights for every
//!   `(shards, workers, transport)` combination: every fault decision is
//!   a pure function of `(seed, client, round/message)`, never of
//!   scheduling.
//! * **Liveness** — a kilo-client round with 10% dropout (plus message
//!   loss and a straggler deadline) completes without hanging, commits a
//!   full cohort from the over-provisioned selection, and its ledger
//!   accounts every selected client, including the stragglers and
//!   failures.
//! * **Isolation** — a panicking client (`ClientFailure`) is billed a
//!   zero-cost ledger entry in exactly its own slot; every other client's
//!   bill is unchanged, whatever the worker count.
//! * **Teardown** — `Federation::shutdown` over TCP reaps every
//!   client session and its event loops without hanging, even when a
//!   client session already ended, and a blocking device session whose
//!   goodbye never arrives is released by the endpoint drop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gradsec::core::trainer::SecureTrainer;
use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticMicro;
use gradsec::fl::config::{TrainingPlan, TransportKind};
use gradsec::fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec::fl::trainer::{CycleStats, LocalTrainer};
use gradsec::fl::{ExecutionEngine, FaultPlan, LatencyModel};
use gradsec::nn::model::ModelWeights;
use gradsec::nn::zoo;
use gradsec::nn::Sequential;

const CLIENTS: usize = 10;
const DIM: usize = 12;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 3,
        clients_per_round: 4,
        batches_per_cycle: 2,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 31,
    }
}

/// The probe that calibrates the straggler deadline: one clean round
/// tells us what a SecureTrainer cycle costs on the simulated clock, so
/// the faulted runs can set a deadline the injected latency tail
/// overruns for some — but not all — clients.
fn cycle_cost_s() -> f64 {
    let mut fed = builder(FaultPlan::seeded(0)).build().unwrap();
    let report = fed.run_round().unwrap();
    let cost = report.ledger.critical_path_s();
    fed.shutdown().unwrap();
    cost
}

fn faults(deadline_s: f64) -> FaultPlan {
    FaultPlan::seeded(0xFA417)
        .dropout(0.15)
        .drop_messages(0.08)
        .garble_replies(0.05)
        .latency(LatencyModel::Exponential { mean_s: 1.0 })
        .deadline_s(deadline_s)
        .spare(3)
}

fn builder(faults: FaultPlan) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(16 * CLIENTS, 2, DIM, 5));
    let policy = ProtectionPolicy::static_layers(&[1]).unwrap();
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, 6, 2, 21).unwrap())
        .clients(CLIENTS, data)
        .trainer(|_| Box::new(SecureTrainer::new()))
        .scheduler(policy)
        .faults(faults)
}

#[test]
fn faulted_reports_are_invariant_across_shards_workers_and_transports() {
    let deadline = cycle_cost_s() + 1.0;
    let reference: (FederationReport, ModelWeights) = {
        let mut fed = builder(faults(deadline)).build().unwrap();
        let report = fed.run_with(&ExecutionEngine::sequential()).unwrap();
        let weights = fed.server().global().clone();
        fed.shutdown().unwrap();
        (report, weights)
    };
    // The fixture must actually exercise the fault machinery: across the
    // run, every outcome class shows up at least once.
    let all_rounds = &reference.0.rounds;
    assert!(
        all_rounds.iter().any(|r| !r.stragglers.is_empty()),
        "fixture produced no stragglers — retune the fault seed"
    );
    assert!(
        all_rounds.iter().any(|r| !r.failures.is_empty()),
        "fixture produced no failures — retune the fault seed"
    );
    assert!(
        all_rounds.iter().any(|r| !r.participants.is_empty()),
        "no round committed anything"
    );
    for transport in [TransportKind::InProcess, TransportKind::TcpMux] {
        for shards in [1usize, 2, 4] {
            for workers in [1usize, 2, 4] {
                let mut fed = builder(faults(deadline))
                    .transport(transport)
                    .shards(shards)
                    .engine(ExecutionEngine::new(workers))
                    .build_sharded()
                    .unwrap();
                let report = fed.run().unwrap();
                assert_eq!(
                    report, reference.0,
                    "{transport:?} x {shards} shards x {workers} workers: report diverged"
                );
                assert_eq!(
                    fed.server().global(),
                    &reference.1,
                    "{transport:?} x {shards} shards x {workers} workers: weights diverged"
                );
                fed.shutdown().unwrap();
            }
        }
    }
}

#[test]
fn kilo_client_round_with_ten_percent_dropout_completes_and_accounts_everyone() {
    const FLEET: usize = 1000;
    let data = Arc::new(SyntheticMicro::new(2 * FLEET, 2, 8, 5));
    let mut fed = Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: 64,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(8, 4, 2, 13).unwrap())
    .clients(FLEET, data)
    .faults(
        FaultPlan::seeded(99)
            .dropout(0.10)
            .drop_messages(0.05)
            .latency(LatencyModel::Exponential { mean_s: 0.5 })
            .deadline_s(1.5)
            .spare(16),
    )
    .shards(4)
    .engine(ExecutionEngine::new(4))
    .build_sharded()
    .unwrap();
    let report = fed.run().unwrap();
    fed.shutdown().unwrap();
    let round = &report.rounds[0];
    // Over-provisioning filled the cohort despite the faults.
    assert_eq!(round.participants.len(), 64, "cohort not filled");
    // The selection slack really was needed: something straggled or
    // failed under 10% dropout + message loss + a deadline.
    let shed = round.stragglers.len() + round.failures.len();
    assert!(shed > 0, "no faults landed — retune the seed");
    // The ledger accounts every selected client exactly once: committed,
    // surplus, straggler and failed alike.
    let selected = round.participants.len()
        + round.surplus.len()
        + round.stragglers.len()
        + round.failures.len();
    assert_eq!(round.ledger.len(), selected);
    for group in [&round.stragglers, &round.failures] {
        for &ci in group {
            assert!(
                round.ledger.client(ci as u64).is_some(),
                "client {ci} shed but not accounted"
            );
        }
    }
    // Failures are zero-billed; participants keep their (plain-trainer,
    // zero-cost) entries too — no slot is missing.
    for &ci in &round.failures {
        let entry = round.ledger.client(ci as u64).unwrap();
        assert_eq!(entry.crossings, 0);
        assert_eq!(entry.time.total_s(), 0.0);
    }
}

/// A trainer that panics on every cycle.
struct PanickingTrainer;

impl LocalTrainer for PanickingTrainer {
    fn train_cycle(
        &mut self,
        _model: &mut Sequential,
        _dataset: &dyn gradsec::data::Dataset,
        _batches: &[Vec<usize>],
        _learning_rate: f32,
        _protected_layers: &[usize],
    ) -> gradsec::fl::Result<CycleStats> {
        panic!("injected trainer bug");
    }
}

#[test]
fn a_client_failure_bills_exactly_its_own_ledger_slot() {
    let build = |panicking: bool| {
        let data = Arc::new(SyntheticMicro::new(16 * 4, 2, DIM, 5));
        Federation::builder(TrainingPlan {
            rounds: 1,
            clients_per_round: 3,
            batches_per_cycle: 2,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 3,
        })
        .model(|| zoo::tiny_mlp(DIM, 6, 2, 21).unwrap())
        .clients(4, data)
        .trainer(move |id| {
            if panicking && id == 2 {
                Box::new(PanickingTrainer) as Box<dyn LocalTrainer>
            } else {
                Box::new(SecureTrainer::new())
            }
        })
        .build()
        .unwrap()
    };
    // Reference bills from a clean fleet, same picks.
    let mut clean = build(false);
    let download = clean.server().download(vec![1]);
    let (_, clean_ledger) = ExecutionEngine::sequential()
        .execute_cycles(clean.clients_mut(), &[0, 2, 3], &download)
        .unwrap();
    assert!(clean_ledger.client(2).unwrap().crossings > 0);
    for workers in [1usize, 2, 4] {
        let mut fed = build(true);
        let download = fed.server().download(vec![1]);
        let (outcomes, ledger) = ExecutionEngine::new(workers)
            .execute_cycles(fed.clients_mut(), &[0, 2, 3], &download)
            .unwrap();
        assert!(outcomes[0].is_completed(), "{workers} workers");
        assert!(outcomes[1].is_failed(), "{workers} workers");
        assert!(outcomes[2].is_completed(), "{workers} workers");
        // The panicking client is billed zero in its own slot...
        let failed = ledger.client(2).expect("failed client accounted");
        assert_eq!(failed.crossings, 0, "{workers} workers");
        assert_eq!(failed.time.total_s(), 0.0, "{workers} workers");
        assert_eq!(failed.tee_peak_bytes, 0, "{workers} workers");
        // ...and nothing leaked into anyone else's: the healthy clients'
        // bills are bit-identical to the clean fleet's.
        for id in [0u64, 3] {
            assert_eq!(
                ledger.client(id),
                clean_ledger.client(id),
                "{workers} workers: client {id}'s bill changed"
            );
        }
        assert_eq!(ledger.len(), 3, "{workers} workers");
    }
}

/// Runs `f` on a watchdog thread; panics if it has not finished within
/// `secs` — the hang detector the teardown tests lean on.
fn within_secs<F: FnOnce() + Send + 'static>(secs: u64, what: &str, f: F) {
    let handle = std::thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "{what} hung past {secs}s");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("watchdogged work panicked");
}

#[test]
fn tcp_shutdown_joins_every_session_even_after_a_client_already_left() {
    within_secs(30, "TCP teardown", || {
        let data = Arc::new(SyntheticMicro::new(16 * 3, 2, DIM, 5));
        let mut fed = Federation::builder(TrainingPlan {
            rounds: 1,
            clients_per_round: 2,
            batches_per_cycle: 1,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 3,
        })
        .model(|| zoo::tiny_mlp(DIM, 6, 2, 21).unwrap())
        .clients(3, data)
        .transport(TransportKind::TcpMux)
        .build()
        .unwrap();
        fed.run().unwrap();
        // One client leaves early: its session goodbyes out and closes.
        // Teardown must still reap all three sessions — including the
        // already-finished one — without hanging or erroring.
        fed.clients_mut()[1].goodbye().unwrap();
        fed.shutdown().unwrap();
    });
}

#[test]
fn tcp_shutdown_is_clean_for_faulted_fleets() {
    within_secs(30, "faulted TCP teardown", || {
        // Goodbye is never faulted, so even a plan that kills every
        // other exchange tears down cleanly over real sockets.
        let data = Arc::new(SyntheticMicro::new(16 * 3, 2, DIM, 5));
        let fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(DIM, 6, 2, 21).unwrap())
            .clients(3, data)
            .transport(TransportKind::TcpMux)
            .faults(
                FaultPlan::seeded(1)
                    .dropout(1.0)
                    .drop_messages(1.0)
                    .garble_replies(1.0),
            )
            .build()
            .unwrap();
        fed.shutdown().unwrap();
    });
}

#[test]
fn dropping_a_server_endpoint_releases_a_session_awaiting_goodbye() {
    use gradsec::fl::client::{DeviceProfile, FlClient};
    use gradsec::fl::trainer::PlainSgdTrainer;
    use gradsec::fl::transport::{tcp, ClientSession, RemoteClient};
    within_secs(30, "endpoint-drop release", || {
        let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let session = std::thread::spawn(move || {
            let ds = Arc::new(SyntheticMicro::new(8, 2, 4, 1));
            let client = FlClient::new(
                5,
                DeviceProfile::trustzone(5),
                ds,
                (0..8).collect(),
                zoo::tiny_mlp(4, 3, 2, 1).unwrap(),
                Box::new(PlainSgdTrainer),
            );
            ClientSession::new(client, tcp::connect(addr).unwrap()).serve()
        });
        let endpoint = listener.accept().unwrap();
        let remote = RemoteClient::connect(Box::new(endpoint)).unwrap();
        assert_eq!(remote.id(), 5);
        // No goodbye: the drop alone must wake the session's blocking
        // recv with a disconnect so the join below cannot hang. This is
        // the property `teardown_fleet` relies on when a goodbye is lost.
        drop(remote);
        let outcome = session.join().expect("session thread must not panic");
        assert!(outcome.is_err(), "session saw the disconnect");
    });
}
