//! Fault & straggler injection, end to end.
//!
//! The guarantees under test:
//!
//! * **Determinism** — under a fixed fault seed, a faulted federation
//!   commits the flat run's bits for every `(shards, workers, transport)`
//!   combination: every fault decision is a pure function of `(seed,
//!   client, round/message)`, never of scheduling. A named slice of the
//!   deployment matrix (`deployment_matrix.rs`), judged by the same gate.
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
use gradsec::data::SyntheticMicro;
use gradsec::fl::config::TransportKind;
use gradsec::fl::trainer::{CycleStats, LocalTrainer};
use gradsec::fl::{ExecutionEngine, FaultPlan, LatencyModel};
use gradsec::nn::zoo;
use gradsec::nn::Sequential;
use gradsec_bench::gate::Deployment::{InProcess, Mux};
use gradsec_bench::gate::{
    faults_landed, grid, hold, run, Bars, Local, Outcome, Policy, Scenario, Section, FLAT,
};

/// 4 of 10 clients a round, three rounds of two sampled batches per
/// cycle, the `{L2}` policy in the enclave.
fn secure() -> Scenario {
    Scenario {
        cohort: 4,
        rounds: 3,
        local: Local::TwoSteps,
        policy: Policy::Secure,
        ..Scenario::new(10)
    }
}

/// The fixture must exercise the fault machinery: across the run, some
/// client straggles, some fails and some round still commits.
fn stragglers_and_failures(s: &Scenario, outcome: &Outcome) -> Bars {
    let rounds = &outcome.0.rounds;
    let straggled = rounds.iter().any(|r| !r.stragglers.is_empty());
    let failed = rounds.iter().any(|r| !r.failures.is_empty());
    let detail = format!("{} rounds", rounds.len());
    let mut bars = faults_landed(s, outcome);
    bars.push(("stragglers landed", straggled, detail.clone()));
    bars.push(("failures landed", failed, detail));
    bars
}

#[test]
fn faulted_reports_are_invariant_across_shards_workers_and_transports() {
    // One clean round prices a cycle on the simulated clock, so the
    // deadline lets the latency tail overrun some clients but not all.
    let one_round = Scenario {
        rounds: 1,
        ..secure()
    };
    let clean = run(&one_round, FLAT).0;
    let deadline_s = clean.rounds[0].ledger.critical_path_s() + 1.0;
    let plan = FaultPlan::seeded(0xFA417)
        .dropout(0.15)
        .drop_messages(0.08)
        .garble_replies(0.05)
        .latency(LatencyModel::Exponential { mean_s: 1.0 })
        .deadline_s(deadline_s)
        .spare(3);
    let faulted = Scenario {
        faults: Some(plan),
        ..secure()
    };
    let mut cells = grid(&[1, 2, 4], &[1, 2, 4], InProcess);
    cells.extend(grid(&[1, 2, 4], &[1, 2, 4], Mux));
    let section = Section::new("faulted", faulted, cells);
    hold(&[section.bars(stragglers_and_failures)]);
}

#[test]
fn kilo_client_round_with_ten_percent_dropout_completes_and_accounts_everyone() {
    let plan = FaultPlan::seeded(99)
        .dropout(0.10)
        .drop_messages(0.05)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .deadline_s(1.5)
        .spare(16);
    let kilo = Scenario {
        cohort: 64,
        faults: Some(plan),
        ..Scenario::new(1000)
    };
    let (report, _) = run(&kilo, InProcess(4, 4));
    let round = &report.rounds[0];
    // Over-provisioning filled the cohort despite the faults.
    assert_eq!(round.participants.len(), 64, "cohort not filled");
    // The selection slack really was needed: something straggled or
    // failed under 10% dropout + message loss + a deadline.
    let shed = round.stragglers.len() + round.failures.len();
    assert!(shed > 0, "no faults landed — retune the seed");
    // The ledger accounts every selected client exactly once: committed,
    // surplus, straggler and failed alike.
    let selected = round.participants.len() + round.surplus.len() + shed;
    assert_eq!(round.ledger.len(), selected);
    for &ci in round.stragglers.iter().chain(&round.failures) {
        assert!(
            round.ledger.client(ci as u64).is_some(),
            "client {ci} shed but not accounted"
        );
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
    let fleet = Scenario {
        cohort: 3,
        local: Local::TwoSteps,
        ..Scenario::new(4)
    };
    let build = |panicking: bool| {
        let trainer = move |id| {
            if panicking && id == 2 {
                Box::new(PanickingTrainer) as Box<dyn LocalTrainer>
            } else {
                Box::new(SecureTrainer::new())
            }
        };
        fleet.federation().trainer(trainer).build().unwrap()
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
        let fleet = Scenario {
            cohort: 2,
            ..Scenario::new(3)
        };
        let mut fed = fleet
            .federation()
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
        let plan = FaultPlan::seeded(1)
            .dropout(1.0)
            .drop_messages(1.0)
            .garble_replies(1.0);
        let fleet = Scenario {
            faults: Some(plan),
            ..Scenario::new(3)
        };
        let fed = fleet
            .federation()
            .transport(TransportKind::TcpMux)
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
