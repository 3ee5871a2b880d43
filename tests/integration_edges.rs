//! The end-to-end checks that are not parity. Whether a deployment
//! commits the flat in-process run's bits is `deployment_matrix.rs`'s
//! question, asked there of every path; here are the edges around it:
//!
//! * **Liveness** — a kilo-client round with 10% dropout (plus message
//!   loss and a straggler deadline) completes, commits a full cohort from
//!   the over-provisioned selection, and accounts every selected client.
//! * **Isolation** — a panicking client is billed a zero-cost ledger entry
//!   in exactly its own slot, whatever the worker count.
//! * **Teardown** — `shutdown` over TCP reaps every session without
//!   hanging, even after a client left or under a fault plan, and an
//!   endpoint drop releases a session whose goodbye never arrives; a
//!   SIGKILLed shard server downgrades to an excluded cohort.
//! * **Codecs** — a failed delta cycle costs one dense re-send on every
//!   topology, and sessions report the codec they negotiated.
//! * **Hostile fleets** — robust rules hold where FedAvg is dragged away.
//! * **Surfaces** — the default backend is `Reference` and tiled runs land
//!   within rounding of it, duplicate picks error instead of panicking,
//!   the sharded federation's `Debug` and layout agree, and the per-round
//!   JSON export is stable across transports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gradsec::data::{Dataset, SyntheticMicro};
use gradsec::fl::config::TransportKind;
use gradsec::fl::runner::ShardedFederation;
use gradsec::fl::trainer::{CycleStats, DefaultTrainer, LocalTrainer, PlainSgdTrainer};
use gradsec::fl::{
    AdversaryPlan, Aggregator, CodecKind, ExecutionEngine, FaultPlan, FlError, LatencyModel,
};
use gradsec::nn::{zoo, BackendKind, Sequential};
use gradsec_bench::gate::Deployment::{InProcess, Mux};
use gradsec_bench::gate::{diffs, drive, run, Local, Net, Policy, Scenario, FLAT};

/// 5 of 8 clients a round, three rounds of two sampled batches per cycle.
fn eight(policy: Policy) -> Scenario {
    Scenario {
        cohort: 5,
        rounds: 3,
        local: Local::TwoSteps,
        policy,
        ..Scenario::new(8)
    }
}

/// LeNet-5 on 4 clients, twice, two sampled batches per cycle.
fn lenet(cohort: usize, policy: Policy, backend: BackendKind) -> Scenario {
    Scenario {
        cohort,
        rounds: 2,
        net: Net::LeNet,
        local: Local::TwoSteps,
        policy,
        backend,
        ..Scenario::new(4)
    }
}

/// The wide MLP, so codec metadata cannot mask payload: all 6 clients,
/// three rounds of two sampled batches per cycle.
fn wide(codec: CodecKind) -> Scenario {
    Scenario {
        rounds: 3,
        net: Net::Mlp(32),
        local: Local::TwoSteps,
        codec,
        ..Scenario::new(6)
    }
}

/// 6 of 16 clients a round, three rounds of two sampled batches per
/// cycle, clean.
fn sixteen() -> Scenario {
    Scenario {
        cohort: 6,
        rounds: 3,
        local: Local::TwoSteps,
        ..Scenario::new(16)
    }
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
        _dataset: &dyn Dataset,
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
                Box::new(DefaultTrainer)
            }
        };
        fleet.federation().trainer(trainer).build().unwrap()
    };
    // Reference bills from a clean fleet, same picks.
    let mut clean = build(false);
    let download = clean.server().download(vec![1]);
    let (_, clean_ledger) = ExecutionEngine::sequential()
        .execute_cycles_with(clean.clients_mut(), &[0, 2, 3], &download, None)
        .unwrap();
    assert!(clean_ledger.client(2).unwrap().crossings > 0);
    for workers in [1usize, 2, 4] {
        let mut fed = build(true);
        let download = fed.server().download(vec![1]);
        let (outcomes, ledger) = ExecutionEngine::new(workers)
            .execute_cycles_with(fed.clients_mut(), &[0, 2, 3], &download, None)
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
    use gradsec::fl::transport::mux::{MuxFleet, DEFAULT_JOIN_GRACE};
    use gradsec::fl::transport::{tcp, RemoteClient};
    use gradsec::fl::MuxOptions;
    within_secs(30, "endpoint-drop release", || {
        let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let ds = Arc::new(SyntheticMicro::new(8, 2, 4, 1));
        let client = FlClient::new(
            5,
            DeviceProfile::trustzone(5),
            ds,
            (0..8).collect(),
            zoo::tiny_mlp(4, 3, 2, 1).unwrap(),
            Box::new(PlainSgdTrainer),
        );
        // One device: a one-session fleet.
        let mut device = MuxFleet::launch(addr, vec![client], &MuxOptions::default()).unwrap();
        let endpoint = listener.accept().unwrap();
        let remote = RemoteClient::connect(Box::new(endpoint)).unwrap();
        assert_eq!(remote.id(), 5);
        // No goodbye: the drop alone must end the session with a
        // disconnect, so the join returns long before its grace runs
        // out. This is the property `LocalFleet::teardown` relies on when
        // a goodbye is lost.
        drop(remote);
        let started = Instant::now();
        let outcome = device.join(DEFAULT_JOIN_GRACE);
        let waited = started.elapsed();
        assert!(waited < DEFAULT_JOIN_GRACE / 10, "join waited {waited:?}");
        assert!(outcome.is_err(), "session saw the disconnect");
    });
}

#[test]
fn killed_shard_downgrades_to_excluded_cohort() {
    // The paper's enclave policy: shard servers train it in the enclave.
    let fleet = eight(Policy::Secure);
    let mut coord = fleet.federation().shards(2).workers(1).launch().unwrap();
    let first = coord.run_round().unwrap();
    assert_eq!(first.participants.len(), 5);
    let (sent, received) = coord.bytes_on_wire();
    // Handshake, configuration, one screen and one round over two shard
    // channels, to the byte: each channel carries four frames each way
    // (hello, config, screen, round, and their replies), each behind an
    // 11-byte header, so 8 × 11 = 88 header bytes each way. Sent:
    // 88 + 2 480 payload bytes = 2 568, where each shard's config
    // carries its 4-client device list: an 8-byte count and 4 TrustZone
    // profiles of 63 bytes (key count 8, "device-key-N" 12, TA presence
    // flag 1, uuid 16, code count 8, TA code 18). Received: 88 + 3 002
    // payload bytes = 3 090, where each round reply is one list of
    // slot-tagged outcomes and each of the five completed terms carries
    // its bill.
    assert_eq!((sent, received), (2568, 3090), "shard-control bytes moved");

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
        // The survivors' bills come from the shard server's enclave.
        for entry in report.ledger.entries() {
            let id = entry.client_id;
            assert!(entry.time.kernel_s > 0.0, "client {id}: no kernel time");
            assert!(entry.tee_peak_bytes > 0, "client {id}: no enclave memory");
        }
    }
    // Teardown must not report the deliberate kill as an error.
    coord.shutdown().unwrap();
}

/// A plain trainer whose second cycle fails after its training step.
struct FailsSecondCycle(usize);

impl LocalTrainer for FailsSecondCycle {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> Result<CycleStats, FlError> {
        let stats = PlainSgdTrainer.train_cycle(
            model,
            dataset,
            batches,
            learning_rate,
            protected_layers,
        )?;
        self.0 += 1;
        if self.0 == 2 {
            return Err(FlError::BadConfig {
                reason: "second cycle fails".to_owned(),
            });
        }
        Ok(stats)
    }
}

#[test]
fn a_failed_delta_cycle_costs_one_dense_download_on_every_topology() {
    const FLAKY: u64 = 2;
    let configured = || {
        wide(CodecKind::DeltaTopK)
            .federation()
            // Tolerance only: the failed cycle is recorded, not fatal.
            .faults(FaultPlan::seeded(1))
            .trainer(|id| match id {
                FLAKY => Box::new(FailsSecondCycle(0)),
                _ => Box::new(PlainSgdTrainer),
            })
    };
    let flat = drive("flat", configured());
    let sharded = configured().shards(2).engine(ExecutionEngine::new(2));
    let mux = configured().transport(TransportKind::TcpMux);
    for (shape, builder) in [("2 shards", sharded), ("mux", mux)] {
        let (report, weights) = drive(shape, builder);
        assert_eq!(report, flat.0, "{shape}: report");
        assert_eq!(weights, flat.1, "{shape}: weights");
    }
    let flat = flat.0;
    // Every client is picked every round, so the second cycle is round 1.
    assert_eq!(flat.rounds[1].failures, [FLAKY as usize]);
    let wire = |round: usize| flat.rounds[round].ledger.client(FLAKY).unwrap().wire;
    let dense = wire(0).download_encoded_bytes;
    // The client dropped its view with the failed cycle: round 2's delta
    // is refused and re-sent dense, and both frames are billed.
    let resent = wire(2).download_encoded_bytes;
    assert!(resent > dense, "round 2 billed {resent}, dense is {dense}");
    assert!((resent - dense) * 3 <= wire(2).download_raw_bytes);
}

#[test]
fn sessions_report_their_negotiated_codec() {
    let fed = wide(CodecKind::Int8).federation().build().unwrap();
    assert!(fed.clients().iter().all(|c| c.codec() == CodecKind::Int8));
    fed.shutdown().unwrap();
}

#[test]
fn robust_aggregation_holds_where_fedavg_degrades() {
    let clean = run(&sixteen(), FLAT).1;
    // A third of the fleet poisons hard.
    let poisoned = AdversaryPlan::seeded(0xAD5)
        .poisoners(0.34)
        .poison_strength(4.0)
        .poison_noise(0.5);
    let drift = |aggregator: Aggregator| {
        let hostile = Scenario {
            adversaries: Some(poisoned.clone()),
            aggregator,
            ..sixteen()
        };
        let weights = run(&hostile, FLAT).1;
        diffs(&weights, &clean).map(|d| d * d).sum::<f64>().sqrt()
    };
    let fedavg = drift(Aggregator::FedAvg);
    for robust in [Aggregator::Median, Aggregator::TrimmedMean { trim: 2 }] {
        let drift = drift(robust);
        assert!(
            drift < fedavg,
            "{} drifted {drift} from clean, fedavg {fedavg}",
            robust.name()
        );
    }
}

/// The builder default is `Reference` and is bit-identical to passing
/// that kind explicitly; tiled runs land within kernel-rounding distance
/// of reference but are *not* required to match bits.
#[test]
fn backends_agree_within_rounding_and_default_is_reference() {
    let open = |backend| lenet(2, Policy::Open, backend);
    // A scenario on the default backend leaves the builder's default alone.
    let (default_report, default_weights) = run(&open(BackendKind::default()), FLAT);
    let explicit = open(BackendKind::Reference).federation();
    let (ref_report, ref_weights) = drive(
        "explicit reference",
        explicit.backend(BackendKind::Reference),
    );
    assert_eq!(
        default_report, ref_report,
        "default backend is not `Reference`"
    );
    assert_eq!(default_weights, ref_weights);

    // The tiled backend (register-tiled GEMM, virtual-im2col conv,
    // fused activations — whichever micro-kernel ISA the host resolves)
    // honours the same whole-run contract: identical control flow,
    // kernel arithmetic within rounding distance of reference.
    let (tld_report, tld_weights) = run(&open(BackendKind::Tiled), FLAT);
    assert_eq!(tld_report.rounds_completed, ref_report.rounds_completed);
    for (r, t) in ref_report.rounds.iter().zip(&tld_report.rounds) {
        assert_eq!(
            r.participants, t.participants,
            "selection must not depend on backend"
        );
        assert!(
            (r.mean_loss - t.mean_loss).abs() < 1e-3,
            "round {}: loss {} vs {}",
            r.round,
            r.mean_loss,
            t.mean_loss
        );
    }
    for (a, t) in ref_weights.iter().zip(tld_weights.iter()) {
        assert!(
            a.w.approx_eq(&t.w, 1e-2),
            "tiled weights drifted past rounding distance"
        );
        assert!(a.b.approx_eq(&t.b, 1e-2));
    }
}

#[test]
fn duplicate_pick_schedules_error_instead_of_panicking() {
    let mut fed = eight(Policy::Secure).federation().build().unwrap();
    let download = fed.server().download(vec![]);
    for engine in [ExecutionEngine::sequential(), ExecutionEngine::new(4)] {
        let err = engine
            .execute_cycles_with(fed.clients_mut(), &[0, 3, 0], &download, None)
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
    }
}

#[test]
fn sharded_federation_debug_and_layout_are_coherent() {
    let sharded = eight(Policy::Secure).federation().shards(4);
    let fed: ShardedFederation = sharded.build_sharded().unwrap();
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

#[test]
fn per_round_json_export_is_stable_across_transports() {
    let secure = lenet(3, Policy::Secure, BackendKind::default());
    let (inproc_report, _) = run(&secure, FLAT);
    let (tcp_report, _) = run(&secure, Mux(1, 2));
    assert_eq!(inproc_report.to_json(), tcp_report.to_json());
    let json = tcp_report.to_json();
    assert!(json.contains(r#""rounds_completed":2"#), "{json}");
    assert!(
        json.contains(r#""ledger":{"entries":[{"client_id":"#),
        "{json}"
    );
}
