//! The split-phase parity suite: a walk that keeps a window of sessions
//! in flight must be indistinguishable — reports, weights, epochs, who
//! fails — from one that exchanges with one session at a time.

use std::sync::atomic::{AtomicUsize, Ordering};

use gradsec_data::SyntheticMicro;
use gradsec_nn::zoo;
use gradsec_tee::attestation::Challenge;
use gradsec_tee::cost::SharedLedger;

use super::*;
use crate::codec::flatten;
use crate::engine::{cycle_begin, cycle_finish};
use crate::message::{Envelope, HelloAck, MessageKind};
use crate::selection::screen_one;
use crate::trainer::tests::{Flaky, Mishap};
use crate::transport::broadcast::Broadcast;
use crate::transport::tests::bits;
use crate::transport::{slide, ClientEndpoint, ClientHandler, WINDOW};

/// A federation driven the old way: every candidate screened and every
/// picked client trained by one blocking exchange — a broadcast of its
/// own, which is what `RemoteClient::train` is — one after another. The
/// reference the window and the round-scoped broadcast have to reproduce.
pub(super) struct OneByOne(Federation);

impl Fleet for OneByOne {
    const RUNNER: &'static str = "OneByOne";

    fn layout(&self) -> &ShardLayout {
        self.0.fleet.layout()
    }

    fn screen(&mut self, plan: &ScreenPlan) -> Vec<ScreeningOutcome> {
        let fleet = &mut self.0.fleet;
        let probes = plan.candidates.iter().zip(&plan.challenges);
        probes
            .map(|(&i, challenge)| screen_one(&mut fleet.clients[i], fleet.measurement, challenge))
            .collect()
    }

    fn execute(&mut self, picked: &[usize], download: &ModelDownload) -> Result<Executed> {
        let fleet = &mut self.0.fleet;
        let ledger = SharedLedger::new();
        let outcomes = picked
            .iter()
            .map(|&ci| {
                let (client, alone) = (&mut fleet.clients[ci], Broadcast::new(download));
                let sent = cycle_begin(client, &alone).map(|(sent, _)| sent);
                cycle_finish(client, sent, &alone, &ledger, fleet.faults.as_deref())
            })
            .collect();
        Ok(Executed {
            outcomes,
            ledger: ledger.into_round_ledger(),
            cohort_lost: false,
        })
    }

    fn teardown(&mut self) -> Result<()> {
        self.0.fleet.teardown()
    }
}

impl RoundDriver<OneByOne> {
    fn clients(&self) -> &[RemoteClient] {
        self.fleet.0.clients()
    }
}

pub(super) fn one_by_one(configured: impl Fn() -> FederationBuilder) -> RoundDriver<OneByOne> {
    let inner = configured().build().unwrap();
    let mut setup = configured().setup;
    let server = setup.server(inner.server().global().clone()).unwrap();
    setup.drive(server, OneByOne(inner))
}

fn plan(rounds: u64, clients_per_round: usize) -> TrainingPlan {
    TrainingPlan {
        rounds,
        clients_per_round,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 1,
    }
}

fn model() -> gradsec_nn::Sequential {
    zoo::tiny_mlp(64, 16, 2, 9).unwrap()
}

fn download(round: u64) -> ModelDownload {
    ModelDownload {
        round,
        weights: model().weights(),
        plan: plan(1, 1),
        protected_layers: vec![],
    }
}

fn fl_client(id: u64) -> FlClient {
    FlClient::new(
        id,
        DeviceProfile::trustzone(id),
        Arc::new(SyntheticMicro::new(8, 2, 64, 1)),
        (0..8).collect(),
        model(),
        Box::new(PlainSgdTrainer),
    )
}

fn whitelist() -> Measurement {
    RunSetup::new(plan(1, 1)).measurement
}

/// Training attempts per session: one epoch each, retries included.
fn epochs(clients: &[RemoteClient]) -> Vec<u64> {
    clients.iter().map(RemoteClient::epoch).collect()
}

fn screen_all(clients: &mut [RemoteClient]) -> Vec<ScreeningOutcome> {
    let plan = ScreenPlan {
        candidates: (0..clients.len()).collect(),
        challenges: (0..clients.len())
            .map(|i| Challenge::new([i as u8; 16]))
            .collect(),
    };
    screen_planned(clients, whitelist(), &plan)
}

/// `n` sessions served by a real [`MuxFleet`] (ids `0..n`), every
/// accepted endpoint passed through `wrap` before the handshake, plus
/// whatever `extra` client threads connect to the same listener.
fn mux_sessions(
    n: u64,
    extra: usize,
    codec: CodecKind,
    wrap: impl Fn(Box<dyn ServerEndpoint>) -> Box<dyn ServerEndpoint>,
    connect_extra: impl FnOnce(std::net::SocketAddr),
) -> (Vec<RemoteClient>, MuxFleet) {
    let fleet = (0..n).map(fl_client).collect();
    serve_over_mux(fleet, extra, codec, wrap, connect_extra)
}

/// [`mux_sessions`] over a fleet the caller built.
fn serve_over_mux(
    fleet: Vec<FlClient>,
    extra: usize,
    codec: CodecKind,
    wrap: impl Fn(Box<dyn ServerEndpoint>) -> Box<dyn ServerEndpoint>,
    connect_extra: impl FnOnce(std::net::SocketAddr),
) -> (Vec<RemoteClient>, MuxFleet) {
    let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let n = fleet.len();
    let mux = MuxFleet::launch(addr, fleet, &MuxOptions::default()).unwrap();
    connect_extra(addr);
    let endpoints = (0..n + extra)
        .map(|_| wrap(Box::new(listener.accept().unwrap())))
        .collect();
    let mut clients = RemoteClient::connect_all(endpoints, codec).unwrap();
    clients.sort_by_key(RemoteClient::id);
    (clients, mux)
}

#[test]
fn slide_begins_and_finishes_in_order_within_the_window() {
    // Sessions that stay in flight: the window fills, then slides. A
    // failed begin takes its turn like any other and fails alone.
    let mut log = Vec::new();
    let out = slide(
        &mut log,
        WINDOW + 3,
        |log, i| {
            log.push(('b', i));
            if i == 5 {
                return Err(FlError::disconnected("session 5"));
            }
            Ok((i * 10, false))
        },
        |log, i, sent: Result<usize>| {
            log.push(('f', i));
            sent.map(|sent| assert_eq!(sent, i * 10)).is_ok()
        },
    );
    let all: Vec<usize> = (0..WINDOW + 3).collect();
    assert_eq!(out, all.iter().map(|&i| i != 5).collect::<Vec<_>>());
    let mut in_flight = 0usize;
    let mut high = 0;
    for &(half, _) in &log {
        in_flight = if half == 'b' {
            in_flight + 1
        } else {
            in_flight - 1
        };
        high = high.max(in_flight);
    }
    assert_eq!(high, WINDOW);
    let order = |half| -> Vec<usize> {
        let of_half = log.iter().filter(|(h, _)| *h == half);
        of_half.map(|&(_, i)| i).collect()
    };
    assert_eq!(order('b'), all);
    assert_eq!(order('f'), all);
    // The first finish waits for a full window of begins.
    assert_eq!(log[WINDOW], ('f', 0));
    // Sessions answered inline: strictly one at a time.
    let walk = |n, inline_at: fn(usize) -> bool| {
        let mut log = Vec::new();
        slide(
            &mut log,
            n,
            |log, i| Ok((log.push(('b', i)), inline_at(i))),
            |log, i, _| log.push(('f', i)),
        );
        log
    };
    let want = [('b', 0), ('f', 0), ('b', 1), ('f', 1), ('b', 2), ('f', 2)];
    assert_eq!(walk(3, |_| true), want);
    // An inline answer behind sessions in flight drains them all first.
    let log = walk(4, |i| i == 2);
    assert_eq!(&log[..3], [('b', 0), ('b', 1), ('b', 2)]);
    assert_eq!(&log[3..7], [('f', 0), ('f', 1), ('f', 2), ('b', 3)]);
    assert!(walk(0, |_| false).is_empty());
}

#[test]
fn windowed_rounds_equal_one_exchange_at_a_time_over_a_mux_fleet() {
    let mut shed = 0;
    for codec in [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK] {
        for faulted in [false, true] {
            let configured = || {
                let builder = Federation::builder(plan(5, 6))
                    .model(model)
                    .clients(12, Arc::new(SyntheticMicro::new(96, 2, 64, 2)))
                    .transport(TransportKind::TcpMux)
                    .codec(codec);
                if faulted {
                    builder.faults(
                        FaultPlan::seeded(23)
                            .drop_messages(0.1)
                            .garble_replies(0.2)
                            .spare(2),
                    )
                } else {
                    builder
                }
            };
            let mut reference = one_by_one(configured);
            let want = reference.run().unwrap();
            shed += want.rounds.iter().map(|r| r.failures.len()).sum::<usize>();
            for (shards, workers) in [(1, 1), (2, 2)] {
                let mut fed = configured()
                    .shards(shards)
                    .engine(ExecutionEngine::new(workers))
                    .build()
                    .unwrap();
                let what = format!("{codec:?}, {shards} shards x {workers}, faults: {faulted}");
                assert_eq!(fed.run().unwrap(), want, "{what}: report");
                assert_eq!(
                    fed.server().global(),
                    reference.server().global(),
                    "{what}: weights"
                );
                fed.shutdown().unwrap();
            }
            reference.shutdown().unwrap();
        }
    }
    assert!(shed >= 3, "the fault plan shed {shed} cycles");
}

#[test]
fn a_base_mismatch_inside_a_full_window_recovers_like_the_serial_path() {
    // More sessions than the window holds, all picked every round. A
    // garbled reply makes only the client commit its view; its next
    // delta is refused with BASE_MISMATCH and re-sent dense from inside
    // `finish`, while the window's other sessions wait their turn.
    let rounds = 4;
    let fleet = WINDOW + 8;
    let configured = || {
        Federation::builder(plan(rounds, fleet))
            .model(model)
            .clients(fleet, Arc::new(SyntheticMicro::new(8 * fleet, 2, 64, 2)))
            .transport(TransportKind::TcpMux)
            .codec(CodecKind::DeltaTopK)
            .faults(FaultPlan::seeded(23).garble_replies(0.2))
    };
    let mut reference = one_by_one(configured);
    let want = reference.run().unwrap();
    let mut fed = configured().build().unwrap();
    assert_eq!(fed.run().unwrap(), want);
    assert_eq!(fed.server().global(), reference.server().global());
    assert_eq!(epochs(fed.clients()), epochs(reference.clients()));
    // One epoch per attempt: more epochs than rounds is a dense retry.
    let retried = epochs(fed.clients()).into_iter().filter(|&e| e > rounds);
    assert!(retried.count() >= 1, "no session went through the retry");
}

#[test]
fn a_failed_or_panicked_cycle_costs_one_dense_resend_in_and_out_of_the_window() {
    // Client 2's second cycle goes wrong after a training step has moved
    // the replica it borrowed. The handler took its view before the cycle
    // began, so the view is gone: the next delta is refused with
    // BASE_MISMATCH and re-sent dense, and the one after is sparse again.
    // A panic is only survivable in process, where the engine contains it.
    let (rounds, fleet) = (5, 6usize);
    for (transport, how) in [
        (TransportKind::TcpMux, Mishap::Fails),
        (TransportKind::InProcess, Mishap::Fails),
        (TransportKind::InProcess, Mishap::Panics),
    ] {
        let configured = || {
            Federation::builder(plan(rounds, fleet))
                .model(model)
                .clients(fleet, Arc::new(SyntheticMicro::new(8 * fleet, 2, 64, 2)))
                .transport(transport)
                .codec(CodecKind::DeltaTopK)
                // The tolerance-only plan: a failed client is recorded.
                .faults(FaultPlan::seeded(1))
                .trainer(move |id| match id {
                    2 => Flaky::boxed(1, how),
                    _ => Box::new(PlainSgdTrainer),
                })
        };
        let mut reference = one_by_one(configured);
        let want = reference.run().unwrap();
        let mut fed = configured()
            .shards(2)
            .engine(ExecutionEngine::new(2))
            .build()
            .unwrap();
        assert_eq!(fed.run().unwrap(), want);
        assert_eq!(fed.server().global(), reference.server().global());
        assert_eq!(epochs(fed.clients()), epochs(reference.clients()));
        // One epoch per attempt: exactly one retry, and it is client 2's.
        let attempts: Vec<u64> = (0..fleet).map(|i| rounds + u64::from(i == 2)).collect();
        assert_eq!(epochs(fed.clients()), attempts);
        let failed: Vec<&[usize]> = want.rounds.iter().map(|r| &r.failures[..]).collect();
        assert_eq!(failed, [&[][..], &[2], &[], &[], &[]]);
        let wire = |round: usize| want.rounds[round].ledger.client(2).unwrap().wire;
        let dense = wire(0).download_encoded_bytes;
        let sparse = |bytes: u64| bytes * 3 <= wire(0).download_raw_bytes;
        assert!(!sparse(dense));
        let resent = wire(2).download_encoded_bytes;
        assert!(
            resent > dense && sparse(resent - dense),
            "{resent} vs {dense}"
        );
        assert!(sparse(wire(3).download_encoded_bytes));
        assert!(sparse(wire(4).download_encoded_bytes));
        fed.shutdown().unwrap();
        reference.shutdown().unwrap();
    }
}

#[test]
fn replicas_a_mux_fleet_hands_back_are_the_committed_views() {
    // Five delta sessions, four rounds; client 4 sits round 2 out, so its
    // last delta is decoded against an older view than the others'.
    let all = [0, 1, 2, 3, 4];
    let (mut clients, mut mux) = mux_sessions(5, 0, CodecKind::DeltaTopK, |e| e, |_| ());
    let mut next = download(0);
    for round in 0..4 {
        next.round = round;
        let picked = if round == 2 { &all[..4] } else { &all[..] };
        let (outcomes, _) = ExecutionEngine::new(2)
            .execute_cycles(&mut clients, picked, &next)
            .unwrap();
        assert!(outcomes.iter().all(ClientOutcome::is_completed));
        next.weights = outcomes[0].update().unwrap().weights.clone();
    }
    let views: Vec<ModelWeights> = clients
        .iter()
        .map(|c| c.view_weights().expect("a delta session commits").clone())
        .collect();
    assert_ne!(views[3], views[4], "two histories");
    for client in &mut clients {
        client.goodbye().unwrap();
    }
    drop(clients);
    let mut served = mux.join_handlers(DEFAULT_JOIN_GRACE).unwrap();
    served.sort_by_key(|handler| handler.client().id());
    assert_eq!(served.len(), views.len());
    for (handler, view) in served.iter().zip(&views) {
        let held = handler.view_weights().expect("the client committed too");
        let id = handler.client().id();
        assert_eq!(bits(flatten(held)), bits(flatten(view)), "client {id}");
    }
}

#[test]
fn a_lockstep_group_shares_one_client_view_in_process_and_over_a_mux() {
    // Five delta sessions of one fleet, four rounds; client 4 sits round
    // 2 out. After every round each client's view is bit for bit its
    // session's server view, and the clients that have been picked
    // together every round hold one allocation between them.
    let all = [0, 1, 2, 3, 4];
    for transport in [TransportKind::InProcess, TransportKind::TcpMux] {
        let models = ClientModels::new(model());
        let fleet: Vec<FlClient> = (0..5)
            .map(|id| {
                let data = Arc::new(SyntheticMicro::new(8, 2, 64, 1));
                let trainer = Box::new(PlainSgdTrainer);
                let device = DeviceProfile::trustzone(id);
                FlClient::hosted(id, device, data, (0..8).collect(), models.clone(), trainer)
            })
            .collect();
        let (mut clients, mux) = match transport {
            TransportKind::InProcess => {
                let endpoints = fleet
                    .into_iter()
                    .map(|c| Box::new(LocalEndpoint::new(c)) as _);
                let clients = RemoteClient::connect_all(endpoints.collect(), CodecKind::DeltaTopK);
                (clients.unwrap(), None)
            }
            TransportKind::TcpMux => {
                let (clients, mux) = serve_over_mux(fleet, 0, CodecKind::DeltaTopK, |e| e, |_| ());
                (clients, Some(mux))
            }
        };
        let mut next = download(0);
        for round in 0..4 {
            next.round = round;
            let picked = if round == 2 { &all[..4] } else { &all[..] };
            let (outcomes, _) = ExecutionEngine::new(2)
                .execute_cycles(&mut clients, picked, &next)
                .unwrap();
            assert!(outcomes.iter().all(ClientOutcome::is_completed));
            next.weights = outcomes[0].update().unwrap().weights.clone();
            let held = models.views_held();
            let what = format!("{transport:?}, round {round}");
            assert_eq!(held.len(), 5, "{what}");
            for (client, view) in clients.iter().zip(held.values()) {
                let server = client.view_weights().expect("a delta session commits");
                assert_eq!(bits(flatten(view)), bits(flatten(server)), "{what}");
            }
            for id in 1..4 {
                assert!(Arc::ptr_eq(&held[&0], &held[&id]), "{what}: client {id}");
            }
            let apart = round >= 2;
            assert_eq!(
                !Arc::ptr_eq(&held[&0], &held[&4]),
                apart,
                "{what}: client 4"
            );
        }
        drop((clients, mux));
    }
}

#[test]
fn a_session_killed_mid_window_fails_alone() {
    // Client 3 is a hand-rolled session that answers the handshake and
    // the attestation, then hangs up on reading its download: the
    // server's `begin` succeeded, its `finish` meets a dead socket.
    let mut victim = None;
    let (mut clients, mux) = mux_sessions(
        3,
        1,
        CodecKind::Identity,
        |endpoint| endpoint,
        |addr| {
            victim = Some(std::thread::spawn(move || {
                let mut endpoint = tcp::connect(addr).unwrap();
                let mut handler = ClientHandler::new(fl_client(3));
                loop {
                    let request = endpoint.recv().unwrap();
                    if request.kind == MessageKind::EncodedModelDownload {
                        return;
                    }
                    endpoint.send(handler.handle(request).unwrap()).unwrap();
                }
            }));
        },
    );
    assert_eq!(screen_all(&mut clients), [ScreeningOutcome::Eligible; 4]);
    let engine = ExecutionEngine::sequential();
    let (outcomes, ledger) = engine
        .execute_cycles(&mut clients, &[0, 1, 2, 3], &download(0))
        .unwrap();
    victim.unwrap().join().unwrap();
    assert!(outcomes[..3].iter().all(ClientOutcome::is_completed));
    assert!(
        matches!(outcomes[3].error(), Some(FlError::Transport { .. })),
        "{:?}",
        outcomes[3]
    );
    assert_eq!(ledger.len(), 4);
    // The next round still runs: the dead session screens out — whether
    // its `begin` meets EPIPE or its `finish` a reset — and alone.
    let verdicts = screen_all(&mut clients);
    assert_eq!(verdicts[..3], [ScreeningOutcome::Eligible; 3]);
    assert_eq!(verdicts[3], ScreeningOutcome::Unreachable);
    let (outcomes, _) = engine
        .execute_cycles(&mut clients, &[0, 1, 2], &download(1))
        .unwrap();
    assert!(outcomes.iter().all(ClientOutcome::is_completed));
    drop((clients, mux));
}

/// Panics in one half of the training exchange of one client.
struct Trap {
    inner: Box<dyn ServerEndpoint>,
    client: Option<u64>,
    in_begin: u64,
    in_finish: u64,
    training: bool,
}

impl ServerEndpoint for Trap {
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        self.training = request.kind == MessageKind::EncodedModelDownload;
        if self.training && self.client == Some(self.in_begin) {
            panic!("trap in begin");
        }
        self.inner.begin(request)
    }

    fn finish(&mut self) -> Result<Envelope> {
        if self.training && self.client == Some(self.in_finish) {
            panic!("trap in finish");
        }
        let reply = self.inner.finish()?;
        if let Ok(ack) = reply.open::<HelloAck>(MessageKind::HelloAck) {
            self.client = Some(ack.client_id);
        }
        Ok(reply)
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        self.inner.notify(message)
    }

    fn descriptor(&self) -> String {
        "trap".to_owned()
    }
}

#[test]
fn a_panic_in_either_half_is_contained_to_its_slot() {
    for workers in [1usize, 3] {
        let trap = |inner| -> Box<dyn ServerEndpoint> {
            Box::new(Trap {
                inner,
                client: None,
                in_begin: 1,
                in_finish: 4,
                training: false,
            })
        };
        let (mut clients, mux) = mux_sessions(6, 0, CodecKind::Identity, trap, |_| ());
        let (outcomes, ledger) = ExecutionEngine::new(workers)
            .execute_cycles(&mut clients, &[0, 1, 2, 3, 4, 5], &download(0))
            .unwrap();
        for (slot, outcome) in outcomes.iter().enumerate() {
            match (slot, outcome.error()) {
                (1, Some(FlError::ClientFailure { client: 1, reason })) => {
                    assert!(reason.contains("panicked: trap in begin"), "{reason}")
                }
                (4, Some(FlError::ClientFailure { client: 4, reason })) => {
                    assert!(reason.contains("panicked: trap in finish"), "{reason}")
                }
                (0 | 2 | 3 | 5, None) => assert!(outcome.is_completed()),
                other => panic!("{workers} workers: {other:?}"),
            }
        }
        assert_eq!(ledger.len(), 6);
        assert_eq!(ledger.client(1).unwrap().time.total_s(), 0.0);
        drop((clients, mux));
    }
}

/// Counts the sessions between a successful `begin` and their `finish`.
#[derive(Default)]
struct Gauge {
    now: AtomicUsize,
    high: AtomicUsize,
}

struct Gauged {
    inner: Box<dyn ServerEndpoint>,
    gauge: Arc<Gauge>,
}

impl ServerEndpoint for Gauged {
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        let inline = self.inner.begin(request)?;
        let now = self.gauge.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.gauge.high.fetch_max(now, Ordering::SeqCst);
        Ok(inline)
    }

    fn finish(&mut self) -> Result<Envelope> {
        self.gauge.now.fetch_sub(1, Ordering::SeqCst);
        self.inner.finish()
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        self.inner.notify(message)
    }

    fn descriptor(&self) -> String {
        "gauged".to_owned()
    }
}

#[test]
fn sessions_in_flight_stay_within_the_window_and_at_one_in_process() {
    let n = 2 * WINDOW as u64 + 5;
    let all: Vec<usize> = (0..n as usize).collect();
    let gauge = Arc::new(Gauge::default());
    let gauged = |inner| -> Box<dyn ServerEndpoint> {
        let gauge = gauge.clone();
        Box::new(Gauged { inner, gauge })
    };
    let high = || gauge.high.swap(0, Ordering::SeqCst);
    // Over sockets every walk fills its window and never overfills it:
    // the handshake, screening, a sequential round, and each of two
    // workers of a parallel one.
    let (mut clients, mux) = mux_sessions(n, 0, CodecKind::Identity, gauged, |_| ());
    assert_eq!(high(), WINDOW, "handshake");
    assert!(screen_all(&mut clients)
        .iter()
        .all(|v| *v == ScreeningOutcome::Eligible));
    assert_eq!(high(), WINDOW, "screening");
    for (workers, bound) in [(1, WINDOW), (2, 2 * WINDOW)] {
        let (outcomes, _) = ExecutionEngine::new(workers)
            .execute_cycles(&mut clients, &all, &download(0))
            .unwrap();
        assert!(outcomes.iter().all(ClientOutcome::is_completed));
        let high = high();
        assert!(
            (WINDOW..=bound).contains(&high),
            "{workers} workers: {high}"
        );
    }
    drop((clients, mux));
    // In process the endpoint answers inside `begin`: one at a time.
    let endpoints = (0..n)
        .map(|id| gauged(Box::new(LocalEndpoint::new(fl_client(id)))))
        .collect();
    let mut clients = RemoteClient::connect_all(endpoints, CodecKind::Identity).unwrap();
    screen_all(&mut clients);
    ExecutionEngine::sequential()
        .execute_cycles(&mut clients, &all, &download(0))
        .unwrap();
    assert_eq!(high(), 1, "in process");
    assert_eq!(gauge.now.load(Ordering::SeqCst), 0, "every window drained");
}

#[test]
fn a_session_takes_one_request_at_a_time() {
    let endpoint = Box::new(LocalEndpoint::new(fl_client(7)));
    let mut remote = RemoteClient::connect(endpoint).unwrap();
    let challenge = Challenge::new([1u8; 16]);
    remote.attest_begin(&challenge).unwrap();
    let twice = remote.attest_begin(&challenge).unwrap_err();
    assert!(matches!(twice, FlError::Protocol { .. }), "{twice}");
    assert!(twice.to_string().contains("in flight already"), "{twice}");
    // The refused request displaced nothing: the first reply is there.
    assert!(remote.attest_finish().unwrap().quote.is_some());
    let none = remote.attest_finish().unwrap_err();
    assert!(matches!(none, FlError::Protocol { .. }), "{none}");
    remote.attest(&challenge).unwrap();
}

#[test]
fn a_failed_handshake_still_collects_every_hello_it_sent() {
    // Session 2 acks at a stale version; the sessions begun around it in
    // the same window must still be finished before the error returns.
    struct Stale(Box<dyn ServerEndpoint>);
    impl ServerEndpoint for Stale {
        fn begin(&mut self, request: Envelope) -> Result<bool> {
            self.0.begin(request)
        }
        fn finish(&mut self) -> Result<Envelope> {
            let mut reply = self.0.finish()?;
            reply.payload[0] ^= 0x7f;
            Ok(reply)
        }
        fn notify(&mut self, message: Envelope) -> Result<()> {
            self.0.notify(message)
        }
        fn descriptor(&self) -> String {
            "stale".to_owned()
        }
    }
    let gauge = Arc::new(Gauge::default());
    let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let fleet = (0..5).map(fl_client).collect();
    let mux = MuxFleet::launch(addr, fleet, &MuxOptions::default()).unwrap();
    let endpoints = (0..5)
        .map(|i| {
            let inner: Box<dyn ServerEndpoint> = Box::new(listener.accept().unwrap());
            let inner = if i == 2 {
                Box::new(Stale(inner))
            } else {
                inner
            };
            let gauge = gauge.clone();
            Box::new(Gauged { inner, gauge }) as Box<dyn ServerEndpoint>
        })
        .collect();
    let err = RemoteClient::connect_all(endpoints, CodecKind::Identity).unwrap_err();
    assert!(matches!(err, FlError::Protocol { .. }), "{err}");
    assert_eq!(gauge.high.load(Ordering::SeqCst), 5);
    assert_eq!(gauge.now.load(Ordering::SeqCst), 0);
    drop(mux);
}
