//! Transport overhead of one federated round: in-process dispatch vs the
//! channel-backed pair vs loopback TCP.
//!
//! Each group builds one 4-client LeNet-5 federation per transport and
//! times successive FL rounds (screen → download → train → upload →
//! aggregate); fleet setup and teardown stay outside the measurement.
//! The protocol bytes are identical on every transport, so the delta is
//! pure transport cost: envelope copies, thread wake-ups and socket
//! syscalls. A machine-readable summary
//! (median seconds per transport plus the overhead over the in-process
//! round) is written to `target/transport_overhead.json`.
//!
//! Expect loopback TCP within a few percent of in-process for LeNet-5
//! shapes — the round is dominated by training compute, which is the
//! point of the design: the transport seam is cheap enough to leave on.
//!
//! A second group isolates the exchange itself (no training): a
//! model download for the LeNet-5 global weights sent to a client that
//! echoes an error (cheapest legal reply), which bounds the per-message
//! framing + pipe cost alone.
//!
//! A final (non-criterion) probe scales the session count to 1k
//! (`GRADSEC_MUX_SESSIONS` overrides; clamped to the descriptor limit)
//! and times one full round over threaded TCP vs the multiplexed
//! transport, contributing the `sessions_per_core` and
//! `mux_vs_threaded` columns to the JSON summary — the same columns the
//! `repro_rounds` mux gate exports (which overwrites this file in CI).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};

use gradsec_data::{SyntheticCifar100, SyntheticMicro};
use gradsec_fl::codec::{encode_weights, CodecKind};
use gradsec_fl::config::{MuxOptions, TrainingPlan, TransportKind};
use gradsec_fl::message::{encode, EncodedModelDownload, Envelope, MessageKind};
use gradsec_fl::runner::Federation;
use gradsec_fl::transport::inprocess::channel_pair;
use gradsec_fl::transport::poller::{fd_soft_limit, raise_fd_soft_limit};
use gradsec_fl::transport::{tcp, ClientEndpoint, ServerEndpoint};
use gradsec_nn::zoo;

fn federation(transport: TransportKind) -> Federation {
    let data = Arc::new(SyntheticCifar100::with_classes(64, 2, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: 4,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::lenet5_with(2, 3).expect("LeNet-5 builds"))
    .clients(4, data)
    .transport(transport)
    .build()
    .expect("federation builds")
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_round");
    group.sample_size(5);
    for (name, transport) in [
        ("inprocess", TransportKind::InProcess),
        ("tcp", TransportKind::Tcp),
        ("mux", TransportKind::TcpMux),
    ] {
        // One federation per transport, reused across samples (each
        // sample times one additional round), so TCP-only setup/teardown
        // — thread spawns, goodbyes, joins — stays out of the
        // measurement and the exported overhead is pure per-round cost.
        let mut fed = federation(transport);
        group.bench_function(name, |b| b.iter(|| fed.run_round().expect("round runs")));
        fed.shutdown().expect("clean teardown");
    }
    group.finish();
}

fn lenet_download() -> Envelope {
    let model = zoo::lenet5_with(2, 3).expect("LeNet-5 builds");
    Envelope::pack(
        MessageKind::EncodedModelDownload,
        &EncodedModelDownload {
            round: 0,
            weights: encode_weights(CodecKind::Identity, 0, &model.weights(), None),
            plan: TrainingPlan::default(),
            protected_layers: vec![1, 4],
        },
    )
}

/// An echo peer for the exchange-only group: replies to every request
/// with a fixed error envelope (the cheapest legal reply), so the
/// measurement isolates framing + pipe cost from training.
fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_exchange_lenet5_download");
    group.sample_size(10);
    let download = lenet_download();
    let payload_bytes = encode(&download).len();
    eprintln!("exchange payload: {payload_bytes} bytes");

    group.bench_function("channel", |b| {
        let (mut server, mut client) = channel_pair();
        let echo = std::thread::spawn(move || {
            while let Ok(req) = client.recv() {
                if req.kind == MessageKind::Goodbye {
                    break;
                }
                if client.send(Envelope::error("echo")).is_err() {
                    break;
                }
            }
        });
        b.iter(|| server.exchange(download.clone()).expect("echoed"));
        let _ = server.notify(Envelope::control(MessageKind::Goodbye));
        let _ = echo.join();
    });

    group.bench_function("tcp", |b| {
        let listener = tcp::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let echo = std::thread::spawn(move || {
            let mut client = tcp::connect(addr).expect("connect");
            while let Ok(req) = client.recv() {
                if req.kind == MessageKind::Goodbye {
                    break;
                }
                if client.send(Envelope::error("echo")).is_err() {
                    break;
                }
            }
        });
        let mut server = listener.accept().expect("accept");
        b.iter(|| server.exchange(download.clone()).expect("echoed"));
        let _ = server.notify(Envelope::control(MessageKind::Goodbye));
        let _ = echo.join();
    });

    group.finish();
}

criterion_group!(benches, bench_round, bench_exchange);

/// Kilo-session scaling probe: one full round over threaded TCP vs the
/// multiplexed transport at `sessions` clients (every client selected),
/// timed wall-clock including fleet wiring — thread-per-connection pays
/// its thousand spawns here, the mux its event-loop connects; that
/// asymmetry is the measurement. Returns a JSON object for the summary.
fn fleet_probe() -> String {
    let requested = std::env::var("GRADSEC_MUX_SESSIONS")
        .ok()
        .and_then(|v| v.split(',').next().and_then(|t| t.trim().parse().ok()))
        .unwrap_or(1_000usize);
    let cap = raise_fd_soft_limit()
        .or_else(fd_soft_limit)
        .map(|fds| (fds.saturating_sub(64) / 2) as usize)
        .unwrap_or(usize::MAX);
    let sessions = requested.min(cap).max(1);
    let run = |transport| {
        let data = Arc::new(SyntheticMicro::new(2 * sessions, 2, 8, 5));
        let start = Instant::now();
        let mut fed = Federation::builder(TrainingPlan {
            rounds: 1,
            clients_per_round: sessions,
            batches_per_cycle: 1,
            batch_size: 2,
            learning_rate: 0.05,
            seed: 7,
        })
        .model(|| zoo::tiny_mlp(8, 4, 2, 13).expect("tiny MLP builds"))
        .clients(sessions, data)
        .transport(transport)
        .build()
        .expect("fleet builds");
        fed.run().expect("round runs");
        let wall = start.elapsed().as_secs_f64();
        fed.shutdown().expect("clean teardown");
        wall
    };
    eprintln!("fleet probe: {sessions} sessions over threaded TCP…");
    let tcp_s = run(TransportKind::Tcp);
    eprintln!("fleet probe: threaded {tcp_s:.3}s; multiplexed…");
    let mux_s = run(TransportKind::TcpMux);
    let loops = MuxOptions::default().effective_loops();
    eprintln!(
        "fleet probe: mux {mux_s:.3}s ({loops} event loops, {} sessions/core)",
        sessions.div_ceil(loops)
    );
    format!(
        "{{\"sessions\": {sessions}, \"event_loops\": {loops}, \"sessions_per_core\": {}, \
         \"threaded_round_s\": {tcp_s:.6}, \"mux_round_s\": {mux_s:.6}, \
         \"mux_vs_threaded\": {:.4}}}",
        sessions.div_ceil(loops),
        mux_s / tcp_s
    )
}

/// Renders the JSON summary: median seconds per transport plus overhead
/// of each transport over the in-process round.
fn summary_json(c: &Criterion) -> String {
    let baseline = c
        .results()
        .iter()
        .find(|r| r.id == "transport_round/inprocess")
        .map(|r| r.median.as_secs_f64());
    let rows: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            let (group, name) = r.id.split_once('/').unwrap_or((r.id.as_str(), "?"));
            let secs = r.median.as_secs_f64();
            let overhead = if group == "transport_round" {
                baseline
                    .filter(|&b| b > 0.0)
                    .map(|b| (secs / b - 1.0) * 100.0)
            } else {
                None
            };
            format!(
                "    {{\"group\": \"{}\", \"transport\": \"{}\", \"median_s\": {:.9}, \"overhead_vs_inprocess_pct\": {}}}",
                group,
                name,
                secs,
                overhead
                    .map(|o| format!("{o:.2}"))
                    .unwrap_or_else(|| "null".to_owned()),
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmarks\": [\n{}\n  ],\n  \"fleet\": {}\n}}\n",
        rows.join(",\n"),
        fleet_probe()
    )
}

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    let json = summary_json(&c);
    let target = gradsec_bench::workspace_target();
    let path = target.join("transport_overhead.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{json}");
}
