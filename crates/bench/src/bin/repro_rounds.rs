//! Runs a small protected federation and exports every round's report —
//! participants, mean loss, protected layers and the TEE ledger — as JSON
//! (`target/rounds.json` plus stdout), demonstrating the per-round export
//! path repro pipelines consume. Then runs the **multiplexed-transport
//! gate**: kilo-session (and, under `GRADSEC_FULL=1`, ~10k-session)
//! loopback fleets where every `TransportKind::TcpMux` configuration —
//! (1,2,4 workers) × (1,4 shards), plus a fixed-fault-seed run against
//! its in-process twin — must be bit-identical to the flat in-process
//! reference. The gate table goes to stdout; how fast a mux round is is
//! the `benchmark/` package's `fleet_mux_1k` workload, not this bin.
//!
//! A **codec gate** follows: the identity codec must keep the encoded
//! payload path bit-identical to the dense reference (including over the
//! mux transport), and the lossy codecs (`int8`, `delta-topk`) must
//! shrink the steady-state round's bytes at least 3× while their final
//! weights stay within pinned divergence bounds of the identity run.
//! Per-codec bytes-per-round and compression ratios are the table's
//! `codecs` column.
//!
//! Exits non-zero when any mux configuration diverges from the
//! reference, when the faulted mux run diverges from the faulted
//! in-process run, or when a codec breaks bit-identity, the byte bar or
//! its error bound.
//!
//! Environment:
//!
//! * `GRADSEC_TRANSPORT=mux` — drive the export rounds over multiplexed
//!   loopback TCP instead of the in-process transport (the JSON is
//!   bit-identical either way); any other value is refused.
//! * `GRADSEC_ROUNDS=n` — override the export round count (default 5).
//! * `GRADSEC_MUX_SESSIONS=1000,10000` — override the gate fleet sizes
//!   (each clamped to what `RLIMIT_NOFILE` can hold: two descriptors per
//!   loopback session plus headroom).

use std::env::VarError;
use std::sync::Arc;

use gradsec_core::trainer::SecureTrainer;
use gradsec_core::ProtectionPolicy;
use gradsec_data::{SyntheticCifar100, SyntheticMicro};
use gradsec_fl::config::{TrainingPlan, TransportKind};
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::transport::poller::{fd_soft_limit, raise_fd_soft_limit};
use gradsec_fl::{CodecKind, ExecutionEngine, FaultPlan, LatencyModel, MuxOptions};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::zoo;
use gradsec_tee::cost::json_number;

const DIM: usize = 8;
const FAULT_SEED: u64 = 0xFA417;
const MUX_WORKERS: [usize; 3] = [1, 2, 4];
const MUX_SHARDS: [usize; 2] = [1, 4];

/// The codec gate's model width: wide enough that per-tensor metadata
/// (dims, scales, indices) cannot mask the 3× byte reduction the lossy
/// codecs must deliver.
const CODEC_DIM: usize = 32;
/// Rounds per codec-gate run: the delta codec's first exchange is dense
/// (no committed view yet), so the byte bar is measured on the *last*
/// round, in steady state.
const CODEC_ROUNDS: u64 = 3;
/// Byte bar: lossy codecs must shrink the last round's payload at least
/// this factor vs. the dense column.
const CODEC_MIN_RATIO: f64 = 3.0;
/// Pinned compression-error bounds: max |w - w_ref| between a lossy
/// run's final global weights and the identity reference, after
/// `CODEC_ROUNDS` seeded rounds. Deterministic per seed; bounds carry
/// ~2× slack over the observed divergence.
const INT8_MAX_DIVERGENCE: f32 = 0.02;
const TOPK_MAX_DIVERGENCE: f32 = 0.10;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn transport_name(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::InProcess => "in-process",
        TransportKind::TcpMux => "multiplexed-TCP",
    }
}

/// Reads `GRADSEC_TRANSPORT`: unset is the in-process transport, `mux`
/// the multiplexed one. Anything else is an error, not a silent default
/// — CI sets this variable to cover the mux export path, and a typo
/// there must not pass having covered nothing.
fn parse_transport(var: Result<String, VarError>) -> Result<TransportKind, String> {
    let refused = match var.as_deref() {
        Err(VarError::NotPresent) => return Ok(TransportKind::InProcess),
        Ok("mux") => return Ok(TransportKind::TcpMux),
        Ok(other) => format!("{other:?}"),
        Err(e) => e.to_string(),
    };
    Err(format!(
        "GRADSEC_TRANSPORT must be unset (in-process) or `mux` \
         (multiplexed loopback TCP), got {refused}"
    ))
}

/// The per-round export demo (unchanged shape: LeNet-5, protected
/// layers, JSON to `target/rounds.json`).
fn export_rounds(transport: TransportKind) {
    let rounds = env_u64("GRADSEC_ROUNDS", 5);
    let data = Arc::new(SyntheticCifar100::with_classes(96, 2, 5));
    let policy = ProtectionPolicy::static_layers(&[1, 4]).expect("valid layer set");
    let mut fed = Federation::builder(TrainingPlan {
        rounds,
        clients_per_round: 3,
        batches_per_cycle: 2,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::lenet5_with(2, 13).expect("LeNet-5 builds"))
    .clients(4, data)
    .trainer(|_| Box::new(SecureTrainer::new()))
    .scheduler(policy)
    .transport(transport)
    .build()
    .expect("federation builds");
    eprintln!(
        "Running {rounds} protected rounds over the {} transport…",
        transport_name(transport)
    );
    let report = fed.run().expect("federation runs");
    fed.shutdown().expect("clean teardown");
    let json = report.to_json();
    write_json("rounds.json", &json);
    println!("{json}");
}

/// Gate fleet sizes: kilo-session per push, ~10k under `GRADSEC_FULL=1`,
/// each clamped to what the file-descriptor limit can hold (a loopback
/// session burns two descriptors — the mux socket and the server's
/// accepted end — plus headroom for listeners, stdio and the allocator).
fn gate_fleets() -> Vec<usize> {
    let requested: Vec<usize> = std::env::var("GRADSEC_MUX_SESSIONS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| {
            if gradsec_bench::Profile::from_env().is_full() {
                vec![1_000, 10_000]
            } else {
                vec![1_000]
            }
        });
    let cap = raise_fd_soft_limit()
        .or_else(fd_soft_limit)
        .map(|fds| (fds.saturating_sub(64) / 2) as usize)
        .unwrap_or(usize::MAX);
    requested
        .into_iter()
        .map(|n| {
            let clamped = n.min(cap).max(1);
            if clamped < n {
                eprintln!(
                    "clamping {n}-session tier to {clamped}: RLIMIT_NOFILE holds \
                     {cap} loopback sessions"
                );
            }
            clamped
        })
        .collect()
}

fn gate_builder(clients: usize) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED)
        .dropout(0.10)
        .drop_messages(0.05)
        .garble_replies(0.02)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .spare(24)
}

/// A faulted gate round selects a sub-cohort so the over-provisioned
/// selection has spares to promote when the seeded faults shed clients.
fn faulted_builder(clients: usize) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: (clients / 16).max(1),
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
    .faults(fault_plan())
}

fn run(
    builder: FederationBuilder,
    transport: TransportKind,
    shards: usize,
    workers: usize,
) -> (FederationReport, ModelWeights) {
    let mut fed = builder
        .transport(transport)
        .shards(shards)
        .engine(ExecutionEngine::new(workers))
        .build()
        .expect("gate fleet builds");
    let report = fed.run().expect("gate round completes");
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean teardown");
    (report, weights)
}

/// One gate tier: reference + the mux matrix + the faulted pair.
/// Returns the JSON row and whether everything held.
fn gate_tier(sessions: usize) -> (String, bool) {
    eprintln!("{sessions}-session tier: flat in-process reference…");
    let reference = run(gate_builder(sessions), TransportKind::InProcess, 1, 1);

    let mut all_identical = true;
    let mut mux_rows: Vec<String> = Vec::new();
    for workers in MUX_WORKERS {
        for shards in MUX_SHARDS {
            let got = run(
                gate_builder(sessions),
                TransportKind::TcpMux,
                shards,
                workers,
            );
            let identical = got == reference;
            all_identical &= identical;
            eprintln!(
                "  mux {workers} workers x {shards} shards: {}",
                verdict(identical)
            );
            mux_rows.push(format!(
                r#"{{"workers":{workers},"shards":{shards},"identical":{identical}}}"#
            ));
        }
    }

    // Fixed fault seed: the faulted mux round must match the faulted
    // in-process round bit for bit (every fault decision is a pure
    // function of seed/client/message, never of what carries the bytes).
    let faulted_identical = run(faulted_builder(sessions), TransportKind::TcpMux, 1, 2)
        == run(faulted_builder(sessions), TransportKind::InProcess, 1, 2);
    all_identical &= faulted_identical;
    eprintln!(
        "  faulted mux vs faulted in-process: {}",
        verdict(faulted_identical)
    );

    let loops = MuxOptions::default().effective_loops();
    let row = format!(
        r#"{{"sessions":{sessions},"event_loops":{loops},"sessions_per_core":{},"faulted_identical":{faulted_identical},"mux":[{}]}}"#,
        sessions.div_ceil(loops),
        mux_rows.join(",")
    );
    (row, all_identical)
}

fn codec_builder(clients: usize, codec: CodecKind) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, CODEC_DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: CODEC_ROUNDS,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(CODEC_DIM, 16, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
    .codec(codec)
}

fn max_abs_diff(a: &ModelWeights, b: &ModelWeights) -> f32 {
    a.iter()
        .zip(b.iter())
        .flat_map(|(x, y)| {
            x.w.data()
                .iter()
                .zip(y.w.data())
                .chain(x.b.data().iter().zip(y.b.data()))
        })
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f32, f32::max)
}

/// The update-codec gate: identity stays bit-identical to the dense
/// reference across transports, and each lossy codec must shrink the
/// steady-state round by [`CODEC_MIN_RATIO`] while its final weights
/// stay within the pinned divergence bound. Returns the JSON rows and
/// whether every bar held.
fn codec_gate(sessions: usize) -> (String, bool) {
    eprintln!("codec gate ({sessions} clients, {CODEC_ROUNDS} rounds)…");
    let (ref_report, ref_weights) = run(
        codec_builder(sessions, CodecKind::Identity),
        TransportKind::InProcess,
        1,
        1,
    );
    let ref_wire = ref_report
        .rounds
        .last()
        .expect("reference ran rounds")
        .ledger
        .total_wire();

    // Identity over the mux transport: the encoded path must keep the
    // byte-for-byte report/weight identity every other gate relies on.
    let (mux_report, mux_weights) = run(
        codec_builder(sessions, CodecKind::Identity),
        TransportKind::TcpMux,
        1,
        1,
    );
    let identity_identical = mux_report == ref_report
        && mux_weights == ref_weights
        && ref_wire.encoded_bytes() == ref_wire.raw_bytes();
    eprintln!("  identity over mux: {}", verdict(identity_identical));

    let mut ok = identity_identical;
    let mut rows = vec![format!(
        r#"{{"codec":"identity","last_round_encoded_bytes":{},"last_round_raw_bytes":{},"compression_ratio":{},"divergence":0,"ok":{identity_identical}}}"#,
        ref_wire.encoded_bytes(),
        ref_wire.raw_bytes(),
        json_number(ref_wire.compression_ratio()),
    )];
    for (codec, bound) in [
        (CodecKind::Int8, INT8_MAX_DIVERGENCE),
        (CodecKind::DeltaTopK, TOPK_MAX_DIVERGENCE),
    ] {
        let (report, weights) = run(
            codec_builder(sessions, codec),
            TransportKind::InProcess,
            1,
            1,
        );
        let wire = report
            .rounds
            .last()
            .expect("lossy run completed rounds")
            .ledger
            .total_wire();
        let ratio = wire.compression_ratio();
        let divergence = max_abs_diff(&weights, &ref_weights);
        let row_ok = report.rounds_completed == ref_report.rounds_completed
            && ratio >= CODEC_MIN_RATIO
            && divergence <= bound;
        ok &= row_ok;
        eprintln!(
            "  {}: last-round bytes {} vs {} dense ({ratio:.2}x, bar {CODEC_MIN_RATIO:.1}x), \
             divergence {divergence:.5} (bound {bound}) ({})",
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            if row_ok { "ok" } else { "FAILED" }
        );
        rows.push(format!(
            r#"{{"codec":"{}","last_round_encoded_bytes":{},"last_round_raw_bytes":{},"compression_ratio":{},"divergence":{},"ok":{row_ok}}}"#,
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            json_number(ratio),
            json_number(divergence as f64),
        ));
    }
    (rows.join(","), ok)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "bit-identical"
    } else {
        "DIVERGED"
    }
}

fn write_json(name: &str, json: &str) {
    let target = gradsec_bench::workspace_target();
    let path = target.join(name);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let transport = parse_transport(std::env::var("GRADSEC_TRANSPORT")).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    export_rounds(transport);
    let mut all_identical = true;
    let mut tiers = Vec::new();
    let fleets = gate_fleets();
    for &sessions in &fleets {
        let (row, identical) = gate_tier(sessions);
        all_identical &= identical;
        tiers.push(row);
    }
    let (codec_rows, codec_ok) = codec_gate(fleets.first().copied().unwrap_or(1_000));
    println!(
        r#"{{"source":"repro_rounds mux gate","all_bit_identical":{all_identical},"codec_gate_ok":{codec_ok},"codecs":[{codec_rows}],"fleets":[{}]}}"#,
        tiers.join(",")
    );
    if !all_identical {
        eprintln!("FAIL: a mux configuration diverged from the reference");
        std::process::exit(1);
    }
    if !codec_ok {
        eprintln!("FAIL: a codec broke bit-identity, the byte bar or its error bound");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_is_in_process_when_unset() {
        assert_eq!(
            parse_transport(Err(VarError::NotPresent)),
            Ok(TransportKind::InProcess)
        );
    }

    #[test]
    fn transport_mux_selects_the_multiplexed_fleet() {
        assert_eq!(
            parse_transport(Ok("mux".to_owned())),
            Ok(TransportKind::TcpMux)
        );
    }

    #[test]
    fn any_other_transport_value_is_refused_by_name() {
        for bad in ["tcp", "Mux", ""] {
            let err = parse_transport(Ok(bad.to_owned())).unwrap_err();
            assert!(
                err.contains("GRADSEC_TRANSPORT") && err.contains("`mux`"),
                "{err}"
            );
        }
        assert!(parse_transport(Err(VarError::NotUnicode("\u{1}".into()))).is_err());
    }
}
