//! The **multi-process federation gate**: kilo-client rounds driven by a
//! [`DistributedCoordinator`] over real shard-server child processes
//! must be bit-identical to the flat in-process reference for every
//! `(shard processes, workers)` configuration — (1,2,4) × (1,2,4) —
//! plus a fixed-fault-seed run, a sub-sampled-screening run, and a
//! killed-shard run where a SIGKILLed shard process must downgrade to
//! an excluded cohort instead of collapsing the federation.
//!
//! The gate table (wall clocks, bytes on the wire, clients per
//! worker-core) goes to stdout; the bin exits non-zero when any
//! configuration diverges from the reference or the killed-shard run
//! fails to commit.
//!
//! Environment:
//!
//! * `GRADSEC_DIST_SESSIONS=n` — fleet size (default 1000).

use std::sync::Arc;
use std::time::Instant;

use gradsec_data::SyntheticMicro;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::distributed::DistributedBuilder;
use gradsec_fl::message::{DatasetSpec, ModelSpec};
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::{CodecKind, DistributedCoordinator, FaultPlan, LatencyModel};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::zoo;
use gradsec_tee::cost::json_number;

const DIM: usize = 8;
const FAULT_SEED: u64 = 0xFA417;
const PROCS: [usize; 3] = [1, 2, 4];
const WORKERS: [usize; 3] = [1, 2, 4];
/// Codec-row model width (wide enough that tensor metadata cannot mask
/// the lossy codecs' byte reduction — mirrors the `repro_rounds` gate).
const CODEC_DIM: usize = 32;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn plan(clients_per_round: usize, rounds: u64) -> TrainingPlan {
    TrainingPlan {
        rounds,
        clients_per_round,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    }
}

/// The flat in-process reference, built from the exact recipe every
/// shard server reconstructs from its `ShardConfig` (synthetic-micro
/// data under the global partition, tiny MLP, all-TrustZone devices,
/// plain SGD trainers).
fn flat_builder(clients: usize, plan: TrainingPlan) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(plan)
        .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
        .clients(clients, data)
}

fn run_flat(builder: FederationBuilder) -> (FederationReport, ModelWeights) {
    let mut fed = builder.build().expect("flat reference builds");
    let report = fed.run().expect("flat reference runs");
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean flat teardown");
    (report, weights)
}

fn distributed_builder(clients: usize, plan: TrainingPlan) -> DistributedBuilder {
    DistributedCoordinator::builder(plan)
        .clients(
            clients,
            DatasetSpec::Micro {
                len: 2 * clients as u64,
                classes: 2,
                dim: DIM as u64,
                seed: 5,
            },
        )
        .model(ModelSpec::TinyMlp {
            inputs: DIM as u64,
            hidden: 4,
            outputs: 2,
            seed: 13,
        })
}

fn fault_plan() -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED)
        .dropout(0.10)
        .drop_messages(0.05)
        .garble_replies(0.02)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .spare(24)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "bit-identical"
    } else {
        "DIVERGED"
    }
}

struct DistRow {
    procs: usize,
    workers: usize,
    wall_s: f64,
    bytes_out: u64,
    bytes_in: u64,
    identical: bool,
}

/// The (processes × workers) bit-identity matrix against the flat
/// reference. Every cell spawns real shard-server child processes.
fn identity_matrix(clients: usize) -> (Vec<DistRow>, bool) {
    let (ref_report, ref_weights) = run_flat(flat_builder(clients, plan(clients, 1)));
    let mut rows = Vec::new();
    let mut all_identical = true;
    for procs in PROCS {
        for workers in WORKERS {
            let start = Instant::now();
            let mut coord = distributed_builder(clients, plan(clients, 1))
                .shards(procs)
                .workers(workers)
                .launch()
                .expect("distributed fleet launches");
            let report = coord.run().expect("distributed round completes");
            let wall_s = start.elapsed().as_secs_f64();
            let identical = report == ref_report && coord.server().global() == &ref_weights;
            let (bytes_out, bytes_in) = coord.bytes_on_wire();
            coord.shutdown().expect("clean distributed teardown");
            all_identical &= identical;
            eprintln!(
                "  {procs} procs x {workers} workers: {wall_s:.3}s, \
                 {bytes_out}B out / {bytes_in}B in ({})",
                verdict(identical)
            );
            rows.push(DistRow {
                procs,
                workers,
                wall_s,
                bytes_out,
                bytes_in,
                identical,
            });
        }
    }
    (rows, all_identical)
}

/// Fixed fault seed: the distributed faulted round must match the flat
/// faulted round bit for bit (every fault decision is a pure function
/// of seed/client/message, never of which process hosts the client).
fn faulted_identical(clients: usize) -> bool {
    let cohort = (clients / 16).max(1);
    let (ref_report, ref_weights) =
        run_flat(flat_builder(clients, plan(cohort, 1)).faults(fault_plan()));
    let mut ok = true;
    for procs in [2usize, 4] {
        let mut coord = distributed_builder(clients, plan(cohort, 1))
            .faults(fault_plan())
            .shards(procs)
            .workers(2)
            .launch()
            .expect("faulted distributed fleet launches");
        let report = coord.run().expect("faulted distributed round completes");
        let identical = report == ref_report && coord.server().global() == &ref_weights;
        coord.shutdown().expect("clean faulted teardown");
        eprintln!("  faulted, {procs} procs: {}", verdict(identical));
        ok &= identical;
    }
    ok
}

/// Sub-sampled screening: with the per-round candidate cap the
/// distributed pick set (and everything downstream) must still match
/// the flat capped reference.
fn screening_identical(clients: usize) -> bool {
    let cohort = (clients / 16).max(1);
    let cap = (clients / 4).max(1);
    let (ref_report, ref_weights) =
        run_flat(flat_builder(clients, plan(cohort, 2)).screening_sample(cap));
    let mut coord = distributed_builder(clients, plan(cohort, 2))
        .screening_sample(cap)
        .shards(2)
        .workers(2)
        .launch()
        .expect("capped distributed fleet launches");
    let report = coord.run().expect("capped distributed rounds complete");
    let identical = report == ref_report && coord.server().global() == &ref_weights;
    coord.shutdown().expect("clean capped teardown");
    eprintln!("  screening cap {cap} of {clients}: {}", verdict(identical));
    identical
}

/// Per-codec cross-deployment rows: with the *same* codec — identity or
/// lossy — a distributed run must stay bit-identical to the flat run
/// with that codec, ledger byte columns included (the wire bill is a
/// pure function of the exchanged weights). The steady-state
/// bytes-per-round and compression ratio ride along into the artifact.
fn codec_rows(clients: usize) -> (String, bool) {
    let cohort = (clients / 16).max(1);
    let run_plan = plan(cohort, 2);
    let mut ok = true;
    let mut rows = Vec::new();
    for codec in [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK] {
        let data = Arc::new(SyntheticMicro::new(2 * clients, 2, CODEC_DIM, 5));
        let flat = Federation::builder(run_plan)
            .model(|| zoo::tiny_mlp(CODEC_DIM, 16, 2, 13).expect("tiny MLP builds"))
            .clients(clients, data)
            .codec(codec);
        let (ref_report, ref_weights) = run_flat(flat);
        let mut coord = DistributedCoordinator::builder(run_plan)
            .clients(
                clients,
                DatasetSpec::Micro {
                    len: 2 * clients as u64,
                    classes: 2,
                    dim: CODEC_DIM as u64,
                    seed: 5,
                },
            )
            .model(ModelSpec::TinyMlp {
                inputs: CODEC_DIM as u64,
                hidden: 16,
                outputs: 2,
                seed: 13,
            })
            .codec(codec)
            .shards(2)
            .workers(2)
            .launch()
            .expect("codec fleet launches");
        let report = coord.run().expect("codec rounds complete");
        let identical = report == ref_report && coord.server().global() == &ref_weights;
        coord.shutdown().expect("clean codec teardown");
        ok &= identical;
        let wire = report
            .rounds
            .last()
            .expect("codec run completed rounds")
            .ledger
            .total_wire();
        eprintln!(
            "  codec {}: last-round {}B encoded / {}B dense ({:.2}x) ({})",
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            wire.compression_ratio(),
            verdict(identical)
        );
        rows.push(format!(
            r#"{{"codec":"{}","last_round_encoded_bytes":{},"last_round_raw_bytes":{},"compression_ratio":{},"identical":{identical}}}"#,
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            json_number(wire.compression_ratio()),
        ));
    }
    (rows.join(","), ok)
}

/// The stretch fault: SIGKILL one shard process between rounds. The
/// next round must commit from the surviving shard with the dead
/// shard's clients excluded — never a process-wide failure.
fn killed_shard_survives(clients: usize) -> bool {
    let cohort = (clients / 16).max(1);
    let mut coord = distributed_builder(clients, plan(cohort, 2))
        .shards(2)
        .workers(2)
        .launch()
        .expect("kill-run fleet launches");
    let first = coord.run_round().expect("pre-kill round completes");
    coord.kill_shard(1).expect("kill delivers");
    let dead = coord.layout().range(1);
    let second = match coord.run_round() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("  killed shard collapsed the federation: {e}");
            let _ = coord.shutdown();
            return false;
        }
    };
    let excluded = second.participants.iter().all(|c| !dead.contains(c));
    let committed = !second.participants.is_empty();
    let teardown_clean = coord.shutdown().is_ok();
    eprintln!(
        "  killed shard: round {} committed {} participants, dead cohort excluded: {}, \
         teardown clean: {} (pre-kill round committed {})",
        second.round,
        second.participants.len(),
        excluded,
        teardown_clean,
        first.participants.len()
    );
    committed && excluded && teardown_clean
}

fn main() {
    let clients = env_u64("GRADSEC_DIST_SESSIONS", 1_000).max(1) as usize;
    eprintln!(
        "{clients}-client distributed gate: flat reference + (1,2,4 procs) x (1,2,4 workers)…"
    );
    let (rows, matrix_ok) = identity_matrix(clients);
    let faulted_ok = faulted_identical(clients);
    let screening_ok = screening_identical(clients);
    let (codec_json, codec_ok) = codec_rows(clients);
    let kill_ok = killed_shard_survives(clients);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"{{"procs":{},"workers":{},"wall_s":{},"bytes_out":{},"bytes_in":{},"sessions_per_core":{},"identical":{}}}"#,
                r.procs,
                r.workers,
                json_number(r.wall_s),
                r.bytes_out,
                r.bytes_in,
                clients.div_ceil((r.procs * r.workers).min(cores)),
                r.identical
            )
        })
        .collect();
    let row = format!(
        r#"{{"sessions":{clients},"host_cores":{cores},"all_bit_identical":{matrix_ok},"faulted_identical":{faulted_ok},"screening_identical":{screening_ok},"codec_identical":{codec_ok},"killed_shard_survives":{kill_ok},"codecs":[{codec_json}],"matrix":[{}]}}"#,
        json_rows.join(",")
    );
    println!("{row}");
    if !(matrix_ok && faulted_ok && screening_ok && codec_ok) {
        eprintln!("FAIL: a distributed configuration diverged from the flat reference");
        std::process::exit(1);
    }
    if !kill_ok {
        eprintln!("FAIL: a killed shard process did not downgrade to an excluded cohort");
        std::process::exit(1);
    }
}
