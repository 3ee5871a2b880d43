//! The **hostile-fleet gate**: kilo-client rounds with a pinned 20%
//! poisoner fraction must (a) stay bit-identical across every execution
//! path — flat over the in-process and multiplexed transports,
//! engine-sharded, and real shard-server processes — under
//! one scenario seed, and (b) demonstrate the robustness separation:
//! coordinate-trimmed mean and median commit within a pinned divergence
//! bound of the clean (adversary-free) reference while plain FedAvg
//! blows past it.
//!
//! The gate table (divergence numbers, per-path identity bits) goes to
//! stdout; the bin exits non-zero on any determinism miss or a robust
//! aggregator that fails to hold the bound.
//!
//! Environment:
//!
//! * `GRADSEC_ADV_SESSIONS=n` — fleet size (default 1000).

use std::sync::Arc;
use std::time::Instant;

use gradsec_data::SyntheticMicro;
use gradsec_fl::config::{TrainingPlan, TransportKind};
use gradsec_fl::message::{DatasetSpec, ModelSpec};
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::{AdversaryPlan, Aggregator, DistributedCoordinator, ExecutionEngine};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::zoo;
use gradsec_tee::cost::json_number;

const DIM: usize = 8;
const SCENARIO_SEED: u64 = 0xAD5E;
/// The pinned hostile fraction the gate certifies against.
const POISONERS: f64 = 0.20;
/// Robust aggregators must land within this L2 distance of the clean
/// reference; plain FedAvg under the same fleet must exceed it. Measured
/// across 200–4000-client fleets the robust estimators stay below 0.05
/// and poisoned FedAvg above 0.4, so the pinned bound has at least a 2×
/// margin on both sides — the gate trips on regressions, not on noise.
const DIVERGENCE_BOUND: f64 = 0.2;

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

/// The pinned hostile scenario: a fifth of the fleet poisons hard.
fn scenario() -> AdversaryPlan {
    AdversaryPlan::seeded(SCENARIO_SEED)
        .poisoners(POISONERS)
        .poison_strength(8.0)
        .poison_noise(1.0)
}

fn flat_builder(clients: usize, plan: TrainingPlan) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(plan)
        .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
        .clients(clients, data)
}

fn run_flat(builder: FederationBuilder) -> (FederationReport, ModelWeights) {
    let mut fed = builder.build().expect("flat federation builds");
    let report = fed.run().expect("flat federation runs");
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean flat teardown");
    (report, weights)
}

fn l2(a: &ModelWeights, b: &ModelWeights) -> f64 {
    let mut sum = 0.0f64;
    for (x, y) in a.iter().zip(b.iter()) {
        for (p, q) in x.w.data().iter().zip(y.w.data()) {
            sum += f64::from(p - q) * f64::from(p - q);
        }
        for (p, q) in x.b.data().iter().zip(y.b.data()) {
            sum += f64::from(p - q) * f64::from(p - q);
        }
    }
    sum.sqrt()
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "bit-identical"
    } else {
        "DIVERGED"
    }
}

/// The robustness separation: hostile FedAvg must blow the pinned
/// bound, trimmed mean and median must hold it.
fn robustness_rows(clients: usize) -> (String, bool) {
    let cohort = (clients / 16).max(5);
    let trim = cohort / 4;
    let run_plan = plan(cohort, 6);
    let (_, clean_weights) = run_flat(flat_builder(clients, run_plan));
    let mut ok = true;
    let mut rows = Vec::new();
    for aggregator in [
        Aggregator::FedAvg,
        Aggregator::TrimmedMean { trim },
        Aggregator::Median,
    ] {
        let start = Instant::now();
        let (_, weights) = run_flat(
            flat_builder(clients, run_plan)
                .adversaries(scenario())
                .aggregator(aggregator),
        );
        let wall_s = start.elapsed().as_secs_f64();
        let divergence = l2(&weights, &clean_weights);
        let holds = match aggregator {
            Aggregator::FedAvg => divergence > DIVERGENCE_BOUND,
            _ => divergence <= DIVERGENCE_BOUND,
        };
        ok &= holds;
        eprintln!(
            "  {}: {divergence:.4} from clean (bound {DIVERGENCE_BOUND}), {wall_s:.3}s ({})",
            aggregator.name(),
            if holds { "ok" } else { "GATE MISS" }
        );
        rows.push(format!(
            r#"{{"aggregator":"{}","divergence":{},"wall_s":{},"holds":{holds}}}"#,
            aggregator.name(),
            json_number(divergence),
            json_number(wall_s),
        ));
    }
    (rows.join(","), ok)
}

/// The hostile fleet must commit the same bits on every in-process
/// path: flat over both transports, plus engine shards.
fn transport_identity(clients: usize) -> (FederationReport, ModelWeights, bool) {
    let cohort = (clients / 16).max(5);
    let run_plan = plan(cohort, 1);
    let (ref_report, ref_weights) = run_flat(
        flat_builder(clients, run_plan)
            .adversaries(scenario())
            .aggregator(Aggregator::Median),
    );
    let start = Instant::now();
    let (report, weights) = run_flat(
        flat_builder(clients, run_plan)
            .adversaries(scenario())
            .aggregator(Aggregator::Median)
            .transport(TransportKind::TcpMux)
            .engine(ExecutionEngine::new(4)),
    );
    let mut ok = report == ref_report && weights == ref_weights;
    eprintln!(
        "  TcpMux: {:.3}s ({})",
        start.elapsed().as_secs_f64(),
        verdict(ok)
    );
    for shards in [4usize, 16] {
        let mut fed = flat_builder(clients, run_plan)
            .adversaries(scenario())
            .aggregator(Aggregator::Median)
            .shards(shards)
            .engine(ExecutionEngine::new(2))
            .build_sharded()
            .expect("sharded hostile fleet builds");
        let report = fed.run().expect("sharded hostile fleet runs");
        let identical = report == ref_report && fed.server().global() == &ref_weights;
        fed.shutdown().expect("clean sharded teardown");
        ok &= identical;
        eprintln!("  {shards} engine shards: {}", verdict(identical));
    }
    (ref_report, ref_weights, ok)
}

/// The hostile fleet across real process boundaries: every
/// `(processes, workers)` cell re-derives identical personas from the
/// shipped scenario plan.
fn process_identity(
    clients: usize,
    ref_report: &FederationReport,
    ref_weights: &ModelWeights,
) -> bool {
    let cohort = (clients / 16).max(5);
    let run_plan = plan(cohort, 1);
    let mut ok = true;
    for (procs, workers) in [(2usize, 2usize), (4, 1)] {
        let start = Instant::now();
        let mut coord = DistributedCoordinator::builder(run_plan)
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
            .adversaries(scenario())
            .aggregator(Aggregator::Median)
            .shards(procs)
            .workers(workers)
            .launch()
            .expect("hostile distributed fleet launches");
        let report = coord.run().expect("hostile distributed round completes");
        let identical = report == *ref_report && coord.server().global() == ref_weights;
        coord.shutdown().expect("clean distributed teardown");
        ok &= identical;
        eprintln!(
            "  {procs} procs x {workers} workers: {:.3}s ({})",
            start.elapsed().as_secs_f64(),
            verdict(identical)
        );
    }
    ok
}

fn main() {
    let clients = env_u64("GRADSEC_ADV_SESSIONS", 1_000).max(16) as usize;
    eprintln!(
        "{clients}-client hostile-fleet gate: {}% poisoners, robustness + cross-path identity…",
        (POISONERS * 100.0) as u32
    );
    let (divergence_json, robust_ok) = robustness_rows(clients);
    let (ref_report, ref_weights, transport_ok) = transport_identity(clients);
    let process_ok = process_identity(clients, &ref_report, &ref_weights);

    let row = format!(
        r#"{{"sessions":{clients},"poisoner_fraction":{},"divergence_bound":{},"robust_holds":{robust_ok},"transport_identical":{transport_ok},"process_identical":{process_ok},"divergence":[{divergence_json}]}}"#,
        json_number(POISONERS),
        json_number(DIVERGENCE_BOUND),
    );
    println!("{row}");
    if !robust_ok {
        eprintln!(
            "FAIL: a robust aggregator missed the divergence bound (or fedavg held it) \
             under {}% poisoners",
            (POISONERS * 100.0) as u32
        );
        std::process::exit(1);
    }
    if !(transport_ok && process_ok) {
        eprintln!("FAIL: a hostile-fleet path diverged from the in-process reference");
        std::process::exit(1);
    }
}
