//! Round wall-clock vs engine worker count (1/2/4/8) for LeNet-5 and
//! AlexNet shapes.
//!
//! Each measurement builds a fresh federation and times one full FL
//! round through `ExecutionEngine::new(workers)`.
//!
//! Expect >1.5× at 4 workers on AlexNet shapes on a multi-core host;
//! on a single-core container the engine degrades gracefully to ~1×.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use gradsec_data::SyntheticCifar100;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::Federation;
use gradsec_fl::ExecutionEngine;
use gradsec_nn::{zoo, Sequential};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn federation(model: fn() -> Sequential, clients: usize) -> Federation {
    let data = Arc::new(SyntheticCifar100::with_classes(clients * 16, 2, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(model)
    .clients(clients, data)
    .build()
    .expect("federation builds")
}

fn lenet() -> Sequential {
    zoo::lenet5_with(2, 3).expect("LeNet-5 builds")
}

fn alexnet() -> Sequential {
    zoo::alexnet_with(2, 3).expect("AlexNet builds")
}

fn bench_model(c: &mut Criterion, name: &str, model: fn() -> Sequential) {
    let group_name = format!("engine_round_{name}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(5);
    for workers in WORKER_COUNTS {
        let engine = ExecutionEngine::new(workers);
        group.bench_function(format!("{workers}w"), |b| {
            b.iter_batched(
                || federation(model, 8),
                |mut fed| fed.run_round_with(&engine).expect("round runs"),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_lenet(c: &mut Criterion) {
    bench_model(c, "lenet5", lenet);
}

fn bench_alexnet(c: &mut Criterion) {
    bench_model(c, "alexnet", alexnet);
}

criterion_group!(benches, bench_lenet, bench_alexnet);
criterion_main!(benches);
