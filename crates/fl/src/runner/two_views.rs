//! The two views of a round. Inside [`RoundDriver::run_round`] an update
//! is held in the form it crossed the wire in until the commit reads it;
//! the public eager calls (`RemoteClient::train`,
//! `ExecutionEngine::execute_cycles_with`, `PartialAggregate::push`) hand
//! out and take dense [`UpdateUpload`](crate::message::UpdateUpload)s.
//! Both must commit the same bits and tell the same story, and only the
//! first may skip work: an upload the round does not fold is never
//! expanded.

use gradsec_data::SyntheticMicro;
use gradsec_nn::zoo;

use super::*;
use crate::aggregate::PartialAggregate;
use crate::codec::flatten;
use crate::engine::ClientOutcome;
use crate::faults::LatencyModel;
use crate::message::probe::{self, Event};
use crate::transport::tests::bits;

fn plan(clients_per_round: usize) -> TrainingPlan {
    TrainingPlan {
        rounds: 4,
        clients_per_round,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 1,
    }
}

fn builder(clients: usize, clients_per_round: usize) -> FederationBuilder {
    Federation::builder(plan(clients_per_round))
        .model(|| zoo::tiny_mlp(64, 16, 2, 9).unwrap())
        .clients(clients, Arc::new(SyntheticMicro::new(96, 2, 64, 2)))
}

/// One round long-hand through the public eager calls — `select` →
/// `download` → `execute_cycles_with` → `PartialAggregate::finish_with` →
/// `commit`, what `benchmark/src/staged.rs` does — against a server of
/// the caller's own, with the commit's first-`k` rule spelled out.
fn eager_round(
    shadow: &mut FlServer,
    fed: &mut Federation,
    aggregator: Aggregator,
) -> Result<RoundReport> {
    let round = shadow.round();
    let engine = fed.engine();
    let picked = shadow.select(fed.clients_mut())?;
    let download = shadow.download(Vec::new());
    let (outcomes, ledger) =
        engine.execute_cycles_with(fed.clients_mut(), &picked, &download, None)?;
    let k = shadow.plan().clients_per_round;
    let mut agg = PartialAggregate::new();
    let (mut participants, mut surplus) = (Vec::new(), Vec::new());
    for (slot, (outcome, &ci)) in outcomes.into_iter().zip(&picked).enumerate() {
        match outcome {
            ClientOutcome::Completed(upload) if agg.len() < k => {
                agg.push(slot, upload);
                participants.push(ci);
            }
            ClientOutcome::Completed(_) => surplus.push(ci),
            ClientOutcome::Straggler { .. } => unreachable!("no deadline is set"),
            ClientOutcome::Failed { error, .. } => return Err(error),
        }
    }
    let folded = agg.finish_with(aggregator, Some(shadow.global()))?;
    shadow.commit(folded.weights);
    Ok(RoundReport {
        round,
        participants,
        surplus,
        stragglers: Vec::new(),
        failures: Vec::new(),
        mean_loss: folded.mean_loss,
        protected_layers: Vec::new(),
        ledger,
    })
}

#[test]
fn eager_public_calls_commit_what_run_round_commits() {
    let aggregators = [
        Aggregator::FedAvg,
        Aggregator::TrimmedMean { trim: 1 },
        Aggregator::Median,
    ];
    // (shards, workers, transport) of the federation `run_round` drives;
    // the eager side is always the flat fleet on that transport.
    let deployments = [
        (1, 2, TransportKind::InProcess),
        (2, 1, TransportKind::InProcess),
        (1, 2, TransportKind::TcpMux),
    ];
    for codec in [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK] {
        for aggregator in aggregators {
            for (shards, workers, transport) in deployments {
                let what = format!(
                    "{codec:?}, {}, {shards} shards x {workers} over {transport:?}",
                    aggregator.name()
                );
                let configured = |workers| {
                    builder(8, 6)
                        .codec(codec)
                        .aggregator(aggregator)
                        .transport(transport)
                        .engine(ExecutionEngine::new(workers))
                };
                let mut whole = configured(workers).shards(shards).build().unwrap();
                let mut staged = configured(2).build().unwrap();
                let mut shadow = configured(2)
                    .server(staged.server().global().clone())
                    .unwrap();
                for round in 0..4 {
                    let want = whole.run_round().unwrap();
                    let got = eager_round(&mut shadow, &mut staged, aggregator).unwrap();
                    assert_eq!(got, want, "{what}: round {round} report");
                    assert_eq!(
                        bits(flatten(shadow.global())),
                        bits(flatten(whole.server().global())),
                        "{what}: round {round} weights"
                    );
                }
                whole.shutdown().unwrap();
                staged.shutdown().unwrap();
            }
        }
    }
}

#[test]
fn the_fold_expands_one_upload_at_a_time_and_never_one_it_does_not_fold() {
    // Six clients, all picked every round (four needed, two spare), on
    // one shard and one worker in process: everything a round does
    // happens on this thread, which is what the probe's log covers.
    // Client 1 always overruns the deadline, so each round has one
    // straggler and — five completing, four needed — one surplus upload.
    let faults = || {
        FaultPlan::seeded(11)
            .client_latency(1, LatencyModel::Fixed(100.0))
            .deadline_s(50.0)
            .spare(2)
    };
    let aggregators = [
        Aggregator::FedAvg,
        Aggregator::TrimmedMean { trim: 1 },
        Aggregator::Median,
    ];
    for codec in [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK] {
        for aggregator in aggregators {
            let mut fed = builder(6, 4)
                .codec(codec)
                .aggregator(aggregator)
                .faults(faults())
                .build()
                .unwrap();
            for round in 0..3 {
                probe::take();
                let report = fed.run_round().unwrap();
                let what = format!("{codec:?}, {}, round {round}", aggregator.name());
                assert_eq!(report.participants, [0, 2, 3, 4], "{what}");
                assert_eq!(report.surplus, [5], "{what}");
                assert_eq!(report.stragglers, [1], "{what}");
                // Every outcome arrives in slot order, and a participant's
                // term is folded and dropped before the next one arrives:
                // read in place under FedAvg, which expands nothing. A
                // coordinate-wise rule reads every term in place at the
                // finish. No rule expands an int8 or sparse body.
                let fold = aggregator == Aggregator::FedAvg;
                let per_slot = |ci: usize| {
                    let (id, folded) = (ci as u64, fold && report.participants.contains(&ci));
                    [Event::Arrived(id)]
                        .into_iter()
                        .chain(folded.then_some(Event::Folded(id)))
                };
                let want: Vec<Event> = (0..6).flat_map(per_slot).collect();
                assert_eq!(probe::take(), want, "{what}");
            }
            fed.shutdown().unwrap();
        }
    }
}
