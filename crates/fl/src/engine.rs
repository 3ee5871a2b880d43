//! The federation execution engine: fans one round's client exchanges out
//! across one set of worker deals.
//!
//! Every selected client's local training is independent — each cycle
//! loads the download into a replica it borrows for that cycle alone and
//! trains it on a private shard with a per-client seeded batcher
//! (`plan.seed ^ client_id ^ round`), so exchanges can run on any deal
//! in any order without changing a single bit of the result. Since
//! the transport redesign the engine drives [`RemoteClient`] endpoints
//! rather than touching client structs directly:
//!
//! * the picked endpoints of each [`ShardLayout`] shard are dealt
//!   round-robin, in client order, onto `min(workers, picks in the
//!   shard)` deals, and every deal of every shard runs on its own scoped
//!   thread — one fan-out, whose deals divide the caller's kernel budget
//!   (`gradsec_tensor::ops::threads`) between them, so deals × kernel
//!   bands never exceed the cores; a lone deal runs on the calling
//!   thread. Each deal owns its endpoints for the round and walks them
//!   through the transport's `slide`: the download goes out to a window
//!   of its sessions before the deal waits for the oldest upload, so a
//!   deal's concurrency is the window, not one (an in-process endpoint
//!   trains inside the send and is collected at once, one client at a
//!   time as ever),
//! * each exchange's [`ClientOutcome`] is handed to the caller's sink the
//!   moment its deal finishes it, keyed by the client's position in
//!   the round's selection, so what a round commits never depends on
//!   timing. Inside a round the update goes out as it arrived — the
//!   codec payload that crossed the wire, checked against the session's
//!   view, billed and committed, but not expanded (see [`crate::codec`],
//!   "Who holds what, when") — and the round's commit folds it on
//!   arrival, in any order, unless it is a spare that might prove
//!   surplus, so only such spares are held, and a straggler's is dropped
//!   unexpanded. The public entry point
//!   ([`execute_cycles_with`](ExecutionEngine::execute_cycles_with)) is
//!   that same run with a sink that collects, every completed update
//!   expanded on the way out,
//! * the TEE accounting that arrives *on the wire* with every upload
//!   travels on the outcome itself: a completed or straggling outcome
//!   carries its client's bill, a failed one bills an
//!   [`unbilled`](ClientCycleCost::unbilled) zero-cost entry
//!   (`ClientOutcome::bill`). A round's id-sorted [`RoundLedger`] is
//!   read off its outcomes, one bill per slot, so it accounts every
//!   selected client, success or not, whatever order deals finished in —
//!   and complete even when clients live in other processes — and a
//!   failure can never leak cost into another client's slot.
//!
//! Failure containment: a schedule with duplicate or out-of-range indices
//! is rejected up front ([`FlError::InvalidSelection`]) instead of
//! panicking, and a panic inside either half of one client's exchange — a
//! buggy trainer, a poisoned endpoint — is caught on its deal and
//! surfaced as that client's [`ClientOutcome::Failed`]. One bad client in
//! a 10⁴-client round can therefore no longer kill the *process*; the
//! round's fate stays a policy decision of the runner.
//!
//! Fault injection: [`execute_cycles_with`](ExecutionEngine::execute_cycles_with)
//! threads an optional [`FaultPlan`] through the exchange path. The plan
//! contributes each client's simulated network latency for the round, and
//! when a round deadline is configured, a client whose simulated elapsed
//! time (latency + cycle compute on the simulated clock) overruns it comes
//! back as [`ClientOutcome::Straggler`] — carrying its cost, still billed
//! to the ledger, its update excluded from aggregation — instead of
//! blocking the round. All fault decisions are pure functions of
//! `(fault seed, client, round)`, so they are identical on every deal,
//! shard and transport.
//!
//! Shards are groups of deals, not a second layer of threads: a sharded
//! round validates its global picks once, deals each shard's picks on
//! its own, and runs all the deals in the same scope against the same
//! sink. A deal whose thread dies outside the per-exchange
//! guard fails its undelivered slots; the round still returns.
//!
//! With identical seeds — training *and* fault seeds — a 1-worker and an
//! N-worker engine, over the in-process or the TCP transport, sharded or
//! flat, produce bit-identical round reports and final weights (see the
//! policy and faulted corners of `tests/deployment_matrix.rs` at the
//! workspace root).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use gradsec_tee::cost::{ClientCycleCost, RoundLedger};
use gradsec_tensor::ops::threads;

use crate::config::ShardLayout;
use crate::faults::FaultPlan;
use crate::fleet::{Collected, Sink};
use crate::message::{ArrivedUpload, ModelDownload, UpdateUpload};
use crate::selection::validate_picks;
use crate::transport::broadcast::Broadcast;
use crate::transport::{slide, InFlight, RemoteClient};
use crate::{FlError, Result};

/// How one selected client's exchange ended. `U` is the form the update
/// is held in: the dense [`UpdateUpload`] everywhere the public API
/// shows an outcome, and inside a round the crate-private arrival form —
/// the reply as it crossed the wire, checked but not expanded.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome<U = UpdateUpload> {
    /// The client trained and its update arrived within any deadline.
    Completed(U),
    /// The client trained, but its simulated elapsed time (injected
    /// latency + cycle compute) overran the round deadline; its cost is
    /// billed to the ledger but its update is excluded from aggregation.
    Straggler {
        /// The straggling client.
        client: u64,
        /// Simulated seconds from download to (late) upload.
        elapsed_s: f64,
        /// The cycle's bill, as its upload carried it.
        cost: ClientCycleCost,
    },
    /// The exchange failed: a transport fault, a client-side error
    /// report, or a panic caught on the worker.
    Failed {
        /// The failing client.
        client: u64,
        /// What went wrong.
        error: FlError,
    },
}

impl ClientOutcome {
    /// The client the outcome belongs to.
    pub fn client_id(&self) -> u64 {
        match self {
            ClientOutcome::Completed(u) => u.client_id,
            ClientOutcome::Straggler { client, .. } | ClientOutcome::Failed { client, .. } => {
                *client
            }
        }
    }
}

impl<U> ClientOutcome<U> {
    /// The same outcome with its update, if any, in another form.
    pub(crate) fn map<V>(self, form: impl FnOnce(U) -> V) -> ClientOutcome<V> {
        match self {
            ClientOutcome::Completed(u) => ClientOutcome::Completed(form(u)),
            ClientOutcome::Straggler {
                client,
                elapsed_s,
                cost,
            } => ClientOutcome::Straggler {
                client,
                elapsed_s,
                cost,
            },
            ClientOutcome::Failed { client, error } => ClientOutcome::Failed { client, error },
        }
    }

    /// `true` for [`ClientOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, ClientOutcome::Completed(_))
    }

    /// `true` for [`ClientOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, ClientOutcome::Failed { .. })
    }
}

impl ClientOutcome<ArrivedUpload> {
    /// What the outcome bills the round ledger: a completed or straggling
    /// cycle its cost, a failure a zero-cost entry for its client.
    pub(crate) fn bill(&self) -> ClientCycleCost {
        match self {
            ClientOutcome::Completed(upload) => upload.cost,
            ClientOutcome::Straggler { cost, .. } => *cost,
            ClientOutcome::Failed { client, .. } => ClientCycleCost::unbilled(*client),
        }
    }
}

/// Per-client outcomes of one engine run, in `picked` order, plus the
/// round's TEE ledger (one entry per picked client — zero-cost entries
/// for failures).
pub(crate) type CycleOutcomes = (Vec<ClientOutcome>, RoundLedger);

/// The public, dense view of one engine run's collected outcomes, and the
/// ledger their bills make.
fn expanded(collected: Collected) -> CycleOutcomes {
    let outcomes = collected.into_outcomes();
    let ledger = outcomes.iter().map(ClientOutcome::bill).collect();
    let dense = |o: ClientOutcome<ArrivedUpload>| o.map(ArrivedUpload::expand);
    (outcomes.into_iter().map(dense).collect(), ledger)
}

/// A round-execution strategy: how many workers drive client exchanges
/// concurrently within one FL cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionEngine {
    pub(crate) workers: usize,
}

impl ExecutionEngine {
    /// One client at a time on the calling thread — the reference
    /// behaviour every parallel configuration must reproduce exactly.
    pub fn sequential() -> Self {
        ExecutionEngine { workers: 1 }
    }

    /// Up to `workers` concurrent deals per shard; `0` means one per
    /// available core.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            threads::host()
        } else {
            workers
        };
        ExecutionEngine { workers }
    }

    /// Drives the cycles of the clients listed in `picked` (indices into
    /// `clients`) against `download`, returning per-client outcomes in
    /// `picked` order plus the round's TEE ledger, read off them.
    ///
    /// A failing client (transport error, failed cycle, or a panic inside
    /// its exchange) yields a [`ClientOutcome::Failed`] in its slot; the
    /// other clients' outcomes are unaffected. With a fault plan and a
    /// round deadline, clients whose simulated elapsed time overruns the
    /// deadline yield [`ClientOutcome::Straggler`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] when `picked` contains a
    /// duplicate or out-of-range index — per-client failures are *not*
    /// round errors and live in the returned slots instead.
    pub fn execute_cycles_with(
        &self,
        clients: &mut [RemoteClient],
        picked: &[usize],
        download: &ModelDownload,
        faults: Option<&FaultPlan>,
    ) -> Result<CycleOutcomes> {
        let collected = Collected::new(picked.len());
        let sink = |slot, outcome| collected.put(slot, outcome);
        let layout = ShardLayout::new(clients.len(), 1);
        let broadcast = Broadcast::new(download);
        self.cycles_in(
            clients,
            &layout,
            picked,
            &broadcast,
            faults,
            Sink::new(&sink),
        )?;
        Ok(expanded(collected))
    }

    /// [`execute_cycles_with`](Self::execute_cycles_with) over a fleet cut
    /// into `layout`'s shards, against a broadcast the caller owns — one
    /// per round, so every deal draws its download from the same memo —
    /// handing `sink` each outcome, keyed by its slot in `picked`, as its
    /// deal finishes it, with the upload left as it arrived.
    ///
    /// Each shard's picks are dealt round-robin, in client order, onto
    /// `min(workers, picks in the shard)` deals — a pure function of
    /// `(layout, picked, workers)`, so the partition, and any numeric
    /// consequence of it, is reproducible. The deals of every shard run
    /// concurrently, each under an equal share of the caller's kernel
    /// budget; a lone deal runs on the calling thread.
    pub(crate) fn cycles_in(
        &self,
        clients: &mut [RemoteClient],
        layout: &ShardLayout,
        picked: &[usize],
        broadcast: &Broadcast<'_>,
        faults: Option<&FaultPlan>,
        sink: Sink<'_>,
    ) -> Result<()> {
        debug_assert_eq!(layout.num_clients(), clients.len());
        validate_picks(picked, clients.len())?;
        let mut slot_of: Vec<Option<usize>> = vec![None; clients.len()];
        let mut picks_in = vec![0; layout.num_shards()];
        for (slot, &ci) in picked.iter().enumerate() {
            slot_of[ci] = Some(slot);
            picks_in[layout.shard_of(ci)] += 1;
        }
        // Shard s's deals are first_deal[s]..first_deal[s] + width(s).
        let width = |s: usize| self.workers.min(picks_in[s]);
        let (mut first_deal, mut total) = (Vec::with_capacity(picks_in.len()), 0);
        for s in 0..picks_in.len() {
            first_deal.push(total);
            total += width(s);
        }
        let mut deals: Vec<Vec<(usize, &mut RemoteClient)>> =
            (0..total).map(|_| Vec::new()).collect();
        let mut dealt = vec![0; layout.num_shards()];
        for (ci, client) in clients.iter_mut().enumerate() {
            let Some(slot) = slot_of[ci] else { continue };
            let s = layout.shard_of(ci);
            deals[first_deal[s] + dealt[s] % width(s)].push((slot, client));
            dealt[s] += 1;
        }
        // Which slots reached the sink. Read after every deal joined —
        // the join orders the stores before the loads — so `Relaxed`.
        let delivered: Vec<AtomicBool> = picked.iter().map(|_| AtomicBool::new(false)).collect();
        let run = |deal: &mut [(usize, &mut RemoteClient)]| {
            slide(
                deal,
                deal.len(),
                |deal, k| cycle_begin(deal[k].1, broadcast),
                |deal, k, sent| {
                    let (slot, client) = &mut deal[k];
                    let outcome = cycle_finish(client, sent, broadcast, faults);
                    delivered[*slot].store(true, Ordering::Relaxed);
                    sink.deliver(*slot, outcome);
                },
            );
        };
        match deals.as_mut_slice() {
            [] => {}
            [deal] => run(deal),
            deals => {
                let (run, kernel_threads) = (&run, threads::budget() / deals.len());
                std::thread::scope(|s| {
                    let handles: Vec<_> = deals
                        .iter_mut()
                        .map(|deal| {
                            s.spawn(move || threads::with_budget(kernel_threads, || run(deal)))
                        })
                        .collect();
                    // A deal that died outside the per-exchange guard
                    // (which makes that unreachable in practice) is
                    // settled below, slot by slot, not as the round.
                    for handle in handles {
                        let _ = handle.join();
                    }
                });
            }
        }
        // Every live deal delivered all its slots, so a slot still
        // undelivered belongs to a deal that died: its client fails.
        for (slot, delivered) in delivered.iter().enumerate() {
            if !delivered.load(Ordering::Relaxed) {
                let client = clients[picked[slot]].id();
                let error = FlError::ClientFailure {
                    client,
                    reason: "engine worker panicked".to_owned(),
                };
                sink.deliver(slot, ClientOutcome::Failed { client, error });
            }
        }
        Ok(())
    }
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        ExecutionEngine::sequential()
    }
}

/// Runs one half of a client's exchange, turning a panic inside it
/// (trainer bug, poisoned endpoint state) into that client's failure so
/// it cannot take the worker — and with it the whole round — down.
fn contained<T>(id: u64, half: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(half)).unwrap_or_else(|payload| {
        Err(FlError::ClientFailure {
            client: id,
            reason: format!(
                "client exchange panicked: {}",
                panic_reason(payload.as_ref())
            ),
        })
    })
}

/// Sends one client its download — the `begin` of a [`slide`] over a
/// round's sessions. A failure here is the client's result;
/// [`cycle_finish`] reports it in the client's turn.
pub(crate) fn cycle_begin(
    client: &mut RemoteClient,
    broadcast: &Broadcast<'_>,
) -> Result<(InFlight, bool)> {
    contained(client.id(), || client.train_begin(broadcast))
}

/// Collects one client's upload and classifies the result. On success the
/// simulated elapsed time (injected latency + cycle compute) is checked
/// against any round deadline; overruns come back as stragglers carrying
/// the cost the upload brought across the transport (their payload
/// dropped as it arrived). Failures of either half come back as failed
/// outcomes, which bill a zero-cost entry.
pub(crate) fn cycle_finish(
    client: &mut RemoteClient,
    sent: Result<InFlight>,
    broadcast: &Broadcast<'_>,
    faults: Option<&FaultPlan>,
) -> ClientOutcome<ArrivedUpload> {
    let id = client.id();
    let result = sent.and_then(|sent| contained(id, || client.train_finish(broadcast, sent)));
    match result {
        Ok(upload) => {
            // Draw the latency only when a deadline can consume it: the
            // draw is deterministic either way, but a 10⁴-client round
            // should not pay a per-exchange RNG for a discarded value.
            if let Some(plan) = faults {
                if let Some(deadline) = plan.round_deadline_s() {
                    let round = broadcast.download.round;
                    let elapsed_s = plan.latency_s(id, round) + upload.cost.time.total_s();
                    if elapsed_s > deadline {
                        return ClientOutcome::Straggler {
                            client: id,
                            elapsed_s,
                            cost: upload.cost,
                        };
                    }
                }
            }
            ClientOutcome::Completed(upload)
        }
        Err(error) => ClientOutcome::Failed { client: id, error },
    }
}

/// Best-effort rendering of a panic payload (the two forms `panic!`
/// produces, then a generic fallback).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::codec::CodecKind;
    use crate::config::TrainingPlan;
    use crate::faults::LatencyModel;
    use crate::trainer::tests::BudgetRecorder;
    use crate::trainer::{CycleStats, LocalTrainer, PlainSgdTrainer};
    use crate::transport::inprocess::LocalEndpoint;
    use gradsec_data::{Dataset, SyntheticCifar100};
    use gradsec_nn::{zoo, Sequential};
    use std::sync::Arc;

    #[test]
    fn zero_workers_means_all_cores() {
        assert!(ExecutionEngine::new(0).workers >= 1);
        assert_eq!(ExecutionEngine::new(3).workers, 3);
        assert_eq!(ExecutionEngine::sequential().workers, 1);
        assert_eq!(ExecutionEngine::default(), ExecutionEngine::sequential());
    }

    /// The update of a completed outcome; any other outcome fails the
    /// test.
    pub(crate) fn completed(outcome: &ClientOutcome) -> &UpdateUpload {
        match outcome {
            ClientOutcome::Completed(update) => update,
            other => panic!("expected a completed outcome, got {other:?}"),
        }
    }

    /// A trainer that panics on every cycle — the failure mode the engine
    /// must contain to one client.
    struct PanickingTrainer;

    impl LocalTrainer for PanickingTrainer {
        fn train_cycle(
            &mut self,
            _model: &mut Sequential,
            _dataset: &dyn Dataset,
            _batches: &[Vec<usize>],
            _learning_rate: f32,
            _protected_layers: &[usize],
        ) -> Result<CycleStats> {
            panic!("injected trainer bug");
        }
    }

    /// A plain trainer that also stamps nonzero simulated cost, so these
    /// tests can tell a real bill from a zero-cost failure entry (the
    /// plain baseline itself bills nothing).
    struct BilledTrainer;

    impl LocalTrainer for BilledTrainer {
        fn train_cycle(
            &mut self,
            model: &mut Sequential,
            dataset: &dyn Dataset,
            batches: &[Vec<usize>],
            learning_rate: f32,
            protected_layers: &[usize],
        ) -> Result<CycleStats> {
            let mut stats = PlainSgdTrainer.train_cycle(
                model,
                dataset,
                batches,
                learning_rate,
                protected_layers,
            )?;
            stats.time.user_s = 1.5;
            stats.crossings = 4;
            Ok(stats)
        }
    }

    fn fleet(n: usize, panicking: &[usize]) -> Vec<RemoteClient> {
        fleet_speaking(CodecKind::Identity, n, panicking)
    }

    fn fleet_speaking(codec: CodecKind, n: usize, panicking: &[usize]) -> Vec<RemoteClient> {
        fleet_trained_by(codec, n, |i| {
            if panicking.contains(&i) {
                Box::new(PanickingTrainer)
            } else {
                Box::new(BilledTrainer)
            }
        })
    }

    fn fleet_trained_by(
        codec: CodecKind,
        n: usize,
        trainer: impl Fn(usize) -> Box<dyn LocalTrainer>,
    ) -> Vec<RemoteClient> {
        let ds = Arc::new(SyntheticCifar100::with_classes(4 * n, 2, 1));
        let shards = gradsec_data::split::shard(4 * n, n, 1);
        (0..n)
            .zip(shards)
            .map(|(i, shard)| {
                let client = FlClient::new(
                    i as u64,
                    DeviceProfile::trustzone(i as u64),
                    ds.clone(),
                    shard,
                    zoo::tiny_mlp(3 * 32 * 32, 4, 2, 9).unwrap(),
                    trainer(i),
                );
                RemoteClient::connect_with(Box::new(LocalEndpoint::new(client)), codec).unwrap()
            })
            .collect()
    }

    /// The deals of a round, flat or sharded, divide the caller's kernel
    /// budget instead of each taking the whole host.
    #[test]
    fn fan_out_divides_the_callers_kernel_budget() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut clients = fleet_trained_by(CodecKind::Identity, 6, |_| {
            Box::new(BudgetRecorder(seen.clone()))
        });
        let picked: Vec<usize> = (0..6).collect();
        let take = || std::mem::take(&mut *seen.lock().unwrap());
        for (budget, workers, want) in [(12, 1, 12), (12, 2, 6), (12, 3, 4), (2, 3, 1), (7, 2, 3)] {
            threads::with_budget(budget, || {
                let (outcomes, _) = ExecutionEngine::new(workers)
                    .execute_cycles_with(&mut clients, &picked, &download(), None)
                    .unwrap();
                assert!(outcomes.iter().all(ClientOutcome::is_completed));
                assert_eq!(threads::budget(), budget, "the caller's budget is restored");
            });
            assert_eq!(take(), vec![want; 6], "budget {budget}, {workers} workers");
        }
        // Two shards of three picks, three workers: 6 deals, 12 / 6.
        // Picks 3 + 1 at three workers: 4 deals, 12 / 4.
        let (engine, download) = (ExecutionEngine::new(3), download());
        for (picked, want) in [(&picked[..], 2), (&[0, 1, 2, 3][..], 3)] {
            threads::with_budget(12, || {
                sharded(engine, &mut clients, 2, picked, &download).unwrap();
                assert_eq!(threads::budget(), 12, "the caller's budget is restored");
            });
            assert_eq!(take(), vec![want; picked.len()]);
        }
    }

    /// [`ExecutionEngine::execute_cycles_with`] over `clients` cut into
    /// `shards` by [`ShardLayout::new`], as a `LocalFleet` cuts its own.
    fn sharded(
        engine: ExecutionEngine,
        clients: &mut [RemoteClient],
        shards: usize,
        picked: &[usize],
        download: &ModelDownload,
    ) -> Result<CycleOutcomes> {
        let layout = ShardLayout::new(clients.len(), shards);
        let collected = Collected::new(picked.len());
        let sink = |slot, outcome| collected.put(slot, outcome);
        let broadcast = Broadcast::new(download);
        engine.cycles_in(clients, &layout, picked, &broadcast, None, Sink::new(&sink))?;
        Ok(expanded(collected))
    }

    fn download() -> ModelDownload {
        ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(3 * 32 * 32, 4, 2, 9).unwrap().weights(),
            plan: TrainingPlan {
                rounds: 1,
                clients_per_round: 4,
                batches_per_cycle: 1,
                batch_size: 2,
                learning_rate: 0.05,
                seed: 3,
            },
            protected_layers: vec![],
        }
    }

    /// Bad picks are refused up front on one shard and on two: on two,
    /// before `ShardLayout::shard_of` could panic on an out-of-range one.
    #[test]
    fn duplicate_picks_are_an_error_not_a_panic() {
        let mut clients = fleet(4, &[]);
        for shards in [1, 2] {
            for engine in [ExecutionEngine::sequential(), ExecutionEngine::new(3)] {
                let err =
                    sharded(engine, &mut clients, shards, &[1, 2, 1], &download()).unwrap_err();
                assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
            }
        }
    }

    #[test]
    fn out_of_range_picks_are_an_error_not_a_panic() {
        let mut clients = fleet(4, &[]);
        for shards in [1, 2] {
            let err = sharded(
                ExecutionEngine::new(2),
                &mut clients,
                shards,
                &[0, 5],
                &download(),
            )
            .unwrap_err();
            assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
        }
    }

    #[test]
    fn empty_pick_set_runs_to_an_empty_round() {
        let mut clients = fleet(2, &[]);
        let (results, ledger) = ExecutionEngine::new(2)
            .execute_cycles_with(&mut clients, &[], &download(), None)
            .unwrap();
        assert!(results.is_empty());
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_panicking_client_fails_alone_not_the_round() {
        for workers in [1usize, 3] {
            let mut clients = fleet(4, &[2]);
            let (results, ledger) = ExecutionEngine::new(workers)
                .execute_cycles_with(&mut clients, &[0, 2, 3], &download(), None)
                .unwrap();
            assert_eq!(results.len(), 3);
            assert!(results[0].is_completed(), "{workers} workers: client 0");
            assert!(results[2].is_completed(), "{workers} workers: client 3");
            match &results[1] {
                ClientOutcome::Failed {
                    client: 2,
                    error: FlError::ClientFailure { client: 2, reason },
                } => {
                    assert!(reason.contains("panicked"), "{reason}");
                }
                other => panic!("expected client 2's panic as Failed, got {other:?}"),
            }
            // Every picked client is accounted: the failed one with a
            // zero-cost entry, the successes with their real bills.
            assert_eq!(ledger.len(), 3);
            let failed = ledger.client(2).expect("failed client is in the ledger");
            assert_eq!(failed.crossings, 0);
            assert_eq!(failed.time.total_s(), 0.0);
            for id in [0u64, 3] {
                assert!(ledger.client(id).expect("billed").time.total_s() > 0.0);
            }
        }
    }

    /// A deal that dies outside the per-exchange guard (here, in the
    /// sink) fails exactly the slots it had not delivered; every other
    /// deal, of its own shard or another, completes its slots, and the
    /// round returns.
    #[test]
    fn a_dead_deal_fails_only_its_undelivered_slots() {
        // Flat at two workers the deals are slots {0, 2} and {1, 3}; two
        // shards at one worker, {0, 1} and {2, 3}. Either way slot 0's
        // delivery kills the first deal before it finishes its second.
        for (workers, shards, lost, done) in [(2, 1, 2, [1, 3]), (1, 2, 1, [2, 3])] {
            let got = std::sync::Mutex::new((0..4).map(|_| None).collect::<Vec<_>>());
            let tripped = AtomicBool::new(false);
            let sink = |slot: usize, outcome: ClientOutcome<ArrivedUpload>| {
                if slot == 0 && !tripped.swap(true, Ordering::Relaxed) {
                    panic!("injected sink bug");
                }
                got.lock().unwrap()[slot] = Some(outcome);
            };
            let mut clients = fleet(4, &[]);
            let layout = ShardLayout::new(4, shards);
            let download = download();
            ExecutionEngine::new(workers)
                .cycles_in(
                    &mut clients,
                    &layout,
                    &[0, 1, 2, 3],
                    &Broadcast::new(&download),
                    None,
                    Sink::new(&sink),
                )
                .unwrap();
            let got = got.into_inner().unwrap();
            match &got[lost] {
                Some(ClientOutcome::Failed {
                    error: FlError::ClientFailure { reason, .. },
                    ..
                }) => assert_eq!(reason, "engine worker panicked"),
                other => panic!("expected slot {lost} to fail with its deal, got {other:?}"),
            }
            for slot in done {
                assert!(
                    got[slot].as_ref().is_some_and(ClientOutcome::is_completed),
                    "{shards} shards: slot {slot}"
                );
            }
        }
    }

    #[test]
    fn deadline_turns_slow_clients_into_stragglers() {
        let plan = FaultPlan::seeded(5)
            .client_latency(1, LatencyModel::Fixed(100.0))
            .deadline_s(50.0);
        for workers in [1usize, 3] {
            let mut clients = fleet(3, &[]);
            let (results, ledger) = ExecutionEngine::new(workers)
                .execute_cycles_with(&mut clients, &[0, 1, 2], &download(), Some(&plan))
                .unwrap();
            assert!(results[0].is_completed());
            assert!(results[2].is_completed());
            match &results[1] {
                ClientOutcome::Straggler {
                    client: 1,
                    elapsed_s,
                    cost,
                } => {
                    assert!(*elapsed_s > 50.0, "{elapsed_s}");
                    assert_eq!(ledger.client(1), Some(cost));
                }
                other => panic!("expected a straggler, got {other:?}"),
            }
            // The straggler's compute is still billed.
            assert_eq!(ledger.len(), 3);
            assert!(ledger.client(1).expect("billed").time.total_s() > 0.0);
        }
    }

    #[test]
    fn no_deadline_means_no_stragglers_whatever_the_latency() {
        let plan = FaultPlan::seeded(5).latency(LatencyModel::Fixed(1e6));
        let mut clients = fleet(2, &[]);
        let (results, _) = ExecutionEngine::sequential()
            .execute_cycles_with(&mut clients, &[0, 1], &download(), Some(&plan))
            .unwrap();
        assert!(results.iter().all(ClientOutcome::is_completed));
    }

    #[test]
    fn execute_shards_matches_per_shard_execute_cycles() {
        let build = || {
            let mut all = fleet(6, &[]);
            let tail = all.split_off(3);
            (all, tail)
        };
        let engine = ExecutionEngine::new(2);
        let (mut a, mut b) = build();
        let (mut want, mut want_ledger) = engine
            .execute_cycles_with(&mut a, &[0, 2], &download(), None)
            .unwrap();
        let (tail, tail_ledger) = engine
            .execute_cycles_with(&mut b, &[1], &download(), None)
            .unwrap();
        want.extend(tail);
        tail_ledger
            .entries()
            .iter()
            .for_each(|e| want_ledger.record(*e));
        let mut all = fleet(6, &[]);
        let got = sharded(engine, &mut all, 2, &[0, 2, 4], &download()).unwrap();
        assert_eq!(got, (want, want_ledger));
    }

    #[test]
    fn lockstep_sessions_share_one_encode_and_one_view_per_round() {
        // A healthy delta-topk fleet, two shards of 2 workers drawing from
        // one broadcast: whatever the deal, every session stands at the
        // same epoch on the same base, so each round encodes its download
        // once — not once per client — and all sessions end up holding one
        // view allocation.
        let mut clients = fleet_speaking(CodecKind::DeltaTopK, 6, &[]);
        let layout = ShardLayout::new(6, 2);
        let engine = ExecutionEngine::new(2);
        let mut download = download();
        for round in 0..3 {
            download.round = round;
            let broadcast = Broadcast::new(&download);
            let collected = Collected::new(6);
            let sink = |slot, outcome| collected.put(slot, outcome);
            let picked = [0, 1, 2, 3, 4, 5];
            engine
                .cycles_in(
                    &mut clients,
                    &layout,
                    &picked,
                    &broadcast,
                    None,
                    Sink::new(&sink),
                )
                .unwrap();
            assert_eq!(broadcast.encodes(), 1, "round {round}");
            let (outcomes, _) = expanded(collected);
            let uploads: Vec<_> = outcomes.iter().map(completed).collect();
            assert_eq!(uploads.len(), 6);
            download.weights = uploads[0].weights.clone();
        }
        assert!(clients.iter().all(|c| c.shares_view_with(&clients[0])));
        // A stateless codec keeps no view to share.
        let mut plain = fleet(1, &[]);
        plain[0].train(&download).unwrap();
        assert!(!plain[0].shares_view_with(&plain[0]));
    }

    #[test]
    fn outcome_accessors_are_coherent() {
        let failed = ClientOutcome::Failed {
            client: 4,
            error: FlError::ClientFailure {
                client: 4,
                reason: "x".into(),
            },
        };
        assert_eq!(failed.client_id(), 4);
        assert!(!failed.is_completed() && failed.is_failed());
        let straggler = ClientOutcome::Straggler {
            client: 9,
            elapsed_s: 2.0,
            cost: ClientCycleCost::unbilled(9),
        };
        assert_eq!(straggler.client_id(), 9);
        assert!(!straggler.is_completed() && !straggler.is_failed());
    }

    mod sharding {
        use super::*;
        use gradsec_data::{split, SyntheticMicro};

        const N_CLIENTS: usize = 5;
        const DIM: usize = 6;

        fn fleet() -> Vec<RemoteClient> {
            let ds = Arc::new(SyntheticMicro::new(4 * N_CLIENTS, 2, DIM, 3));
            let shards = split::shard(ds.len(), N_CLIENTS, 1);
            (0..N_CLIENTS)
                .zip(shards)
                .map(|(i, shard)| {
                    let client = FlClient::new(
                        i as u64,
                        DeviceProfile::trustzone(i as u64),
                        ds.clone(),
                        shard,
                        zoo::tiny_mlp(DIM, 4, 2, 5).unwrap(),
                        Box::new(PlainSgdTrainer),
                    );
                    RemoteClient::connect(Box::new(LocalEndpoint::new(client))).unwrap()
                })
                .collect()
        }

        fn download() -> ModelDownload {
            ModelDownload {
                round: 0,
                weights: zoo::tiny_mlp(DIM, 4, 2, 5).unwrap().weights(),
                plan: TrainingPlan {
                    rounds: 1,
                    clients_per_round: N_CLIENTS,
                    batches_per_cycle: 1,
                    batch_size: 2,
                    learning_rate: 0.05,
                    seed: 11,
                },
                protected_layers: vec![],
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(48))]

            /// Shard-partitioned execution equals flat execution for any
            /// shard count `ShardLayout::new` cuts and any sorted pick set.
            #[test]
            fn execute_shards_agrees_with_flat_execution(
                picked in proptest::collection::btree_set(0usize..N_CLIENTS, 0..N_CLIENTS + 1),
                shards in 1usize..N_CLIENTS + 1,
                workers in 1usize..4,
            ) {
                let picked: Vec<usize> = picked.iter().copied().collect();
                let download = download();
                let engine = ExecutionEngine::new(workers);
                let flat = engine
                    .execute_cycles_with(&mut fleet(), &picked, &download, None)
                    .unwrap();
                let got = sharded(engine, &mut fleet(), shards, &picked, &download).unwrap();
                proptest::prop_assert_eq!(got, flat);
            }
        }
    }
}
