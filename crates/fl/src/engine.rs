//! The federation execution engine: fans one round's client exchanges out
//! across a worker pool.
//!
//! Every selected client's local training is independent — each cycle
//! loads the download into a replica it borrows for that cycle alone and
//! trains it on a private shard with a per-client seeded batcher
//! (`plan.seed ^ client_id ^ round`), so exchanges can run on any worker
//! in any order without changing a single bit of the result. Since
//! the transport redesign the engine drives [`RemoteClient`] endpoints
//! rather than touching client structs directly:
//!
//! * endpoints are dealt round-robin onto `workers` scoped threads, which
//!   divide the caller's kernel budget (`gradsec_tensor::ops::threads`)
//!   between them, as shard threads do one level up, so workers × kernel
//!   bands never exceed the cores; each worker owns its shard of
//!   endpoints for the round and walks it through
//!   the transport's `slide`: the download goes out to a window of its sessions before
//!   the worker waits for the oldest upload, so a worker's concurrency
//!   is the window, not one (an in-process endpoint trains inside the
//!   send and is collected at once, one client at a time as ever),
//! * each exchange's [`ClientOutcome`] is handed to the caller's sink the
//!   moment its worker finishes it, keyed by the client's position in
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
//! * the TEE accounting that arrives *on the wire* with every upload is
//!   recorded into a [`SharedLedger`] as workers finish and merged into an
//!   id-sorted [`RoundLedger`], so the world-switch/crypto bill stays
//!   correct under concurrency — and complete even when clients live in
//!   other processes. A client that fails still gets a ledger entry (an
//!   [`unbilled`](ClientCycleCost::unbilled) zero-cost one), so the round
//!   ledger accounts every selected client, success or not, and a failure
//!   can never leak cost into another client's slot.
//!
//! Failure containment: a schedule with duplicate or out-of-range indices
//! is rejected up front ([`FlError::InvalidSelection`]) instead of
//! panicking, and a panic inside either half of one client's exchange — a
//! buggy trainer, a poisoned endpoint — is caught on the worker and
//! surfaced as that client's [`ClientOutcome::Failed`]. One bad client in
//! a 10⁴-client round can therefore no longer kill the *process*; the
//! round's fate stays a policy decision of the runner.
//!
//! Fault injection: [`execute_cycles_with`](ExecutionEngine::execute_cycles_with)
//! threads an optional [`FaultPlan`] through the exchange path. The plan
//! contributes each client's simulated network latency for the round, and
//! when a round deadline is configured, a client whose simulated elapsed
//! time (latency + cycle compute on the simulated clock) overruns it comes
//! back as [`ClientOutcome::Straggler`] — its cost still billed to the
//! ledger, its update excluded from aggregation — instead of blocking the
//! round. All fault decisions are pure functions of
//! `(fault seed, client, round)`, so they are identical on every worker,
//! shard and transport.
//!
//! A sharded fleet lifts the same machinery one level up: disjoint
//! client shards run concurrently, each with its own worker pool and its
//! own [`RoundLedger`]; a shard's slots are offset by the picks of the
//! shards before it, and the per-shard ledgers come back in shard order
//! for the global merge.
//!
//! With identical seeds — training *and* fault seeds — a 1-worker and an
//! N-worker engine, over the in-process or the TCP transport, sharded or
//! flat, produce bit-identical round reports and final weights (see the
//! policy and faulted corners of `tests/deployment_matrix.rs` at the
//! workspace root).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use gradsec_tee::cost::{ClientCycleCost, RoundLedger, SharedLedger};
use gradsec_tensor::ops::threads;

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
            ClientOutcome::Straggler { client, elapsed_s } => {
                ClientOutcome::Straggler { client, elapsed_s }
            }
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

/// Per-client outcomes of one engine run, in `picked` order, plus the
/// round's merged TEE ledger (one entry per picked client — zero-cost
/// entries for failures).
pub(crate) type CycleOutcomes = (Vec<ClientOutcome>, RoundLedger);

/// The public, dense view of one engine run's collected outcomes.
fn expanded(collected: Collected) -> Vec<ClientOutcome> {
    let dense = |o: ClientOutcome<ArrivedUpload>| o.map(ArrivedUpload::expand);
    collected.into_outcomes().into_iter().map(dense).collect()
}

/// A round-execution strategy: how many workers drive client exchanges
/// concurrently within one FL cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionEngine {
    workers: usize,
}

impl ExecutionEngine {
    /// One client at a time on the calling thread — the reference
    /// behaviour every parallel configuration must reproduce exactly.
    pub fn sequential() -> Self {
        ExecutionEngine { workers: 1 }
    }

    /// A pool of `workers` threads; `0` means one per available core.
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
    /// `picked` order plus the round's merged TEE ledger.
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
        let broadcast = Broadcast::new(download);
        let sink = |slot, outcome| collected.put(slot, outcome);
        let ledger = self.cycles_in(clients, picked, &broadcast, faults, Sink::new(&sink))?;
        Ok((expanded(collected), ledger))
    }

    /// [`execute_cycles_with`](Self::execute_cycles_with) against a
    /// broadcast the caller owns — one per round, so every worker of
    /// every shard draws its download from the same memo — handing `sink`
    /// each outcome, keyed by its slot in `picked`, as its worker finishes
    /// it, with the upload left as it arrived. Returns the merged ledger.
    fn cycles_in(
        &self,
        clients: &mut [RemoteClient],
        picked: &[usize],
        broadcast: &Broadcast<'_>,
        faults: Option<&FaultPlan>,
        sink: Sink<'_>,
    ) -> Result<RoundLedger> {
        validate_picks(picked, clients.len())?;
        let picked_ids: Vec<u64> = picked.iter().map(|&ci| clients[ci].id()).collect();
        let ledger = SharedLedger::new();
        // Which slots reached the sink. Read after every worker joined —
        // the join orders the stores before the loads — so `Relaxed`.
        let delivered: Vec<AtomicBool> = picked.iter().map(|_| AtomicBool::new(false)).collect();
        let deliver = |slot: usize, outcome| {
            delivered[slot].store(true, Ordering::Relaxed);
            sink.deliver(slot, outcome);
        };
        // A client whose outcome no worker delivered fails, billed nothing.
        let fail = |slot: usize, reason: &str| {
            let client = picked_ids[slot];
            ledger.record(ClientCycleCost::unbilled(client));
            let error = FlError::ClientFailure {
                client,
                reason: reason.to_owned(),
            };
            deliver(slot, ClientOutcome::Failed { client, error });
        };
        if self.workers <= 1 || picked.len() <= 1 {
            slide(
                clients,
                picked.len(),
                |clients, slot| cycle_begin(&mut clients[picked[slot]], broadcast),
                |clients, slot, sent| {
                    let client = &mut clients[picked[slot]];
                    deliver(slot, cycle_finish(client, sent, broadcast, &ledger, faults));
                },
            );
        } else {
            // Deal the selected clients round-robin into one shard per
            // worker. The deal is a pure function of (picked, workers),
            // so the partition — and therefore any numeric consequence of
            // it — is reproducible. An O(n) slot map replaces the old
            // per-client `position` scan (O(|picked|·|clients|)), which
            // also silently collapsed duplicate picks onto one slot.
            let mut slot_of: Vec<Option<usize>> = vec![None; clients.len()];
            for (slot, &ci) in picked.iter().enumerate() {
                slot_of[ci] = Some(slot);
            }
            let workers = self.workers.min(picked.len());
            let mut shards: Vec<Vec<(usize, &mut RemoteClient)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (k, (slot, client)) in clients
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| slot_of[i].map(|s| (s, c)))
                .enumerate()
            {
                shards[k % workers].push((slot, client));
            }
            // Remember each worker's slot assignment so a worker that dies
            // wholesale (a panic escaping the per-exchange guard) can be
            // billed to exactly its undelivered clients.
            let assignments: Vec<Vec<usize>> = shards
                .iter()
                .map(|shard| shard.iter().map(|(slot, _)| *slot).collect())
                .collect();
            // The workers split the caller's kernel budget between them.
            let kernel_threads = threads::budget() / workers;
            let joined = std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|mut shard| {
                        let (ledger, deliver) = (&ledger, &deliver);
                        s.spawn(move || {
                            let n = shard.len();
                            threads::with_budget(kernel_threads, || {
                                slide(
                                    shard.as_mut_slice(),
                                    n,
                                    |shard, k| cycle_begin(shard[k].1, broadcast),
                                    |shard, k, sent| {
                                        let (slot, client) = &mut shard[k];
                                        let outcome =
                                            cycle_finish(client, sent, broadcast, ledger, faults);
                                        deliver(*slot, outcome);
                                    },
                                );
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().is_ok())
                    .collect::<Vec<bool>>()
            });
            // The per-exchange guard makes this unreachable in practice;
            // if it ever fires, the worker's clients fail individually
            // rather than killing the round.
            for (worker, _) in joined.iter().enumerate().filter(|(_, ok)| !**ok) {
                for &slot in &assignments[worker] {
                    if !delivered[slot].load(Ordering::Relaxed) {
                        fail(slot, "engine worker panicked");
                    }
                }
            }
        }
        for (slot, delivered) in delivered.iter().enumerate() {
            if !delivered.load(Ordering::Relaxed) {
                fail(slot, "engine lost the client's outcome");
            }
        }
        Ok(ledger.into_round_ledger())
    }

    /// Runs several disjoint client shards concurrently — each shard's
    /// picked clients on this engine's own worker pool — handing `sink`
    /// each outcome as it lands, keyed by its slot in the shards' picks
    /// concatenated in shard order, with the upload left as it arrived.
    /// Returns the per-shard ledgers in shard order.
    ///
    /// `shards` pairs each shard's clients with its *shard-local* pick
    /// indices. Every shard's execution is independently deterministic
    /// (fault decisions included) and outcomes stay keyed by shard +
    /// slot, so the result is bit-identical to running the shards one
    /// after another — which is how a multi-shard
    /// [`Federation`](crate::runner::Federation) reproduces a one-shard
    /// round exactly.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] when any shard's picks are
    /// duplicated or out of range (checked before anything runs).
    pub(crate) fn shards_in(
        &self,
        shards: Vec<(&mut [RemoteClient], Vec<usize>)>,
        download: &ModelDownload,
        faults: Option<&FaultPlan>,
        sink: Sink<'_>,
    ) -> Result<Vec<RoundLedger>> {
        for (clients, picked) in &shards {
            validate_picks(picked, clients.len())?;
        }
        let broadcast = &Broadcast::new(download);
        if shards.len() <= 1 {
            return shards
                .into_iter()
                .map(|(clients, picked)| self.cycles_in(clients, &picked, broadcast, faults, sink))
                .collect();
        }
        // Shard threads split the caller's kernel budget, as workers do.
        let kernel_threads = threads::budget() / shards.len();
        std::thread::scope(|s| {
            let mut base = 0;
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(clients, picked)| {
                    // The shard's slot j is the round's slot base + j.
                    let shifted = move |slot: usize, outcome| sink.deliver(base + slot, outcome);
                    base += picked.len();
                    s.spawn(move || {
                        threads::with_budget(kernel_threads, || {
                            self.cycles_in(clients, &picked, broadcast, faults, Sink::new(&shifted))
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().map_err(|_| FlError::Protocol {
                        reason: "engine shard thread panicked".to_owned(),
                    })?
                })
                .collect()
        })
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
/// [`cycle_finish`] bills it in the client's turn.
pub(crate) fn cycle_begin(
    client: &mut RemoteClient,
    broadcast: &Broadcast<'_>,
) -> Result<(InFlight, bool)> {
    contained(client.id(), || client.train_begin(broadcast))
}

/// Collects one client's upload and classifies the result. On success the
/// TEE accounting the upload carried across the transport is recorded and
/// the simulated elapsed time (injected latency + cycle compute) is
/// checked against any round deadline; overruns come back as stragglers
/// with their cost still billed (and their payload dropped as it
/// arrived). Failures of either half are billed as zero-cost ledger
/// entries so the round accounts every selected client.
pub(crate) fn cycle_finish(
    client: &mut RemoteClient,
    sent: Result<InFlight>,
    broadcast: &Broadcast<'_>,
    ledger: &SharedLedger,
    faults: Option<&FaultPlan>,
) -> ClientOutcome<ArrivedUpload> {
    let id = client.id();
    let result = sent.and_then(|sent| contained(id, || client.train_finish(broadcast, sent)));
    match result {
        Ok(upload) => {
            ledger.record(upload.cost);
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
                        };
                    }
                }
            }
            ClientOutcome::Completed(upload)
        }
        Err(error) => {
            ledger.record(ClientCycleCost::unbilled(id));
            ClientOutcome::Failed { client: id, error }
        }
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

    /// Workers, and shard threads above them, divide the caller's kernel
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
        // Two shards of three clients, three workers each: 12 / 2 / 3.
        threads::with_budget(12, || {
            let (lo, hi) = clients.split_at_mut(3);
            let shards = vec![(lo, vec![0, 1, 2]), (hi, vec![0, 1, 2])];
            sharded(ExecutionEngine::new(3), shards, &download()).unwrap();
            assert_eq!(threads::budget(), 12, "the caller's budget is restored");
        });
        assert_eq!(take(), vec![2; 6]);
    }

    /// [`ExecutionEngine::shards_in`] with a sink that collects: the
    /// per-shard outcomes, expanded, and ledgers in shard order.
    fn sharded(
        engine: ExecutionEngine,
        shards: Vec<(&mut [RemoteClient], Vec<usize>)>,
        download: &ModelDownload,
    ) -> Result<Vec<CycleOutcomes>> {
        let sizes: Vec<usize> = shards.iter().map(|(_, picked)| picked.len()).collect();
        let collected = Collected::new(sizes.iter().sum());
        let sink = |slot, outcome| collected.put(slot, outcome);
        let ledgers = engine.shards_in(shards, download, None, Sink::new(&sink))?;
        let mut outcomes = expanded(collected).into_iter();
        let per_shard = sizes.into_iter().zip(ledgers);
        Ok(per_shard
            .map(|(n, ledger)| (outcomes.by_ref().take(n).collect(), ledger))
            .collect())
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

    #[test]
    fn duplicate_picks_are_an_error_not_a_panic() {
        let mut clients = fleet(4, &[]);
        for engine in [ExecutionEngine::sequential(), ExecutionEngine::new(3)] {
            let err = engine
                .execute_cycles_with(&mut clients, &[1, 2, 1], &download(), None)
                .unwrap_err();
            assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
        }
    }

    #[test]
    fn out_of_range_picks_are_an_error_not_a_panic() {
        let mut clients = fleet(2, &[]);
        let err = ExecutionEngine::new(2)
            .execute_cycles_with(&mut clients, &[0, 5], &download(), None)
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
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

    /// A worker that dies outside the per-exchange guard (here, in the
    /// sink) fails exactly the slots it had not delivered, and a dead
    /// shard thread is the round's error instead of a panic in the caller.
    #[test]
    fn a_dead_worker_fails_its_undelivered_slots_and_a_dead_shard_the_round() {
        let got = std::sync::Mutex::new((0..4).map(|_| None).collect::<Vec<_>>());
        let tripped = AtomicBool::new(false);
        let sink = |slot: usize, outcome: ClientOutcome<ArrivedUpload>| {
            if slot == 0 && !tripped.swap(true, Ordering::Relaxed) {
                panic!("injected sink bug");
            }
            got.lock().unwrap()[slot] = Some(outcome);
        };
        let mut clients = fleet(4, &[]);
        let download = download();
        let broadcast = Broadcast::new(&download);
        // Two workers deal slots {0, 2} and {1, 3}: slot 0's delivery
        // kills the first worker before it finishes slot 2.
        let ledger = ExecutionEngine::new(2)
            .cycles_in(
                &mut clients,
                &[0, 1, 2, 3],
                &broadcast,
                None,
                Sink::new(&sink),
            )
            .unwrap();
        assert_eq!(ledger.len(), 4);
        let got = got.into_inner().unwrap();
        match &got[2] {
            Some(ClientOutcome::Failed {
                client: 2,
                error: FlError::ClientFailure { reason, .. },
            }) => assert_eq!(reason, "engine worker panicked"),
            other => panic!("expected slot 2 to fail with its worker, got {other:?}"),
        }
        for slot in [1, 3] {
            assert!(
                got[slot].as_ref().is_some_and(ClientOutcome::is_completed),
                "slot {slot}"
            );
        }

        let tripped = AtomicBool::new(false);
        let sink = |_: usize, _: ClientOutcome<ArrivedUpload>| {
            if !tripped.swap(true, Ordering::Relaxed) {
                panic!("injected sink bug");
            }
        };
        let mut clients = fleet(4, &[]);
        let (lo, hi) = clients.split_at_mut(2);
        let err = ExecutionEngine::sequential()
            .shards_in(
                vec![(lo, vec![0, 1]), (hi, vec![0, 1])],
                &download,
                None,
                Sink::new(&sink),
            )
            .unwrap_err();
        assert!(
            matches!(&err, FlError::Protocol { reason } if reason == "engine shard thread panicked"),
            "{err}"
        );
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
                } => {
                    assert!(*elapsed_s > 50.0, "{elapsed_s}");
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
        let (mut a_seq, mut b_seq) = build();
        let want_a = engine
            .execute_cycles_with(&mut a_seq, &[0, 2], &download(), None)
            .unwrap();
        let want_b = engine
            .execute_cycles_with(&mut b_seq, &[1], &download(), None)
            .unwrap();
        let (mut a, mut b) = build();
        let shards = vec![(a.as_mut_slice(), vec![0, 2]), (b.as_mut_slice(), vec![1])];
        let got = sharded(engine, shards, &download()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], want_a);
        assert_eq!(got[1], want_b);
    }

    #[test]
    fn lockstep_sessions_share_one_encode_and_one_view_per_round() {
        // A healthy delta-topk fleet, two shards of 2 workers drawing from
        // one broadcast: whatever the worker, every session stands at the
        // same epoch on the same base, so each round encodes its download
        // once — not once per client — and all sessions end up holding one
        // view allocation.
        let mut head = fleet_speaking(CodecKind::DeltaTopK, 6, &[]);
        let mut tail = head.split_off(3);
        let engine = ExecutionEngine::new(2);
        let mut download = download();
        for round in 0..3 {
            download.round = round;
            let broadcast = Broadcast::new(&download);
            let per_shard = [&mut head, &mut tail].map(|shard| {
                let collected = Collected::new(3);
                let sink = |slot, outcome| collected.put(slot, outcome);
                engine
                    .cycles_in(shard, &[0, 1, 2], &broadcast, None, Sink::new(&sink))
                    .unwrap();
                expanded(collected)
            });
            assert_eq!(broadcast.encodes(), 1, "round {round}");
            let uploads: Vec<_> = per_shard.iter().flatten().map(completed).collect();
            assert_eq!(uploads.len(), 6);
            download.weights = uploads[0].weights.clone();
        }
        let all: Vec<&RemoteClient> = head.iter().chain(&tail).collect();
        assert!(all.iter().all(|c| c.shares_view_with(all[0])));
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
            /// cut of the fleet and any sorted pick set.
            #[test]
            fn execute_shards_agrees_with_flat_execution(
                picked in proptest::collection::btree_set(0usize..N_CLIENTS, 0..N_CLIENTS + 1),
                cut in 1usize..N_CLIENTS,
                workers in 1usize..4,
            ) {
                let picked: Vec<usize> = picked.iter().copied().collect();
                let download = download();
                let engine = ExecutionEngine::new(workers);
                let mut flat_fleet = fleet();
                let (flat_outcomes, flat_ledger) = engine
                    .execute_cycles_with(&mut flat_fleet, &picked, &download, None)
                    .unwrap();
                let mut front = fleet();
                let mut back = front.split_off(cut);
                let front_picks: Vec<usize> = picked.iter().copied().filter(|&p| p < cut).collect();
                let back_picks: Vec<usize> =
                    picked.iter().copied().filter(|&p| p >= cut).map(|p| p - cut).collect();
                let shards = vec![
                    (front.as_mut_slice(), front_picks),
                    (back.as_mut_slice(), back_picks),
                ];
                let per_shard = sharded(engine, shards, &download).unwrap();
                let mut merged_ledger = RoundLedger::new();
                let mut merged_outcomes = Vec::new();
                for (outcomes, ledger) in per_shard {
                    merged_outcomes.extend(outcomes);
                    merged_ledger.merge(&ledger);
                }
                proptest::prop_assert_eq!(merged_outcomes, flat_outcomes);
                proptest::prop_assert_eq!(merged_ledger, flat_ledger);
            }
        }
    }
}
