//! A round's commit, resolved as its outcomes arrive.
//!
//! A fleet delivers outcomes in whatever order its workers, shards or
//! shard processes finish them. The commit adds a completed update to
//! the round's one [`Aggregation`] as soon as it is certain to be among
//! the first `k` completed, whatever order it arrives in: every slot
//! below `k` is, since fewer than `k` slots precede it. Under FedAvg
//! that folds it on the spot — the fold is an exact integer sum,
//! so the order terms are folded in cannot move a bit — and under the
//! coordinate-wise rules it is kept in wire form for the finish. Only a
//! completed update at a slot of `k` or above, which might be surplus,
//! waits until every slot below it has arrived: then it is added, or
//! dropped as surplus. Stragglers and failures are recorded where they
//! land, and every outcome's bill at its slot. The groups, the earliest
//! failure, the ledger and (in the aggregation) the mean loss are read in
//! slot order at the finish, so a round commits the same report in any
//! arrival order.
//!
//! An outcome is deposited under a short lock, which hands back the
//! updates it made ready; the depositing thread adds them under the
//! aggregation's lock, so no worker waits on a fold in order to deposit.

use std::sync::Mutex;

use gradsec_nn::model::ModelWeights;
use gradsec_tee::cost::{ClientCycleCost, RoundLedger};

use crate::aggregate::{AggregateOutcome, Aggregation, Aggregator};
use crate::engine::ClientOutcome;
#[cfg(test)]
use crate::message::probe;
use crate::message::ArrivedUpload;
use crate::{FlError, Result};

/// One round's commit, fed slot by slot through [`deposit`](Self::deposit).
pub(crate) struct Commit<'r> {
    /// The global index of the client picked at each slot.
    picked: &'r [usize],
    /// How many completed updates the round commits.
    k: usize,
    deposits: Mutex<Deposits>,
    aggregation: Mutex<Aggregation>,
}

/// What has arrived, slot by slot.
struct Deposits {
    slots: Vec<Slot>,
    /// What each arrived slot's outcome bills.
    bills: Vec<ClientCycleCost>,
    /// The first slot that has not arrived, or that every slot below
    /// has.
    next: usize,
    /// Completed updates below `next`.
    completed: usize,
}

/// One slot's outcome, as far as it has arrived.
enum Slot {
    Pending,
    /// A completed update that might be surplus, until every slot below
    /// it has arrived.
    Waiting(ArrivedUpload),
    /// A completed update, added to the aggregation or dropped as surplus.
    Completed,
    Straggler,
    Failed(FlError),
}

/// How a round's picks partition, and what they billed, as the report
/// lists them.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Groups {
    pub(crate) participants: Vec<usize>,
    pub(crate) surplus: Vec<usize>,
    pub(crate) stragglers: Vec<usize>,
    pub(crate) failures: Vec<usize>,
    /// One bill per pick.
    pub(crate) ledger: RoundLedger,
}

impl<'r> Commit<'r> {
    /// A commit of the first `k` completed updates among `picked`'s slots
    /// under `aggregator`, against the previous global `reference`.
    pub(crate) fn new(
        picked: &'r [usize],
        k: usize,
        aggregator: Aggregator,
        reference: &'r ModelWeights,
    ) -> Self {
        Commit {
            picked,
            k,
            deposits: Mutex::new(Deposits {
                slots: picked.iter().map(|_| Slot::Pending).collect(),
                bills: vec![ClientCycleCost::default(); picked.len()],
                next: 0,
                completed: 0,
            }),
            aggregation: Mutex::new(Aggregation::new(aggregator, Some(reference))),
        }
    }

    /// Takes the outcome of `slot`, then adds every update it made ready:
    /// its own if it is completed below `k`, and any waiting one whose
    /// slots below have now all arrived and which is among the first `k`.
    pub(crate) fn deposit(&self, slot: usize, outcome: ClientOutcome<ArrivedUpload>) {
        #[cfg(test)]
        probe::note(probe::Event::Arrived(self.picked[slot] as u64));
        let mut ready = Vec::new();
        let mut deposits = self
            .deposits
            .lock()
            .expect("no deposit panics holding the lock");
        deposits.bills[slot] = outcome.bill();
        deposits.slots[slot] = match outcome {
            ClientOutcome::Completed(upload) if slot < self.k => {
                ready.push((slot, upload));
                Slot::Completed
            }
            ClientOutcome::Completed(upload) => Slot::Waiting(upload),
            ClientOutcome::Straggler { .. } => Slot::Straggler,
            ClientOutcome::Failed { error, .. } => Slot::Failed(error),
        };
        deposits.advance(self.k, &mut ready);
        drop(deposits);
        if !ready.is_empty() {
            let mut aggregation = self
                .aggregation
                .lock()
                .expect("no aggregation panics holding the lock");
            for (slot, upload) in ready {
                aggregation.add(slot, upload);
            }
        }
    }

    /// Commits the round once every slot was deposited.
    ///
    /// Without `tolerant` (no fault plan, no lost cohort) any failed
    /// outcome fails the round with the earliest failure in selection
    /// order — the strict contract healthy fleets always had. With it,
    /// failures and stragglers are merely recorded, and the round only
    /// errors when *no* update committed.
    pub(crate) fn finish(self, round: u64, tolerant: bool) -> Result<(AggregateOutcome, Groups)> {
        let deposits = self.deposits.into_inner().expect("no deposit panicked");
        assert_eq!(
            deposits.next,
            self.picked.len(),
            "a fleet delivers every slot"
        );
        let aggregation = self.aggregation.into_inner().expect("no fold panicked");
        // `picked` is sorted, so each bill lands at the ledger's end.
        let mut groups = Groups {
            ledger: deposits.bills.into_iter().collect(),
            ..Groups::default()
        };
        let mut first_err = None;
        for (slot, outcome) in deposits.slots.into_iter().enumerate() {
            let ci = self.picked[slot];
            match outcome {
                Slot::Completed if groups.participants.len() < self.k => {
                    groups.participants.push(ci)
                }
                Slot::Completed => groups.surplus.push(ci),
                Slot::Straggler => groups.stragglers.push(ci),
                Slot::Failed(error) => {
                    groups.failures.push(ci);
                    first_err.get_or_insert(error);
                }
                Slot::Pending | Slot::Waiting(_) => unreachable!("every slot arrived"),
            }
        }
        if !tolerant {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        if groups.participants.is_empty() {
            // Prefer the earliest concrete failure; a collapse with no
            // failure at all means every survivor straggled — name that
            // rather than misdiagnosing it as a selection problem.
            return Err(first_err.unwrap_or(FlError::RoundCollapsed {
                round,
                stragglers: groups.stragglers.len(),
                failures: groups.failures.len(),
            }));
        }
        Ok((aggregation.finish()?, groups))
    }
}

impl Deposits {
    /// Moves `next` past every slot that has arrived, settling each
    /// waiting update on the way: among the first `k` completed it joins
    /// `ready`, otherwise it is surplus and dropped.
    fn advance(&mut self, k: usize, ready: &mut Vec<(usize, ArrivedUpload)>) {
        while let Some(slot) = self.slots.get_mut(self.next) {
            match std::mem::replace(slot, Slot::Completed) {
                Slot::Pending => {
                    *slot = Slot::Pending;
                    return;
                }
                Slot::Waiting(upload) => {
                    if self.completed < k {
                        ready.push((self.next, upload));
                    }
                    self.completed += 1;
                }
                Slot::Completed => self.completed += 1,
                other => *slot = other,
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::PartialAggregate;
    use crate::codec::{encode_weights, flatten, CheckedWeights, CodecKind};
    use crate::message::{ArrivedWeights, UpdateUpload};
    use crate::transport::tests::bits;
    use gradsec_nn::model::LayerWeights;
    use gradsec_tee::cost::TimeBreakdown;
    use gradsec_tensor::init;

    /// A model whose weight tensor spans three fold chunks.
    fn model(seed: u64) -> ModelWeights {
        ModelWeights::new(vec![LayerWeights {
            w: init::uniform(&[3, 50], -1.0, 1.0, seed),
            b: init::uniform(&[5], -1.0, 1.0, seed ^ 0xB1A5),
        }])
    }

    /// The outcome of client `client` as `kind` draws it: completed dense
    /// (0) or as an int8 payload in wire form (1), straggling (2), failed
    /// (3), or completed dense but shaped unlike the model (4). A cycle
    /// that ran bills a cost of its own.
    fn outcome(client: usize, kind: u8, seed: u64) -> ClientOutcome<ArrivedUpload> {
        let id = client as u64;
        let trained = model(seed.wrapping_add(id));
        let cost = ClientCycleCost {
            time: TimeBreakdown {
                user_s: 0.5 * client as f64,
                ..TimeBreakdown::default()
            },
            crossings: id,
            ..ClientCycleCost::unbilled(id)
        };
        let mut upload = ArrivedUpload::from(UpdateUpload {
            client_id: id,
            round: 0,
            weights: trained.clone(),
            num_samples: 1 + client % 7,
            train_loss: 0.1 * client as f32,
            cost,
        });
        match kind {
            0 => ClientOutcome::Completed(upload),
            1 => {
                let enc = encode_weights(CodecKind::Int8, 1, &trained, None);
                let checked = CheckedWeights::new(enc, None).expect("an int8 payload checks");
                upload.weights = ArrivedWeights::Wire(Box::new(checked));
                ClientOutcome::Completed(upload)
            }
            4 => {
                upload.weights = ArrivedWeights::Dense(ModelWeights::new(vec![LayerWeights {
                    w: init::uniform(&[3, 49], -1.0, 1.0, seed),
                    b: init::uniform(&[5], -1.0, 1.0, seed),
                }]));
                ClientOutcome::Completed(upload)
            }
            2 => ClientOutcome::Straggler {
                client: id,
                elapsed_s: 9.0,
                cost,
            },
            _ => ClientOutcome::Failed {
                client: id,
                error: FlError::ClientFailure {
                    client: id,
                    reason: format!("client {id} broke"),
                },
            },
        }
    }

    /// What a commit hands the report: the weights' bits, the mean loss's
    /// bits, the sample total and the groups — or its error's text.
    type Committed = std::result::Result<(Vec<Vec<u32>>, u32, usize, Groups), String>;

    fn committed(outcome: Result<(AggregateOutcome, Groups)>) -> Committed {
        outcome
            .map(|(out, groups)| {
                let weights = bits(flatten(&out.weights));
                (weights, out.mean_loss.to_bits(), out.total_samples, groups)
            })
            .map_err(|e| e.to_string())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Whatever order a round's outcomes arrive in, and from however
        /// many threads, the commit is the one slot order gives: the same
        /// groups, one bill per pick, loss and error — a misshapen term's included — and
        /// weights bit-identical to delivery in slot order and to
        /// `PartialAggregate::finish_with` over the first `k` completed
        /// updates, under every rule, strict or tolerant. Delivered
        /// highest slot first, every participant arrives before any slot
        /// below it, and under FedAvg each one below `k` is folded before
        /// the next outcome arrives.
        #[test]
        fn a_commit_in_any_arrival_order_is_the_canonical_one(
            n in 1usize..13,
            k in 0usize..12,
            kinds in proptest::collection::vec(0u8..5, 12..13),
            keys in proptest::collection::vec(proptest::any::<u32>(), 12..13),
            tolerant in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let k = 1 + k % n;
            let picked: Vec<usize> = (0..n).map(|slot| 3 * slot + 1).collect();
            let outcomes: Vec<_> = (0..n).map(|s| outcome(picked[s], kinds[s], seed)).collect();
            let mut arrival: Vec<usize> = (0..n).collect();
            arrival.sort_by_key(|&slot| keys[slot]);
            let reference = model(seed ^ 0x5EED);
            let rules = [
                Aggregator::FedAvg,
                Aggregator::TrimmedMean { trim: 0 },
                Aggregator::TrimmedMean { trim: 1 },
                Aggregator::Median,
            ];
            for rule in rules {
                // The commit, and the probe log of a one-thread delivery.
                let run = |order: &[usize], threads: usize| {
                    let commit = Commit::new(&picked, k, rule, &reference);
                    let per_thread = order.len().div_ceil(threads).max(1);
                    let log = std::thread::scope(|s| {
                        let delivered: Vec<_> = order
                            .chunks(per_thread)
                            .map(|share| {
                                let (commit, outcomes) = (&commit, &outcomes);
                                s.spawn(move || {
                                    for &slot in share {
                                        commit.deposit(slot, outcomes[slot].clone());
                                    }
                                    probe::take()
                                })
                            })
                            .collect();
                        delivered.into_iter().flat_map(|d| d.join().unwrap()).collect::<Vec<_>>()
                    });
                    (committed(commit.finish(0, tolerant)), log)
                };
                let canonical: Vec<usize> = (0..n).collect();
                let (want, _) = run(&canonical, 1);
                proptest::prop_assert_eq!(&run(&arrival, 1).0, &want, "{}", rule.name());
                proptest::prop_assert_eq!(&run(&arrival, 3).0, &want, "{}", rule.name());
                let reversed: Vec<usize> = (0..n).rev().collect();
                let (got, log) = run(&reversed, 1);
                proptest::prop_assert_eq!(&got, &want, "{} reversed", rule.name());
                if rule == Aggregator::FedAvg {
                    for slot in (0..n.min(k)).filter(|&s| kinds[s] < 2) {
                        let id = picked[slot] as u64;
                        let at = log.iter().position(|&e| e == probe::Event::Arrived(id));
                        let next = at.and_then(|at| log.get(at + 1));
                        proptest::prop_assert_eq!(next, Some(&probe::Event::Folded(id)), "slot {}", slot);
                    }
                }

                // The rule spelled out: the first k completed commit, and
                // each outcome bills its pick.
                let mut groups = Groups {
                    ledger: outcomes.iter().map(ClientOutcome::bill).collect(),
                    ..Groups::default()
                };
                proptest::prop_assert_eq!(groups.ledger.len(), n);
                let mut partial = PartialAggregate::new();
                let mut first_err = None;
                for (slot, o) in outcomes.iter().enumerate() {
                    let ci = picked[slot];
                    match o {
                        ClientOutcome::Completed(u) if groups.participants.len() < k => {
                            partial.push_arrived(slot, u.clone());
                            groups.participants.push(ci);
                        }
                        ClientOutcome::Completed(_) => groups.surplus.push(ci),
                        ClientOutcome::Straggler { .. } => groups.stragglers.push(ci),
                        ClientOutcome::Failed { error, .. } => {
                            groups.failures.push(ci);
                            first_err.get_or_insert(error.to_string());
                        }
                    }
                }
                let spelled: Committed = match first_err {
                    Some(e) if !tolerant || groups.participants.is_empty() => Err(e),
                    _ if groups.participants.is_empty() => Err(FlError::RoundCollapsed {
                        round: 0,
                        stragglers: groups.stragglers.len(),
                        failures: 0,
                    }
                    .to_string()),
                    _ => committed(
                        partial
                            .finish_with(rule, Some(&reference))
                            .map(|out| (out, groups)),
                    ),
                };
                proptest::prop_assert_eq!(&spelled, &want, "{}", rule.name());
            }
        }
    }
}
