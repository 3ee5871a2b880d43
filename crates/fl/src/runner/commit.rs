//! A round's commit, resolved as its outcomes arrive.
//!
//! A fleet delivers outcomes in whatever order its workers, shards or
//! shard processes finish them; the commit resolves them in canonical
//! (selection) order all the same. Slot *i* is resolved as soon as every
//! slot below it is: a completed update among the round's first `k`
//! completed ones is added to the [`Aggregation`] — folded on the spot
//! under FedAvg and NormClip, kept in wire form under the coordinate-wise
//! rules — a later completed one is surplus and dropped, and stragglers
//! and failures are recorded. So the only updates held are those waiting
//! on an earlier slot, and the float sums keep their canonical order
//! whatever the arrival order.
//!
//! An outcome is deposited under a short lock; the depositing thread that
//! finds the next unresolved slot filled takes the ready prefix out and
//! resolves it outside that lock, so no worker waits on a fold in order
//! to deposit, and while one thread resolves, the others only deposit.

use std::sync::Mutex;

use gradsec_nn::model::ModelWeights;

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
    resolved: Mutex<Resolved<'r>>,
}

/// Outcomes that arrived before every slot below them was resolved.
struct Deposits {
    slots: Vec<Option<ClientOutcome<ArrivedUpload>>>,
    /// The first unresolved slot.
    next: usize,
    /// A thread is resolving the prefix below `next`.
    resolving: bool,
}

/// The resolved prefix, in slot order.
struct Resolved<'r> {
    aggregation: Aggregation<'r>,
    groups: Groups,
    /// The earliest failure, for the strict path.
    first_err: Option<FlError>,
}

/// How a round's picks partition, as the report lists them.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Groups {
    pub(crate) participants: Vec<usize>,
    pub(crate) surplus: Vec<usize>,
    pub(crate) stragglers: Vec<usize>,
    pub(crate) failures: Vec<usize>,
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
                slots: picked.iter().map(|_| None).collect(),
                next: 0,
                resolving: false,
            }),
            resolved: Mutex::new(Resolved {
                aggregation: Aggregation::new(aggregator, Some(reference)),
                groups: Groups::default(),
                first_err: None,
            }),
        }
    }

    /// Takes the outcome of `slot`, then resolves every slot it completes
    /// the prefix up to — unless another thread already is, which then
    /// resolves this one too.
    pub(crate) fn deposit(&self, slot: usize, outcome: ClientOutcome<ArrivedUpload>) {
        #[cfg(test)]
        probe::note(probe::Event::Arrived(self.picked[slot] as u64));
        let mut deposits = self
            .deposits
            .lock()
            .expect("no deposit panics holding the lock");
        deposits.slots[slot] = Some(outcome);
        if deposits.resolving {
            return;
        }
        deposits.resolving = true;
        loop {
            let start = deposits.next;
            let mut ready = Vec::new();
            while let Some(outcome) = deposits
                .slots
                .get_mut(start + ready.len())
                .and_then(Option::take)
            {
                ready.push(outcome);
            }
            if ready.is_empty() {
                deposits.resolving = false;
                return;
            }
            deposits.next += ready.len();
            drop(deposits);
            let mut resolved = self
                .resolved
                .lock()
                .expect("only the resolving thread locks");
            for (slot, outcome) in (start..).zip(ready) {
                resolved.resolve(self.picked[slot], outcome, self.k);
            }
            drop(resolved);
            deposits = self
                .deposits
                .lock()
                .expect("no deposit panics holding the lock");
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
        let Resolved {
            aggregation,
            groups,
            first_err,
        } = self.resolved.into_inner().expect("no resolution panicked");
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

impl Resolved<'_> {
    /// Resolves the next slot, whose pick is client `ci`.
    fn resolve(&mut self, ci: usize, outcome: ClientOutcome<ArrivedUpload>, k: usize) {
        let groups = &mut self.groups;
        match outcome {
            ClientOutcome::Completed(upload) if groups.participants.len() < k => {
                self.aggregation.add(upload);
                groups.participants.push(ci);
            }
            ClientOutcome::Completed(_) => groups.surplus.push(ci),
            ClientOutcome::Straggler { .. } => groups.stragglers.push(ci),
            ClientOutcome::Failed { error, .. } => {
                groups.failures.push(ci);
                self.first_err.get_or_insert(error);
            }
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
    use gradsec_tensor::init;

    /// A model whose weight tensor spans three fold chunks.
    fn model(seed: u64) -> ModelWeights {
        ModelWeights::new(vec![LayerWeights {
            w: init::uniform(&[3, 50], -1.0, 1.0, seed),
            b: init::uniform(&[5], -1.0, 1.0, seed ^ 0xB1A5),
        }])
    }

    /// The outcome of client `client` as `kind` draws it: completed dense
    /// (0) or as an int8 payload in wire form (1), straggling (2) or
    /// failed (3).
    fn outcome(client: usize, kind: u8, seed: u64) -> ClientOutcome<ArrivedUpload> {
        let id = client as u64;
        let trained = model(seed.wrapping_add(id));
        let mut upload = ArrivedUpload::from(UpdateUpload {
            client_id: id,
            round: 0,
            weights: trained.clone(),
            num_samples: 1 + client % 7,
            train_loss: 0.1 * client as f32,
            cost: Default::default(),
        });
        match kind {
            0 => ClientOutcome::Completed(upload),
            1 => {
                let enc = encode_weights(CodecKind::Int8, 1, &trained, None);
                let checked = CheckedWeights::new(enc, None).expect("an int8 payload checks");
                upload.weights = ArrivedWeights::Wire(Box::new(checked));
                ClientOutcome::Completed(upload)
            }
            2 => ClientOutcome::Straggler {
                client: id,
                elapsed_s: 9.0,
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
        /// many threads, the commit resolves them in slot order: the same
        /// groups, loss and error, and weights bit-identical to delivery
        /// in slot order and to `PartialAggregate::finish_with` over the
        /// first `k` completed updates, under every rule, strict or
        /// tolerant.
        #[test]
        fn a_commit_in_any_arrival_order_is_the_canonical_one(
            n in 1usize..13,
            k in 0usize..12,
            kinds in proptest::collection::vec(0u8..4, 12..13),
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
                Aggregator::NormClip { tau: 0.5 },
            ];
            for rule in rules {
                let run = |order: &[usize], threads: usize| {
                    let commit = Commit::new(&picked, k, rule, &reference);
                    let per_thread = order.len().div_ceil(threads).max(1);
                    std::thread::scope(|s| {
                        for share in order.chunks(per_thread) {
                            let (commit, outcomes) = (&commit, &outcomes);
                            s.spawn(move || {
                                for &slot in share {
                                    commit.deposit(slot, outcomes[slot].clone());
                                }
                            });
                        }
                    });
                    committed(commit.finish(0, tolerant))
                };
                let canonical: Vec<usize> = (0..n).collect();
                let want = run(&canonical, 1);
                proptest::prop_assert_eq!(&run(&arrival, 1), &want, "{}", rule.name());
                proptest::prop_assert_eq!(&run(&arrival, 3), &want, "{}", rule.name());

                // The rule spelled out: the first k completed commit.
                let mut groups = Groups::default();
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
