//! FedAvg aggregation (Figure 2-➍), flat, sharded or as uploads arrive.
//!
//! Three entry points share one exact fold:
//!
//! * [`fedavg`] — the classic slice-in, weights-out aggregation over one
//!   round's updates in selection order.
//! * [`PartialAggregate`] — the public grouped path. A caller packs
//!   updates into partials tagged with their *global selection slots*;
//!   partials [`merge`](PartialAggregate::merge) exactly (list
//!   concatenation plus integer sample counts — no floating point), and
//!   [`finish`](PartialAggregate::finish) runs the very same fold
//!   `fedavg` runs.
//! * The round driver's commit, which feeds the same fold one term at a
//!   time as the round's uploads arrive, in whatever order they arrive.
//!
//! The fold is FedAvg's Σ nᵢ·wᵢ held exactly, as a fixed-point integer
//! per coordinate (an `i128` window, with a wide overflow for products
//! outside it), and divided by N = Σ nᵢ once, at the finish, rounding to
//! the nearest f32. Integer addition is associative and commutative, so
//! any grouping of updates into partials or shards, merged or arriving
//! in any order, folds to bit-identical global weights; a term can be
//! folded — and dropped — the moment it arrives, before N is known. A
//! sparse delta term costs its kept coefficients: it adds
//! nᵢ·(f32(vⱼ + δⱼ) − vⱼ) where it keeps one and nᵢ to a count per view,
//! and the finish adds each count times its view once.
//!
//! A term waits, if it waits at all, in the form it arrived in: a
//! session's int8 or sparse reply is still the checked codec payload that
//! crossed the wire, and a shard server's int8 term crosses the
//! shard-control channel in that form too; an update pushed through the
//! public API, or a shard's dense or delta term, is dense. Every rule
//! refuses a dense term holding a NaN or ±inf, naming its client (a
//! wire-form term's coefficients were checked on arrival). Sample counts
//! and the mean loss are read from the metadata beside the weights, in
//! slot order at the finish. Under `FedAvg` (and `TrimmedMean { trim: 0 }`,
//! which is the same fold) a term is read in place, a chunk of one tensor
//! at a time or its kept coefficients, and nothing is expanded.
//! `TrimmedMean` and `Median`, which need every update per coordinate,
//! keep their terms and expand none: they read each term in place, front
//! to back, a chunk of one tensor at a time, so a sparse term's gaps are
//! walked once a tensor.
//! Their per-coordinate sums run over sorted values, so they too are
//! independent of the order terms arrive in.

use gradsec_nn::model::ModelWeights;
use gradsec_tensor::Tensor;

use crate::codec::{flatten, layers};
use crate::message::{ArrivedUpload, ArrivedWeights, UpdateUpload};
use crate::{FlError, Result};

mod fold;

use fold::Fold;

/// The aggregation rule a round commits with. [`FedAvg`](Self::FedAvg)
/// is the paper's sample-weighted average; the robust variants are the
/// standard Byzantine-tolerant estimators evaluated against hostile
/// fleets ([`crate::adversary`]):
///
/// * [`TrimmedMean`](Self::TrimmedMean) — coordinate-wise mean after
///   dropping the `trim` lowest and highest values per coordinate
///   (Yin et al.); `trim = 0` delegates *literally* to the FedAvg fold,
///   so the two agree bit-for-bit.
/// * [`Median`](Self::Median) — coordinate-wise median (even counts
///   average the two middle values).
///
/// The choice is coordinator-side state: it never crosses the wire, so
/// every execution path (flat, sharded, distributed) aggregates with
/// the one rule configured on the builder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Aggregator {
    /// Sample-weighted averaging (the default).
    #[default]
    FedAvg,
    /// Coordinate-wise trimmed mean, unweighted.
    TrimmedMean {
        /// How many extremes to drop per side, per coordinate.
        trim: usize,
    },
    /// Coordinate-wise median, unweighted.
    Median,
}

impl Aggregator {
    /// Short stable name for reports and bench rows.
    pub fn name(&self) -> String {
        match self {
            Aggregator::FedAvg => "fedavg".to_owned(),
            Aggregator::TrimmedMean { trim } => format!("trimmed-mean({trim})"),
            Aggregator::Median => "median".to_owned(),
        }
    }
}

/// One round's aggregate built term by term, in any order — the rule
/// applied as each term is added, so the caller may drop the term at
/// once. Under `FedAvg` (and `TrimmedMean { trim: 0 }`, which is the same
/// fold) a term is read in place and folded exactly; `TrimmedMean` and
/// `Median`, which need every term per coordinate, keep them as they
/// arrived for the finish. Each term carries its selection slot: the
/// finish reads the sample total, the mean loss and the kept terms in
/// slot order, and of several failing terms reports the lowest slot's
/// error, so the outcome does not depend on the order terms were added
/// in.
pub(crate) struct Aggregation {
    rule: Aggregator,
    fold: Fold,
    kept: Vec<(usize, ArrivedUpload)>,
    /// Every term's slot, client, sample count and loss, as added.
    terms: Vec<(usize, u64, usize, f32)>,
    /// The lowest-slot error of a term so far.
    error: Option<(usize, FlError)>,
}

impl Aggregation {
    /// An empty aggregate under `rule`. When the previous global model
    /// `reference` is given, every folded term must have its shape;
    /// otherwise the first term's.
    pub(crate) fn new(rule: Aggregator, reference: Option<&ModelWeights>) -> Self {
        Aggregation {
            rule,
            fold: Fold::new(reference),
            kept: Vec::new(),
            terms: Vec::new(),
            error: None,
        }
    }

    /// Adds the term at selection slot `slot`.
    pub(crate) fn add(&mut self, slot: usize, upload: ArrivedUpload) {
        let (client, samples) = (upload.client_id, upload.num_samples);
        self.terms.push((slot, client, samples, upload.train_loss));
        let settled = self.error.as_ref().is_some_and(|(at, _)| *at < slot);
        if !settled {
            if let Err(e) = self.try_add(slot, upload) {
                self.error = Some((slot, e));
            }
        }
    }

    fn try_add(&mut self, slot: usize, upload: ArrivedUpload) -> Result<()> {
        let (client, samples) = (upload.client_id, upload.num_samples);
        if let ArrivedWeights::Dense(w) = &upload.weights {
            refuse_non_finite(client, w)?;
        }
        match self.rule {
            Aggregator::FedAvg | Aggregator::TrimmedMean { trim: 0 } => {
                self.fold.add(client, samples, &upload.weights)
            }
            Aggregator::TrimmedMean { .. } | Aggregator::Median => {
                self.kept.push((slot, upload));
                Ok(())
            }
        }
    }

    /// The finished aggregate, with the mean loss summed in slot order.
    ///
    /// # Errors
    ///
    /// No terms, the lowest slot's error — a term's own, or a sample
    /// count that overflows the total summed in slot order — a zero
    /// sample total, or a trim that leaves no coordinates (`2·trim ≥ n`).
    pub(crate) fn finish(mut self) -> Result<AggregateOutcome> {
        let n = self.terms.len();
        if n == 0 {
            return Err(FlError::BadAggregation {
                reason: "no updates to aggregate".to_owned(),
            });
        }
        self.terms.sort_by_key(|&(slot, ..)| slot);
        let mut total = 0usize;
        for &(slot, client, samples, _) in &self.terms {
            let Some(sum) = total.checked_add(samples) else {
                if self.error.as_ref().is_none_or(|(at, _)| slot <= *at) {
                    self.error = Some((
                        slot,
                        FlError::BadAggregation {
                            reason: format!(
                                "{samples} samples from client {client} overflow the sample total"
                            ),
                        },
                    ));
                }
                break;
            };
            total = sum;
        }
        if let Some((_, e)) = self.error {
            return Err(e);
        }
        self.kept.sort_by_key(|(slot, _)| *slot);
        let kept: Vec<ArrivedUpload> = self.kept.into_iter().map(|(_, u)| u).collect();
        let weights = match self.rule {
            Aggregator::TrimmedMean { trim } if trim > 0 => {
                if 2 * trim >= n {
                    return Err(FlError::BadAggregation {
                        reason: format!("trim {trim} leaves no values out of {n} updates"),
                    });
                }
                coordinate_reduce(&kept, |vals| trimmed_mean(vals, trim))?
            }
            Aggregator::Median => coordinate_reduce(&kept, median)?,
            _ if total == 0 => {
                return Err(FlError::BadAggregation {
                    reason: "total sample count is zero".to_owned(),
                })
            }
            _ => self.fold.finish(total)?,
        };
        Ok(AggregateOutcome {
            weights,
            mean_loss: self.terms.iter().map(|&(.., loss)| loss).sum::<f32>() / n as f32,
            total_samples: total,
        })
    }
}

/// Refuses `client`'s dense update if any coefficient is NaN or ±inf:
/// the check every rule makes on a dense term (a wire-form term's
/// coefficients were checked on arrival).
fn refuse_non_finite(client: u64, weights: &ModelWeights) -> Result<()> {
    for (i, t) in flatten(weights).into_iter().enumerate() {
        if let Some(j) = t.data().iter().position(|x| !x.is_finite()) {
            return Err(fold::non_finite(client, i, j, t.data()[j]));
        }
    }
    Ok(())
}

/// Combines client updates into the next global model by sample-weighted
/// averaging of their post-training weights (McMahan et al.'s FedAvg, the
/// aggregation the paper's server performs).
///
/// # Errors
///
/// Returns [`FlError::BadAggregation`] for an empty update set, a zero
/// total sample count, architecture mismatches between updates, or a
/// non-finite coefficient, naming its client.
pub fn fedavg(updates: &[UpdateUpload]) -> Result<ModelWeights> {
    let mut aggregation = Aggregation::new(Aggregator::FedAvg, None);
    for (slot, u) in updates.iter().enumerate() {
        aggregation.add(slot, u.clone().into());
    }
    aggregation.finish().map(|outcome| outcome.weights)
}

/// The finished global aggregate of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOutcome {
    /// The next global model.
    pub weights: ModelWeights,
    /// Mean training loss across the round's updates, in selection order
    /// (the round report's `mean_loss`).
    pub(crate) mean_loss: f32,
    /// Total samples the round trained on.
    pub total_samples: usize,
}

/// A shard's contribution to one round's aggregate: updates tagged with
/// their global selection slots, merged exactly and finished by the exact
/// fold (see the module docs), which no grouping or order moves. Terms
/// pushed through the public [`push`](Self::push) are dense; they are
/// read by the finish, not before.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialAggregate {
    terms: Vec<(usize, ArrivedUpload)>,
}

impl PartialAggregate {
    /// An empty partial.
    pub fn new() -> Self {
        PartialAggregate::default()
    }

    /// Adds one update at its global selection slot.
    pub fn push(&mut self, slot: usize, upload: UpdateUpload) {
        self.terms.push((slot, upload.into()));
    }

    /// [`push`](Self::push) for an update still in its arrival form: the
    /// tests' way to fold a term in wire form.
    #[cfg(test)]
    pub(crate) fn push_arrived(&mut self, slot: usize, upload: ArrivedUpload) {
        self.terms.push((slot, upload));
    }

    /// Folds another partial into this one. The merge is exact — pure
    /// list concatenation, no floating point — so it is associative and
    /// commutative by construction; ordering is restored at
    /// [`finish`](Self::finish).
    pub fn merge(&mut self, other: PartialAggregate) {
        self.terms.extend(other.terms);
    }

    /// Consumes the partial into its `(global slot, update)` terms, dense,
    /// in push order (the canonical ordering happens at
    /// [`finish`](Self::finish), not here).
    pub fn into_terms(self) -> Vec<(usize, UpdateUpload)> {
        self.terms
            .into_iter()
            .map(|(slot, upload)| (slot, upload.expand()))
            .collect()
    }

    /// Number of updates collected so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when no update has been collected.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Runs the one FedAvg fold, plus the round's mean-loss reduction in
    /// slot order.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadAggregation`] for an empty partial, duplicate
    /// slots (one update per selected client), a zero total sample count,
    /// architecture mismatches, or a non-finite coefficient.
    pub fn finish(self) -> Result<AggregateOutcome> {
        self.finish_with(Aggregator::FedAvg, None)
    }

    /// Like [`finish`](Self::finish), but committing with an arbitrary
    /// [`Aggregator`]. `reference` is the previous global model: when
    /// given, every folded term's shape is checked against it. `FedAvg`
    /// and `TrimmedMean { trim: 0 }` run *literally* the one FedAvg fold,
    /// so a robust run with no trimming is bit-identical to the plain
    /// path; they read each term in place and expand none. `TrimmedMean`
    /// and `Median` expand none either — they read each term in place, a
    /// chunk of coordinates at a time.
    ///
    /// # Errors
    ///
    /// Everything [`finish`](Self::finish) rejects, plus a trim that
    /// leaves no coordinates (`2·trim ≥ n`) and shape mismatches between
    /// updates.
    pub fn finish_with(
        mut self,
        aggregator: Aggregator,
        reference: Option<&ModelWeights>,
    ) -> Result<AggregateOutcome> {
        self.terms.sort_by_key(|(slot, _)| *slot);
        if let Some(w) = self.terms.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(FlError::BadAggregation {
                reason: format!("two updates claim selection slot {}", w[0].0),
            });
        }
        let mut aggregation = Aggregation::new(aggregator, reference);
        for (slot, upload) in self.terms {
            aggregation.add(slot, upload);
        }
        aggregation.finish()
    }
}

/// The mean of `vals` once the `trim` lowest and highest are dropped.
fn trimmed_mean(vals: &mut [f32], trim: usize) -> f32 {
    vals.sort_unstable_by(f32::total_cmp);
    let kept = &vals[trim..vals.len() - trim];
    kept.iter().sum::<f32>() / kept.len() as f32
}

/// The median of `vals`; an even count averages the two middle values.
fn median(vals: &mut [f32]) -> f32 {
    vals.sort_unstable_by(f32::total_cmp);
    let mid = vals.len() / 2;
    if vals.len() % 2 == 1 {
        vals[mid]
    } else {
        0.5 * (vals[mid - 1] + vals[mid])
    }
}

/// Coordinates of one tensor [`coordinate_reduce`] reads from each term
/// at a time: what it holds beyond the terms is this many floats a term.
const REDUCE_CHUNK: usize = 64;

/// Applies `reduce` to every coordinate across the terms: for each
/// position, the values of all terms land in a scratch slice (in canonical
/// slot order) and `reduce` folds them to the output coefficient. Each
/// term's tensor is read front to back by one reader, [`REDUCE_CHUNK`]
/// coordinates at a time, so none is expanded and a sparse term's gaps
/// are walked once a tensor. All robust coordinate-wise estimators bottom
/// out here.
fn coordinate_reduce(
    terms: &[ArrivedUpload],
    reduce: impl Fn(&mut [f32]) -> f32,
) -> Result<ModelWeights> {
    let terms: Vec<&ArrivedWeights> = terms.iter().map(|u| &u.weights).collect();
    let first = terms.first().ok_or_else(|| FlError::BadAggregation {
        reason: "no updates to aggregate".to_owned(),
    })?;
    let count = first.tensors();
    for t in &terms[1..] {
        if t.tensors() != count {
            return Err(FlError::BadAggregation {
                reason: "updates disagree on layer count".to_owned(),
            });
        }
        if (0..count).any(|i| t.dims(i) != first.dims(i)) {
            return Err(FlError::BadAggregation {
                reason: "updates disagree on layer shapes".to_owned(),
            });
        }
    }
    let mut chunks = vec![0.0f32; terms.len() * REDUCE_CHUNK];
    let mut vals = vec![0.0f32; terms.len()];
    let tensors = (0..count).map(|i| {
        let dims = first.dims(i);
        let n = dims.iter().product::<usize>();
        let mut data = Vec::with_capacity(n);
        let mut readers: Vec<_> = terms.iter().map(|t| t.reader(i)).collect();
        for start in (0..n).step_by(REDUCE_CHUNK) {
            let len = REDUCE_CHUNK.min(n - start);
            for (r, chunk) in readers
                .iter_mut()
                .zip(chunks.chunks_exact_mut(REDUCE_CHUNK))
            {
                r.fill(&mut chunk[..len]);
            }
            for j in 0..len {
                for (v, chunk) in vals.iter_mut().zip(chunks.chunks_exact(REDUCE_CHUNK)) {
                    *v = chunk[j];
                }
                data.push(reduce(&mut vals));
            }
        }
        Tensor::from_vec(data, dims).expect("reduced tensor mirrors an existing shape")
    });
    Ok(layers(tensors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::flatten;
    use gradsec_nn::model::LayerWeights;
    use gradsec_tensor::Tensor;

    fn upload(client: u64, value: f32, samples: usize) -> UpdateUpload {
        UpdateUpload {
            client_id: client,
            round: 0,
            weights: ModelWeights::new(vec![LayerWeights {
                w: Tensor::full(&[2], value),
                b: Tensor::full(&[1], value),
            }]),
            num_samples: samples,
            train_loss: 0.0,
            cost: Default::default(),
        }
    }

    #[test]
    fn equal_weights_average() {
        let g = fedavg(&[upload(0, 1.0, 10), upload(1, 3.0, 10)]).unwrap();
        assert!(g
            .layer(0)
            .unwrap()
            .w
            .approx_eq(&Tensor::full(&[2], 2.0), 1e-6));
    }

    #[test]
    fn sample_weighting() {
        // 1.0 with 30 samples, 5.0 with 10 samples -> (30·1 + 10·5)/40 = 2.
        let g = fedavg(&[upload(0, 1.0, 30), upload(1, 5.0, 10)]).unwrap();
        assert!(g
            .layer(0)
            .unwrap()
            .w
            .approx_eq(&Tensor::full(&[2], 2.0), 1e-6));
    }

    #[test]
    fn single_update_is_identity() {
        let u = upload(0, 7.0, 5);
        let g = fedavg(std::slice::from_ref(&u)).unwrap();
        assert_eq!(g, u.weights);
    }

    #[test]
    fn rejects_empty_and_zero_samples() {
        assert!(fedavg(&[]).is_err());
        assert!(fedavg(&[upload(0, 1.0, 0)]).is_err());
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let a = upload(0, 1.0, 10);
        let mut b = upload(1, 1.0, 10);
        b.weights = ModelWeights::new(vec![
            LayerWeights {
                w: Tensor::zeros(&[2]),
                b: Tensor::zeros(&[1]),
            },
            LayerWeights {
                w: Tensor::zeros(&[2]),
                b: Tensor::zeros(&[1]),
            },
        ]);
        assert!(fedavg(&[a, b]).is_err());
    }

    /// Awkwardly-weighted f32 values that would expose any reordering of
    /// the fold if the partial path regrouped the sums.
    fn awkward_uploads() -> Vec<UpdateUpload> {
        [0.1f32, 0.7, 1e-3, 3.33, 0.2, 5.5, 0.9, 1e4]
            .iter()
            .enumerate()
            .map(|(i, &v)| upload(i as u64, v, 3 * i + 1))
            .collect()
    }

    #[test]
    fn partial_aggregate_is_bit_identical_to_fedavg_for_any_grouping() {
        let updates = awkward_uploads();
        let want = fedavg(&updates).unwrap();
        // Every contiguous two-way split, merged both ways.
        for cut in 0..=updates.len() {
            for swap in [false, true] {
                let mut left = PartialAggregate::new();
                let mut right = PartialAggregate::new();
                for (slot, u) in updates.iter().enumerate() {
                    let p = if slot < cut { &mut left } else { &mut right };
                    p.push(slot, u.clone());
                }
                let mut merged = PartialAggregate::new();
                if swap {
                    merged.merge(right);
                    merged.merge(left);
                } else {
                    merged.merge(left);
                    merged.merge(right);
                }
                let out = merged.finish().unwrap();
                assert_eq!(out.weights, want, "cut {cut} swap {swap} diverged");
            }
        }
    }

    #[test]
    fn partial_aggregate_reports_loss_and_samples_in_slot_order() {
        let mut updates = awkward_uploads();
        for (i, u) in updates.iter_mut().enumerate() {
            u.train_loss = i as f32;
        }
        let flat_loss =
            updates.iter().map(|u| u.train_loss).sum::<f32>() / updates.len().max(1) as f32;
        let mut agg = PartialAggregate::new();
        // Push in reverse — finish must restore slot order.
        for (slot, u) in updates.iter().enumerate().rev() {
            agg.push(slot, u.clone());
        }
        assert_eq!(agg.len(), updates.len());
        let out = agg.finish().unwrap();
        assert_eq!(out.weights, fedavg(&updates).unwrap());
        assert_eq!(out.mean_loss, flat_loss);
        assert_eq!(
            out.total_samples,
            updates.iter().map(|u| u.num_samples).sum::<usize>()
        );
    }

    fn collect(updates: &[UpdateUpload]) -> PartialAggregate {
        let mut agg = PartialAggregate::new();
        for (slot, u) in updates.iter().enumerate() {
            agg.push(slot, u.clone());
        }
        agg
    }

    #[test]
    fn trimmed_mean_drops_the_outlier() {
        // Three honest updates at ~1.0, one poisoned at -100.
        let updates = vec![
            upload(0, 1.0, 10),
            upload(1, 1.1, 10),
            upload(2, 0.9, 10),
            upload(3, -100.0, 10),
        ];
        let fed = collect(&updates).finish().unwrap();
        let trimmed = collect(&updates)
            .finish_with(Aggregator::TrimmedMean { trim: 1 }, None)
            .unwrap();
        let fed_val = fed.weights.layer(0).unwrap().w.data()[0];
        let trim_val = trimmed.weights.layer(0).unwrap().w.data()[0];
        assert!(
            fed_val < -20.0,
            "fedavg should be dragged down, got {fed_val}"
        );
        assert!(
            (trim_val - 1.0).abs() < 0.1,
            "trimmed mean held, got {trim_val}"
        );
    }

    #[test]
    fn median_resists_minority_outliers() {
        let updates = vec![upload(0, 1.0, 10), upload(1, 1.0, 10), upload(2, 500.0, 10)];
        let med = collect(&updates)
            .finish_with(Aggregator::Median, None)
            .unwrap();
        assert_eq!(med.weights.layer(0).unwrap().w.data()[0], 1.0);
        // Even count: average of the two middles.
        let updates = vec![upload(0, 1.0, 10), upload(1, 3.0, 10)];
        let med = collect(&updates)
            .finish_with(Aggregator::Median, None)
            .unwrap();
        assert_eq!(med.weights.layer(0).unwrap().w.data()[0], 2.0);
    }

    #[test]
    fn trim_zero_is_bit_identical_to_fedavg() {
        let updates = awkward_uploads();
        let fed = collect(&updates).finish().unwrap();
        let trim0 = collect(&updates)
            .finish_with(Aggregator::TrimmedMean { trim: 0 }, None)
            .unwrap();
        assert_eq!(fed.weights, trim0.weights);
    }

    #[test]
    fn trim_too_large_is_rejected() {
        let updates = vec![upload(0, 1.0, 10), upload(1, 2.0, 10)];
        let err = collect(&updates)
            .finish_with(Aggregator::TrimmedMean { trim: 1 }, None)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad aggregation: trim 1 leaves no values out of 2 updates"
        );
    }

    #[test]
    fn aggregator_names_and_validation() {
        assert_eq!(Aggregator::FedAvg.name(), "fedavg");
        assert_eq!(Aggregator::Median.name(), "median");
        assert_eq!(
            Aggregator::TrimmedMean { trim: 2 }.name(),
            "trimmed-mean(2)"
        );
    }

    /// A non-finite coefficient on the public dense path is refused by
    /// every rule with one text naming its client; it once committed a
    /// NaN global.
    #[test]
    fn a_non_finite_dense_coefficient_is_refused_by_every_rule_naming_its_client() {
        let reference = upload(0, 0.0, 1).weights;
        let rules = [
            Aggregator::FedAvg,
            Aggregator::TrimmedMean { trim: 0 },
            Aggregator::TrimmedMean { trim: 1 },
            Aggregator::Median,
        ];
        for (values, client) in [
            ([1.0, f32::NAN, 2.0], 1),
            ([f32::INFINITY, f32::NEG_INFINITY, 2.0], 0),
        ] {
            let updates: Vec<_> = (0..3).map(|i| upload(i, values[i as usize], 10)).collect();
            let want = format!("update from client {client} holds non-finite coefficient");
            let err = fedavg(&updates).unwrap_err().to_string();
            assert!(err.contains(&want), "fedavg: {err}");
            for rule in rules {
                let err = collect(&updates)
                    .finish_with(rule, Some(&reference))
                    .unwrap_err();
                assert!(
                    matches!(err, FlError::BadAggregation { .. }),
                    "{}: {err}",
                    rule.name()
                );
                assert!(err.to_string().contains(&want), "{}: {err}", rule.name());
            }
        }
    }

    #[test]
    fn partial_aggregate_rejects_empty_and_duplicate_slots() {
        assert!(PartialAggregate::new().finish().is_err());
        let mut agg = PartialAggregate::new();
        agg.push(0, upload(0, 1.0, 4));
        agg.push(0, upload(1, 2.0, 4));
        let err = agg.finish().unwrap_err();
        assert!(err.to_string().contains("selection slot"), "{err}");
    }
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The terms of a round wait in two forms — a session's reply as
        /// the checked payload that crossed the wire, a shard's or a
        /// public caller's update dense. Whatever the mix, however it is
        /// grouped into partials and in whichever order those merge, the
        /// fold is `fedavg` over the dense updates the eager calls would
        /// have handed out, bit for bit.
        #[test]
        fn any_mix_of_wire_form_and_dense_terms_folds_to_fedavg_bits(
            n in 1usize..9,
            in_wire_form in proptest::any::<u16>(),
            in_second_partial in proptest::any::<u16>(),
            second_first in proptest::any::<bool>(),
            codec in 0u8..3,
            seed in proptest::any::<u64>(),
        ) {
            use crate::codec::{decode_weights, encode_weights, CheckedWeights, CodecKind};
            use crate::message::ArrivedWeights;
            use gradsec_tensor::init;
            let model = |seed: u64| {
                ModelWeights::new(vec![LayerWeights {
                    w: init::uniform(&[6, 7], -1.0, 1.0, seed),
                    b: init::uniform(&[7], -1.0, 1.0, seed ^ 0xB1A5),
                }])
            };
            let codec = CodecKind::from_u8(codec).unwrap();
            let view = std::sync::Arc::new(model(seed ^ 0x5EED));
            let mut dense = Vec::new();
            let mut partials = [PartialAggregate::new(), PartialAggregate::new()];
            for slot in 0..n {
                let trained = model(seed.wrapping_add(slot as u64));
                let enc = encode_weights(codec, 1, &trained, Some((0, &view)));
                let mut update = upload(slot as u64, 0.0, 1 + 3 * slot);
                update.weights = decode_weights(&enc, Some(&view)).unwrap();
                dense.push(update.clone());
                let mut term = ArrivedUpload::from(update);
                if in_wire_form >> slot & 1 == 1 {
                    let checked = CheckedWeights::new(enc, Some(view.clone())).unwrap();
                    term.weights = ArrivedWeights::Wire(Box::new(checked));
                }
                partials[usize::from(in_second_partial >> slot & 1 == 1)].push_arrived(slot, term);
            }
            let want = fedavg(&dense).unwrap();
            let [first, second] = partials;
            let mut merged = PartialAggregate::new();
            if second_first {
                merged.merge(second);
                merged.merge(first);
            } else {
                merged.merge(first);
                merged.merge(second);
            }
            let bits = |w: &ModelWeights| crate::transport::tests::bits(crate::codec::flatten(w));
            for rule in [Aggregator::FedAvg, Aggregator::TrimmedMean { trim: 0 }] {
                let out = merged.clone().finish_with(rule, None).unwrap();
                proptest::prop_assert_eq!(bits(&out.weights), bits(&want));
            }
            // The dense view of the same partial is the eager calls' updates.
            let mut terms = merged.into_terms();
            terms.sort_by_key(|(slot, _)| *slot);
            let terms: Vec<UpdateUpload> = terms.into_iter().map(|(_, u)| u).collect();
            proptest::prop_assert_eq!(terms, dense);
        }

        /// Median and trimmed means read each term in place, a chunk of
        /// one tensor at a time. Whatever the mix of dense and wire-form
        /// terms and of codecs, they commit what reducing every expanded
        /// term commits, bit for bit: on tensors that end mid-chunk, and
        /// with sparse indices either side of a chunk boundary.
        #[test]
        fn robust_rules_read_any_mix_of_terms_to_the_bits_of_expanding_them(
            n in 5usize..10,
            in_wire_form in proptest::any::<u16>(),
            codecs in proptest::any::<u32>(),
            seed in proptest::any::<u64>(),
        ) {
            use crate::codec::{decode_weights, encode_weights, CheckedWeights, CodecKind};
            use gradsec_tensor::init;
            const C: usize = REDUCE_CHUNK;
            // Tensors of 3 · (C/2 + 5), 2C + 1, 1 and C coefficients.
            let shaped = |w: [Tensor; 4]| {
                let [w0, b0, w1, b1] = w;
                ModelWeights::new(vec![
                    LayerWeights { w: w0, b: b0 },
                    LayerWeights { w: w1, b: b1 },
                ])
            };
            let dims: [&[usize]; 4] = [&[3, C / 2 + 5], &[2 * C + 1], &[1], &[C]];
            let model = |seed: u64| {
                shaped(dims.map(|d| init::uniform(d, -1.0, 1.0, seed ^ d.iter().product::<usize>() as u64)))
            };
            // Moves top-k keeps, either side of the long bias's chunk edges.
            let mut long = vec![0.0; 2 * C + 1];
            for at in [C - 1, C, 2 * C] {
                long[at] = 5.0;
            }
            let bump = shaped([
                Tensor::zeros(dims[0]),
                Tensor::from_vec(long, dims[1]).unwrap(),
                Tensor::zeros(dims[2]),
                Tensor::zeros(dims[3]),
            ]);
            let view = std::sync::Arc::new(model(seed ^ 0x5EED));
            let mut expanded = Vec::new();
            let mut partial = PartialAggregate::new();
            for slot in 0..n {
                let mut trained = (*view).clone();
                trained.add_scaled(&model(seed.wrapping_add(slot as u64)), 0.01).unwrap();
                trained.add_scaled(&bump, 1.0 + slot as f32).unwrap();
                let codec = CodecKind::from_u8((codecs >> (2 * slot) & 3) as u8 % 3).unwrap();
                let enc = encode_weights(codec, 1, &trained, Some((0, &view)));
                let dense = decode_weights(&enc, Some(&view)).unwrap();
                let mut term = ArrivedUpload::from(upload(slot as u64, 0.0, 1 + slot));
                term.weights = if in_wire_form >> slot & 1 == 1 {
                    let checked = CheckedWeights::new(enc, Some(view.clone())).unwrap();
                    ArrivedWeights::Wire(Box::new(checked))
                } else {
                    ArrivedWeights::Dense(dense.clone())
                };
                expanded.push(dense);
                partial.push_arrived(slot, term);
            }
            let bits = |w: &ModelWeights| crate::transport::tests::bits(flatten(w));
            let rules: [(Aggregator, Reduce); 3] = [
                (Aggregator::Median, median),
                (Aggregator::TrimmedMean { trim: 1 }, |v| trimmed_mean(v, 1)),
                (Aggregator::TrimmedMean { trim: 2 }, |v| trimmed_mean(v, 2)),
            ];
            for (rule, reduce) in rules {
                let got = partial.clone().finish_with(rule, None).unwrap();
                let want = reduce_expanded(&expanded, reduce);
                proptest::prop_assert_eq!(bits(&got.weights), bits(&want), "{}", rule.name());
            }
        }
    }

    proptest::proptest! {
        // Each case holds a 2.1M-coefficient view and every term expanded.
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        /// A sparse term's reader walks its gaps once across the chunks of
        /// a tensor. Over wire-form delta terms whose kept indices sit
        /// either side of multiples of [`REDUCE_CHUNK`] and whose gaps are
        /// 1-, 2-, 3- and 4-byte varints (127 | 128, 16 383 | 16 384 and
        /// 2^21), median and trimmed means commit what reducing every
        /// expanded term commits, bit for bit. (A 5-byte gap, 2^28, needs
        /// a tensor of over 2^28 coefficients; the decoder's walk of one
        /// is pinned by the codec's hostile fixtures.)
        #[test]
        fn robust_rules_read_wide_gap_sparse_terms_to_the_bits_of_expanding_them(
            n in 5usize..7,
            starts in proptest::collection::vec(0usize..8, 7..8),
            rotations in proptest::collection::vec(0usize..5, 7..8),
            seed in proptest::any::<u64>(),
        ) {
            use crate::codec::{
                CheckedWeights, CodecKind, EncodedBody, EncodedTensor, EncodedWeights, SparseDelta,
            };
            use crate::message::encode;
            use gradsec_tensor::init;
            const C: usize = REDUCE_CHUNK;
            const GAPS: [(usize, usize); 5] = [(127, 1), (128, 2), (16_383, 2), (16_384, 3), (1 << 21, 4)];
            // Room for a start below 2C, every gap and a closing run; the
            // last chunk ends mid-way.
            let len = 2 * C + GAPS.iter().map(|(g, _)| g + 1).sum::<usize>() + 3 * C + 5;
            let view = std::sync::Arc::new(ModelWeights::new(vec![LayerWeights {
                w: init::uniform(&[len], -1.0, 1.0, seed),
                b: init::uniform(&[C], -1.0, 1.0, seed ^ 0xB1A5),
            }]));
            let mut expanded = Vec::new();
            let mut partial = PartialAggregate::new();
            for slot in 0..n {
                // From just below the second chunk edge, across every gap
                // width in a drawn order, then the run either side of the
                // next chunk edge.
                let mut kept = vec![C + starts[slot] - 4];
                let mut gap_bytes = 1;
                for j in 0..GAPS.len() {
                    let (gap, width) = GAPS[(j + rotations[slot]) % GAPS.len()];
                    kept.push(kept[kept.len() - 1] + gap + 1);
                    gap_bytes += width;
                }
                let edge = (kept[kept.len() - 1] / C + 2) * C;
                kept.extend([edge - 1, edge, edge + 1]);
                gap_bytes += 3;
                let values = init::uniform(&[kept.len()], -1.0, 1.0, seed.wrapping_add(slot as u64));
                let entries = kept.iter().zip(values.data()).map(|(&i, &v)| (i as u32, v));
                let weights = EncodedTensor {
                    dims: vec![len],
                    body: EncodedBody::TopK(SparseDelta::from_entries(entries)),
                };
                // Rank, dim, tag, count, the gaps, the values.
                proptest::prop_assert_eq!(encode(&weights).len(), 8 + 8 + 1 + 8 + gap_bytes + 4 * kept.len());
                let bias = [(C as u32 - 2, 0.25 * slot as f32), (C as u32 - 1, -0.5)];
                let enc = EncodedWeights {
                    codec: CodecKind::DeltaTopK,
                    epoch: 1,
                    base_epoch: Some(0),
                    tensors: vec![
                        weights,
                        EncodedTensor {
                            dims: vec![C],
                            body: EncodedBody::TopK(SparseDelta::from_entries(bias)),
                        },
                    ],
                };
                let checked = CheckedWeights::new(enc, Some(view.clone())).unwrap();
                expanded.push(checked.to_dense());
                let mut term = ArrivedUpload::from(upload(slot as u64, 0.0, 1 + slot));
                term.weights = ArrivedWeights::Wire(Box::new(checked));
                partial.push_arrived(slot, term);
            }
            let bits = |w: &ModelWeights| crate::transport::tests::bits(flatten(w));
            let rules: [(Aggregator, Reduce); 3] = [
                (Aggregator::Median, median),
                (Aggregator::TrimmedMean { trim: 1 }, |v| trimmed_mean(v, 1)),
                (Aggregator::TrimmedMean { trim: 2 }, |v| trimmed_mean(v, 2)),
            ];
            for (rule, reduce) in rules {
                let got = partial.clone().finish_with(rule, None).unwrap();
                let want = reduce_expanded(&expanded, reduce);
                proptest::prop_assert_eq!(bits(&got.weights), bits(&want), "{}", rule.name());
            }
        }
    }

    /// A coordinate-wise rule's reduction of one coordinate's values.
    type Reduce = fn(&mut [f32]) -> f32;

    /// A robust rule as it ran before terms were read in place: every
    /// term expanded first, then each coordinate gathered across them.
    fn reduce_expanded(ws: &[ModelWeights], reduce: Reduce) -> ModelWeights {
        let flat: Vec<Vec<&Tensor>> = ws.iter().map(flatten).collect();
        layers((0..flat[0].len()).map(|i| {
            let data = (0..flat[0][i].numel())
                .map(|j| reduce(&mut flat.iter().map(|f| f[i].data()[j]).collect::<Vec<_>>()))
                .collect();
            Tensor::from_vec(data, flat[0][i].dims()).unwrap()
        }))
    }
}
