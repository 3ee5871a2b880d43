//! FedAvg aggregation (Figure 2-➍), flat or sharded.
//!
//! Two entry points share one canonical fold:
//!
//! * [`fedavg`] — the classic slice-in, weights-out aggregation over one
//!   round's updates in selection order.
//! * [`PartialAggregate`] — the sharded path. Each engine shard packs its
//!   updates into a partial tagged with their *global selection slots*;
//!   partials [`merge`](PartialAggregate::merge) exactly (list
//!   concatenation plus integer sample counts — no floating point), and
//!   [`finish`](PartialAggregate::finish) restores canonical slot order
//!   before running the very same fold `fedavg` runs.
//!
//! A partial's terms wait in the form they arrived in: a session's int8
//! or sparse reply is still the checked codec payload that crossed the
//! wire; an update pushed through the public API or decoded off the
//! shard-control channel is dense. Sample counts and the mean loss are
//! read from the metadata beside the weights; the coefficients are
//! produced by the finish and nowhere earlier. Under `FedAvg` (and
//! `TrimmedMean { trim: 0 }`, which is the same fold) the terms are
//! pulled by value in slot order — expand, add, drop — with the first
//! one's expansion serving as the accumulator, so one dense update is
//! alive at a time; the rules that need every
//! update per coordinate, or clip each one first, expand them all and run
//! as they always have. The arithmetic is term for term what it was when
//! every term was dense from the start.
//!
//! That split is what makes the merge *associativity-safe*: f32 addition
//! is not associative, so summing per-shard weight averages would make the
//! global model depend on the shard layout. By deferring every
//! floating-point operation to the canonically-ordered finish, any
//! grouping of updates into partials — 1 shard or 64, merged in any order
//! — produces bit-identical global weights.

use std::borrow::Cow;

use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tensor::Tensor;

#[cfg(test)]
use crate::message::probe;
use crate::message::{limits, ArrivedUpload, UpdateUpload};
use crate::wire::wire_struct;
use crate::{FlError, Result};

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
/// * [`NormClip`](Self::NormClip) — clips each update's delta from the
///   previous global model to L2 norm `tau`, then sample-weighted
///   FedAvg over the clipped updates.
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
    /// Per-update L2 delta clipping followed by FedAvg.
    NormClip {
        /// Maximum L2 norm of an update's delta from the previous
        /// global model.
        tau: f32,
    },
}

impl Aggregator {
    /// Short stable name for reports and bench rows.
    pub fn name(&self) -> String {
        match self {
            Aggregator::FedAvg => "fedavg".to_owned(),
            Aggregator::TrimmedMean { trim } => format!("trimmed-mean({trim})"),
            Aggregator::Median => "median".to_owned(),
            Aggregator::NormClip { tau } => format!("norm-clip({tau})"),
        }
    }

    /// Checks the rule's parameters are usable.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for a non-finite or non-positive
    /// clipping norm.
    pub fn validate(&self) -> Result<()> {
        if let Aggregator::NormClip { tau } = self {
            if !tau.is_finite() || *tau <= 0.0 {
                return Err(FlError::BadConfig {
                    reason: format!("norm-clip tau must be finite and positive, got {tau}"),
                });
            }
        }
        Ok(())
    }
}

/// The canonical FedAvg fold: sample-weighted averaging of the updates'
/// post-training weights, accumulated strictly in iteration order. Both
/// [`fedavg`] and [`PartialAggregate::finish`] bottom out here, so the
/// flat and sharded paths cannot drift apart numerically.
///
/// Terms are pulled one at a time and dropped as soon as they are added:
/// a partial hands its terms over by value, expanding each only as the
/// fold reaches it, so one dense update is alive at a time and the
/// accumulator *is* the first of them; `fedavg`'s lent slice is cloned
/// once, for the accumulator.
fn fold_updates<'a, I>(mut updates: I, total: usize) -> Result<ModelWeights>
where
    I: Iterator<Item = Cow<'a, UpdateUpload>>,
{
    if total == 0 {
        return Err(FlError::BadAggregation {
            reason: "total sample count is zero".to_owned(),
        });
    }
    let first = updates
        .next()
        .ok_or_else(|| FlError::BadAggregation {
            reason: "no updates to aggregate".to_owned(),
        })?
        .into_owned();
    let mut acc = first.weights;
    acc.scale(first.num_samples as f32 / total as f32);
    #[cfg(test)]
    probe::note(probe::Event::Folded(first.client_id));
    for u in updates {
        acc.add_scaled(&u.weights, u.num_samples as f32 / total as f32)
            .map_err(|e| FlError::BadAggregation {
                reason: format!("update from client {}: {e}", u.client_id),
            })?;
        #[cfg(test)]
        probe::note(probe::Event::Folded(u.client_id));
    }
    Ok(acc)
}

/// Combines client updates into the next global model by sample-weighted
/// averaging of their post-training weights (McMahan et al.'s FedAvg, the
/// aggregation the paper's server performs).
///
/// # Errors
///
/// Returns [`FlError::BadAggregation`] for an empty update set, a zero
/// total sample count, or architecture mismatches between updates.
pub fn fedavg(updates: &[UpdateUpload]) -> Result<ModelWeights> {
    if updates.is_empty() {
        return Err(FlError::BadAggregation {
            reason: "no updates to aggregate".to_owned(),
        });
    }
    let total: usize = updates.iter().map(|u| u.num_samples).sum();
    fold_updates(updates.iter().map(Cow::Borrowed), total)
}

/// The finished global aggregate of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOutcome {
    /// The next global model.
    pub weights: ModelWeights,
    /// Mean training loss across the round's updates, in selection order
    /// (the round report's `mean_loss`).
    pub mean_loss: f32,
    /// Total samples the round trained on.
    pub total_samples: usize,
}

/// A shard's contribution to one round's aggregate: updates tagged with
/// their global selection slots, merged exactly and finished in canonical
/// order (see the module docs for why the fold is deferred). Terms wait
/// in the form they arrived in — a session's int8 or sparse reply as the
/// checked codec payload that crossed the wire, anything pushed through
/// the public [`push`](Self::push) dense — and are expanded by the
/// finish, not before.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialAggregate {
    terms: Vec<(usize, ArrivedUpload)>,
}

wire_struct!(PartialAggregate {
    terms: list(limits::MAX_LIST_ITEMS),
});

impl PartialAggregate {
    /// An empty partial.
    pub fn new() -> Self {
        PartialAggregate::default()
    }

    /// Adds one update at its global selection slot.
    pub fn push(&mut self, slot: usize, upload: UpdateUpload) {
        self.push_arrived(slot, upload.into());
    }

    /// [`push`](Self::push) for an update still in its arrival form.
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

    /// The global slots of the collected terms, in push order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().map(|(slot, _)| *slot)
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

    /// Total samples across the collected updates (exact integer
    /// arithmetic, so shard-layout independent).
    pub fn total_samples(&self) -> usize {
        self.terms.iter().map(|(_, u)| u.num_samples).sum()
    }

    /// Restores canonical slot order and runs the one FedAvg fold, plus
    /// the round's mean-loss reduction in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadAggregation`] for an empty partial, duplicate
    /// slots (one update per selected client), a zero total sample count,
    /// or architecture mismatches.
    pub fn finish(self) -> Result<AggregateOutcome> {
        self.finish_with(Aggregator::FedAvg, None)
    }

    /// Like [`finish`](Self::finish), but committing with an arbitrary
    /// [`Aggregator`]. `reference` is the previous global model, needed
    /// only by [`Aggregator::NormClip`] (the delta-clipping baseline);
    /// the other rules ignore it. `FedAvg` and `TrimmedMean { trim: 0 }`
    /// run *literally* the canonical FedAvg fold, so a robust run with
    /// no trimming is bit-identical to the plain path — and they expand
    /// one term at a time; the rules that read every update per
    /// coordinate, or clip each before the fold, expand them all first.
    ///
    /// # Errors
    ///
    /// Everything [`finish`](Self::finish) rejects, plus a trim that
    /// leaves no coordinates (`2·trim ≥ n`), a missing reference for
    /// norm clipping, and shape mismatches between updates.
    pub fn finish_with(
        mut self,
        aggregator: Aggregator,
        reference: Option<&ModelWeights>,
    ) -> Result<AggregateOutcome> {
        if self.terms.is_empty() {
            return Err(FlError::BadAggregation {
                reason: "no updates to aggregate".to_owned(),
            });
        }
        self.terms.sort_by_key(|(slot, _)| *slot);
        if let Some(w) = self.terms.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(FlError::BadAggregation {
                reason: format!("two updates claim selection slot {}", w[0].0),
            });
        }
        let total = self.total_samples();
        let n = self.terms.len();
        let mean_loss = self.terms.iter().map(|(_, u)| u.train_loss).sum::<f32>() / n as f32;
        // Slot order, each term expanded as it is pulled.
        let updates = self.terms.into_iter().map(|(_, u)| u.expand());
        let weights = match aggregator {
            Aggregator::FedAvg | Aggregator::TrimmedMean { trim: 0 } => {
                fold_updates(updates.map(Cow::Owned), total)?
            }
            Aggregator::TrimmedMean { trim } => {
                if 2 * trim >= n {
                    return Err(FlError::BadAggregation {
                        reason: format!("trim {trim} leaves no values out of {n} updates"),
                    });
                }
                coordinate_reduce(&updates.map(|u| u.weights).collect::<Vec<_>>(), |vals| {
                    vals.sort_unstable_by(f32::total_cmp);
                    let kept = &vals[trim..vals.len() - trim];
                    kept.iter().sum::<f32>() / kept.len() as f32
                })?
            }
            Aggregator::Median => {
                coordinate_reduce(&updates.map(|u| u.weights).collect::<Vec<_>>(), |vals| {
                    vals.sort_unstable_by(f32::total_cmp);
                    let mid = vals.len() / 2;
                    if vals.len() % 2 == 1 {
                        vals[mid]
                    } else {
                        0.5 * (vals[mid - 1] + vals[mid])
                    }
                })?
            }
            Aggregator::NormClip { tau } => {
                aggregator.validate()?;
                let reference = reference.ok_or_else(|| FlError::BadAggregation {
                    reason: "norm clipping needs the previous global model as reference".to_owned(),
                })?;
                let clipped: Vec<UpdateUpload> = updates
                    .map(|mut u| {
                        let norm = delta_norm(&u.weights, reference)?;
                        if norm <= f64::from(tau) {
                            return Ok(u);
                        }
                        let factor = f64::from(tau) / norm;
                        let mut w = reference.clone();
                        w.add_scaled(&u.weights, factor as f32)?;
                        w.add_scaled(reference, -(factor as f32))?;
                        u.weights = w;
                        Ok(u)
                    })
                    .collect::<Result<_>>()?;
                fold_updates(clipped.into_iter().map(Cow::Owned), total)?
            }
        };
        Ok(AggregateOutcome {
            weights,
            mean_loss,
            total_samples: total,
        })
    }
}

/// The L2 norm of `w − reference` across all coordinates, accumulated
/// in f64 (a fixed, canonical order — deterministic regardless of
/// shard/worker layout since it runs on one update at a time).
fn delta_norm(w: &ModelWeights, reference: &ModelWeights) -> Result<f64> {
    if w.num_layers() != reference.num_layers() {
        return Err(FlError::BadAggregation {
            reason: "update and reference disagree on layer count".to_owned(),
        });
    }
    let mut sum = 0.0f64;
    for (a, b) in w.iter().zip(reference.iter()) {
        if a.w.dims() != b.w.dims() || a.b.dims() != b.b.dims() {
            return Err(FlError::BadAggregation {
                reason: "update and reference disagree on layer shapes".to_owned(),
            });
        }
        for (x, y) in a.w.data().iter().zip(b.w.data()) {
            let d = f64::from(x - y);
            sum += d * d;
        }
        for (x, y) in a.b.data().iter().zip(b.b.data()) {
            let d = f64::from(x - y);
            sum += d * d;
        }
    }
    Ok(sum.sqrt())
}

/// Applies `reduce` to every coordinate across the updates' weights:
/// for each position, the values from all updates land in a scratch
/// slice (in canonical slot order) and `reduce` folds them to the
/// output coefficient. All robust coordinate-wise estimators bottom
/// out here.
fn coordinate_reduce(
    ws: &[ModelWeights],
    reduce: impl Fn(&mut [f32]) -> f32,
) -> Result<ModelWeights> {
    let first = ws.first().ok_or_else(|| FlError::BadAggregation {
        reason: "no updates to aggregate".to_owned(),
    })?;
    for w in &ws[1..] {
        if w.num_layers() != first.num_layers() {
            return Err(FlError::BadAggregation {
                reason: "updates disagree on layer count".to_owned(),
            });
        }
        for (a, b) in w.iter().zip(first.iter()) {
            if a.w.dims() != b.w.dims() || a.b.dims() != b.b.dims() {
                return Err(FlError::BadAggregation {
                    reason: "updates disagree on layer shapes".to_owned(),
                });
            }
        }
    }
    let mut scratch = vec![0.0f32; ws.len()];
    let mut layers = Vec::with_capacity(first.num_layers());
    for li in 0..first.num_layers() {
        let mut reduce_one = |pick: fn(&LayerWeights) -> &Tensor| -> Tensor {
            let template = pick(first.layer(li).expect("layer index"));
            let dims = template.dims().to_vec();
            let n = template.data().len();
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    for (k, w) in ws.iter().enumerate() {
                        scratch[k] = pick(w.layer(li).expect("layer index")).data()[i];
                    }
                    reduce(&mut scratch)
                })
                .collect();
            Tensor::from_vec(data, &dims).expect("reduced tensor mirrors an existing shape")
        };
        let w = reduce_one(|l| &l.w);
        let b = reduce_one(|l| &l.b);
        layers.push(LayerWeights { w, b });
    }
    Ok(ModelWeights::new(layers))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(collect(&updates)
            .finish_with(Aggregator::TrimmedMean { trim: 1 }, None)
            .is_err());
    }

    #[test]
    fn norm_clip_bounds_a_boosted_update() {
        let reference = upload(0, 0.0, 1).weights;
        let updates = vec![upload(0, 0.1, 10), upload(1, 1000.0, 10)];
        let clipped = collect(&updates)
            .finish_with(Aggregator::NormClip { tau: 0.5 }, Some(&reference))
            .unwrap();
        let val = clipped.weights.layer(0).unwrap().w.data()[0];
        assert!(
            val.abs() < 0.5,
            "clipped aggregate stayed bounded, got {val}"
        );
        // Missing reference is an error, not a silent fallback.
        assert!(collect(&updates)
            .finish_with(Aggregator::NormClip { tau: 0.5 }, None)
            .is_err());
        // Within-norm updates pass through exactly: identical to fedavg.
        let gentle = vec![upload(0, 0.01, 10), upload(1, 0.02, 10)];
        let plain = collect(&gentle).finish().unwrap();
        let clipped = collect(&gentle)
            .finish_with(Aggregator::NormClip { tau: 10.0 }, Some(&reference))
            .unwrap();
        assert_eq!(plain.weights, clipped.weights);
    }

    #[test]
    fn aggregator_names_and_validation() {
        assert_eq!(Aggregator::FedAvg.name(), "fedavg");
        assert_eq!(Aggregator::Median.name(), "median");
        assert_eq!(
            Aggregator::TrimmedMean { trim: 2 }.name(),
            "trimmed-mean(2)"
        );
        assert!(Aggregator::NormClip { tau: 0.0 }.validate().is_err());
        assert!(Aggregator::NormClip { tau: f32::NAN }.validate().is_err());
        assert!(Aggregator::NormClip { tau: 1.0 }.validate().is_ok());
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
    }
}
