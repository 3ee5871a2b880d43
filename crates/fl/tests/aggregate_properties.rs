//! Property-based tests for the robust aggregation rules.
//!
//! The estimators defending hostile fleets ([`Aggregator::TrimmedMean`],
//! [`Aggregator::Median`], [`Aggregator::NormClip`]) must hold three
//! families of invariants:
//!
//! * **Permutation invariance** — the coordinate-wise estimators sort
//!   values per coordinate, so reassigning updates to different
//!   selection slots cannot move a single bit of the result.
//! * **Breakdown** — with at most `k` outliers among `n` honest updates
//!   (`k` within the estimator's breakdown point), the robust estimate
//!   stays at the honest value while plain FedAvg is dragged away.
//! * **Degenerate agreement** — `TrimmedMean { trim: 0 }` delegates
//!   literally to the FedAvg fold, and `NormClip` with a norm bound no
//!   update exceeds clips nothing, so both agree with plain FedAvg
//!   bit-for-bit.
//!
//! Every invariant is exercised on dense updates *and* on updates that
//! round-tripped through the `delta-topk` sparse codec — the realistic
//! shape a bandwidth-constrained hostile fleet uploads.

use gradsec_fl::aggregate::{fedavg, Aggregator, PartialAggregate};
use gradsec_fl::codec::{decode_weights, encode_weights, CodecKind};
use gradsec_fl::message::{decode, encode, UpdateUpload};
use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tensor::{init, Tensor};
use proptest::prelude::*;

fn weights(layers: usize, width: usize, seed: u64) -> ModelWeights {
    ModelWeights::new(
        (0..layers)
            .map(|i| LayerWeights {
                w: init::uniform(&[width, width], -1.0, 1.0, seed + i as u64),
                b: init::uniform(&[width], -1.0, 1.0, seed + 100 + i as u64),
            })
            .collect(),
    )
}

fn constant(layers: usize, width: usize, value: f32) -> ModelWeights {
    ModelWeights::new(
        (0..layers)
            .map(|_| LayerWeights {
                w: Tensor::full(&[width, width], value),
                b: Tensor::full(&[width], value),
            })
            .collect(),
    )
}

fn upload(id: u64, w: ModelWeights, samples: usize) -> UpdateUpload {
    UpdateUpload {
        client_id: id,
        round: 0,
        weights: w,
        num_samples: samples,
        train_loss: 0.25,
        cost: Default::default(),
    }
}

/// Sends updates through the `delta-topk` sparse codec against `base`,
/// producing the sparse-realistic weights a bandwidth-capped client
/// actually uploads (most coordinates collapsed back to the base).
fn through_topk(w: &ModelWeights, base: &ModelWeights, id: u64) -> ModelWeights {
    let enc = encode_weights(CodecKind::DeltaTopK, id, w, Some((id, base)));
    decode_weights(&enc, Some(base)).expect("topk round-trip decodes")
}

/// Aggregates `uploads` at the given selection slots under `rule`.
fn aggregate(
    uploads: &[UpdateUpload],
    slots: &[usize],
    rule: Aggregator,
    reference: Option<&ModelWeights>,
) -> ModelWeights {
    let mut partial = PartialAggregate::new();
    for (u, &s) in uploads.iter().zip(slots) {
        partial.push(s, u.clone());
    }
    partial
        .finish_with(rule, reference)
        .expect("aggregation succeeds")
        .weights
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn robust_rules_are_slot_permutation_invariant(
        n in 3usize..8,
        rot in 1usize..8,
        layers in 1usize..3,
        width in 1usize..4,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        let base = weights(layers, width, seed ^ 0xBA5E);
        let uploads: Vec<UpdateUpload> = (0..n)
            .map(|i| {
                let w = weights(layers, width, seed.wrapping_add(i as u64));
                let w = if sparse { through_topk(&w, &base, i as u64) } else { w };
                upload(i as u64, w, 3 + i)
            })
            .collect();
        let straight: Vec<usize> = (0..n).collect();
        // A cyclic slot permutation: same updates, different canonical
        // ordering after the slot sort.
        let rotated: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        for rule in [Aggregator::TrimmedMean { trim: 1 }, Aggregator::Median] {
            let a = aggregate(&uploads, &straight, rule, None);
            let b = aggregate(&uploads, &rotated, rule, None);
            prop_assert_eq!(a, b, "{} moved under slot permutation", rule.name());
        }
    }

    #[test]
    fn trimming_survives_up_to_trim_outliers_per_side(
        honest in 3usize..7,
        trim in 1usize..3,
        value in -1.0f32..1.0,
        magnitude in 10.0f32..1e6,
        layers in 1usize..3,
        width in 1usize..4,
        low_side in any::<bool>(),
    ) {
        // `trim` outliers (all on one side) among `honest` identical
        // updates: the trimmed mean recovers the honest value exactly —
        // every surviving coordinate equals it — while plain FedAvg is
        // dragged toward the outliers.
        prop_assume!(2 * trim < honest + trim);
        let spike = if low_side { -magnitude } else { magnitude };
        let mut uploads: Vec<UpdateUpload> = (0..honest)
            .map(|i| upload(i as u64, constant(layers, width, value), 4))
            .collect();
        for j in 0..trim {
            uploads.push(upload(
                (honest + j) as u64,
                constant(layers, width, spike),
                4,
            ));
        }
        let slots: Vec<usize> = (0..uploads.len()).collect();
        let robust = aggregate(&uploads, &slots, Aggregator::TrimmedMean { trim }, None);
        // Every kept coordinate equals the honest value; the mean of k
        // identical f32s recovers it up to one rounding step.
        let slack = value.abs() * 1e-5 + 1e-6;
        for l in robust.iter() {
            for x in l.w.data().iter().chain(l.b.data()) {
                prop_assert!((x - value).abs() <= slack, "|{x} - {value}| > {slack}");
            }
        }
        let plain = aggregate(&uploads, &slots, Aggregator::FedAvg, None);
        let dragged = plain.layer(0).unwrap().w.data()[0];
        prop_assert!((dragged - value).abs() > 1.0, "fedavg survived {spike}: {dragged}");
    }

    #[test]
    fn median_survives_any_minority_of_outliers(
        honest in 3usize..7,
        outliers in 1usize..3,
        value in -1.0f32..1.0,
        magnitude in 10.0f32..1e6,
        layers in 1usize..3,
        width in 1usize..4,
        low_side in any::<bool>(),
    ) {
        prop_assume!(outliers + 1 < honest);
        let spike = if low_side { -magnitude } else { magnitude };
        let mut uploads: Vec<UpdateUpload> = (0..honest)
            .map(|i| upload(i as u64, constant(layers, width, value), 4))
            .collect();
        for j in 0..outliers {
            uploads.push(upload(
                (honest + j) as u64,
                constant(layers, width, spike),
                4,
            ));
        }
        let slots: Vec<usize> = (0..uploads.len()).collect();
        let robust = aggregate(&uploads, &slots, Aggregator::Median, None);
        for l in robust.iter() {
            for x in l.w.data().iter().chain(l.b.data()) {
                prop_assert_eq!(*x, value);
            }
        }
    }

    #[test]
    fn zero_trim_is_bit_identical_to_fedavg(
        n in 1usize..6,
        layers in 1usize..3,
        width in 1usize..4,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        let base = weights(layers, width, seed ^ 0xF00D);
        let uploads: Vec<UpdateUpload> = (0..n)
            .map(|i| {
                let w = weights(layers, width, seed.wrapping_add(i as u64));
                let w = if sparse { through_topk(&w, &base, i as u64) } else { w };
                upload(i as u64, w, 2 + i)
            })
            .collect();
        let slots: Vec<usize> = (0..n).collect();
        let plain = aggregate(&uploads, &slots, Aggregator::FedAvg, None);
        let trimmed = aggregate(&uploads, &slots, Aggregator::TrimmedMean { trim: 0 }, None);
        prop_assert_eq!(plain, trimmed);
    }

    #[test]
    fn generous_clipping_is_bit_identical_to_fedavg(
        n in 1usize..6,
        layers in 1usize..3,
        width in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Every delta from the reference is bounded (weights live in
        // [-1, 1]); a tau above any reachable norm clips nothing, and
        // the unclipped path hands the literal updates to the FedAvg
        // fold.
        let reference = weights(layers, width, seed ^ 0xCAFE);
        let uploads: Vec<UpdateUpload> = (0..n)
            .map(|i| upload(i as u64, weights(layers, width, seed.wrapping_add(i as u64)), 2 + i))
            .collect();
        let slots: Vec<usize> = (0..n).collect();
        let plain = aggregate(&uploads, &slots, Aggregator::FedAvg, None);
        let clipped = aggregate(
            &uploads,
            &slots,
            Aggregator::NormClip { tau: 1e6 },
            Some(&reference),
        );
        prop_assert_eq!(plain, clipped);
    }

    #[test]
    fn clipped_aggregate_stays_within_tau_of_the_reference(
        n in 1usize..5,
        tau in 0.1f32..2.0,
        magnitude in 2.0f32..100.0,
        layers in 1usize..3,
        width in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Each clipped delta has norm at most tau; FedAvg is a convex
        // combination, so the committed model's delta cannot exceed it
        // either (up to f32 rounding slack).
        let reference = weights(layers, width, seed ^ 0x7AB5);
        let uploads: Vec<UpdateUpload> = (0..n)
            .map(|i| {
                let mut w = reference.clone();
                w.add_scaled(&constant(layers, width, magnitude), 1.0).unwrap();
                upload(i as u64, w, 3)
            })
            .collect();
        let slots: Vec<usize> = (0..n).collect();
        let clipped = aggregate(
            &uploads,
            &slots,
            Aggregator::NormClip { tau },
            Some(&reference),
        );
        let mut sum = 0.0f64;
        for (a, b) in clipped.iter().zip(reference.iter()) {
            for (x, y) in a.w.data().iter().zip(b.w.data()) {
                sum += f64::from(x - y) * f64::from(x - y);
            }
            for (x, y) in a.b.data().iter().zip(b.b.data()) {
                sum += f64::from(x - y) * f64::from(x - y);
            }
        }
        let norm = sum.sqrt();
        prop_assert!(
            norm <= f64::from(tau) * 1.001 + 1e-4,
            "aggregate delta norm {norm} exceeds tau {tau}"
        );
    }

    #[test]
    fn sparse_and_dense_outlier_breakdown_agree(
        honest in 3usize..6,
        value in -0.5f32..0.5,
        layers in 1usize..3,
        width in 1usize..4,
    ) {
        // The breakdown property holds identically when the hostile
        // update arrives through the sparse codec: top-k keeps the
        // largest-magnitude deltas, which for a spiked update are the
        // spikes themselves.
        let base = constant(layers, width, value);
        let spike = constant(layers, width, 1e5);
        let sparse_spike = through_topk(&spike, &base, 99);
        let mut uploads: Vec<UpdateUpload> = (0..honest)
            .map(|i| upload(i as u64, base.clone(), 4))
            .collect();
        uploads.push(upload(honest as u64, sparse_spike, 4));
        let slots: Vec<usize> = (0..uploads.len()).collect();
        let robust = aggregate(&uploads, &slots, Aggregator::TrimmedMean { trim: 1 }, None);
        let slack = value.abs() * 1e-5 + 1e-6;
        for l in robust.iter() {
            for x in l.w.data().iter().chain(l.b.data()) {
                prop_assert!((x - value).abs() <= slack, "|{x} - {value}| > {slack}");
            }
        }
    }
    #[test]
    fn any_grouping_of_local_and_shipped_partials_folds_to_fedavg_bits(
        n in 1usize..9,
        groups in any::<u32>(),
        shipped in any::<u8>(),
        rot in 0usize..3,
        layers in 1usize..3,
        width in 1usize..4,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        // However the updates are grouped into partials, whichever of
        // those crossed the shard-control channel on the way (a partial
        // travels dense, whatever form its terms waited in), and in
        // whatever order they merge, the finish restores slot order and
        // runs the fold `fedavg` runs. (Terms still in wire form cannot be
        // built outside the crate; that half of the property is
        // `aggregate::tests::any_mix_of_wire_form_and_dense_terms_folds_to_fedavg_bits`.)
        let base = weights(layers, width, seed ^ 0x5EED);
        let uploads: Vec<UpdateUpload> = (0..n)
            .map(|i| {
                let w = weights(layers, width, seed.wrapping_add(i as u64));
                let w = if sparse { through_topk(&w, &base, i as u64) } else { w };
                upload(i as u64, w, 1 + 2 * i)
            })
            .collect();
        let want = fedavg(&uploads).expect("fedavg succeeds");
        let mut partials = [(); 3].map(|()| PartialAggregate::new());
        for (slot, u) in uploads.iter().enumerate() {
            partials[(groups >> (2 * slot)) as usize % 3].push(slot, u.clone());
        }
        let mut merged = PartialAggregate::new();
        for i in 0..3 {
            let g = (i + rot) % 3;
            let partial = std::mem::take(&mut partials[g]);
            merged.merge(if shipped >> g & 1 == 1 {
                decode(&encode(&partial)).expect("a partial round-trips")
            } else {
                partial
            });
        }
        prop_assert_eq!(merged.len(), n);
        let out = merged.finish().expect("aggregation succeeds");
        prop_assert_eq!(out.weights, want);
        prop_assert_eq!(out.total_samples, uploads.iter().map(|u| u.num_samples).sum::<usize>());
    }
}
