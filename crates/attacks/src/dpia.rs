//! Data-Property Inference Attack (DPIA) — Melis et al. (paper reference
//! \[35\]).
//!
//! DPIA is the paper's *long-term* attack: across many FL cycles the
//! attacker differences consecutive global-model snapshots to obtain the
//! aggregated gradients, and trains a binary classifier (a random forest,
//! §8.2) to detect whether the victim's batches that cycle contained a
//! private property. The attacker's training rows come from gradients it
//! simulates on its own auxiliary data (`b_adv_prop`, `b_adv_nonprop`)
//! against snapshots of the evolving model (§3.2).
//!
//! Enclave semantics follow §8.1: a protected layer's columns are deleted
//! from `D_grad` *for the cycles it was protected in* — under dynamic
//! GradSec the missing columns move with the window — and the attacker
//! fills holes with the mean strategy (§8.2).

use gradsec_nn::gradient::GradientSnapshot;

use crate::classifier::{AttackModel, ForestConfig, RandomForest};
use crate::dgrad::GradientDataset;
use crate::features::reduce_snapshot;
use crate::metrics::auc;
use crate::{AttackError, Result};

/// One observed (or attacker-simulated) cycle: aggregated gradients, the
/// property ground truth and the layers that were enclave-protected that
/// cycle.
#[derive(Debug, Clone)]
pub struct DpiaObservation {
    /// Aggregated gradient snapshot for the cycle.
    pub snapshot: GradientSnapshot,
    /// Whether the victim's data that cycle contained the property.
    pub has_property: bool,
    /// Layers protected during the cycle (their columns are deleted).
    pub protected: Vec<usize>,
}

/// DPIA configuration.
#[derive(Debug, Clone, Copy)]
pub struct DpiaConfig {
    /// Raw gradient values sampled per layer in the feature reduction.
    pub raw_per_layer: usize,
    /// Normalise each row's per-layer feature block to unit L2 norm.
    ///
    /// Aggregated gradients shrink as FL training converges; the property
    /// signal lives in the gradient *direction*, so scale-invariant
    /// features generalise across the snapshots the attack spans (the
    /// long-term aspect of DPIA).
    pub normalize_per_layer: bool,
    /// Seed for the forest.
    pub seed: u64,
}

impl Default for DpiaConfig {
    fn default() -> Self {
        DpiaConfig {
            raw_per_layer: 16,
            normalize_per_layer: true,
            seed: 0,
        }
    }
}

/// Normalises each layer block of a feature row to unit L2 norm.
fn normalize_blocks(features: &mut [f32], layout: &crate::features::FeatureLayout) {
    for span in layout.spans() {
        let block = &mut features[span.start..span.start + span.len];
        let norm: f32 = block.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in block.iter_mut() {
                *x /= norm;
            }
        }
    }
}

/// Outcome of a DPIA run.
#[derive(Debug, Clone, Copy)]
pub struct DpiaOutcome {
    /// Attack AUC on the test cycles.
    pub auc: f32,
    /// Fraction of deleted cells in the attacker's training matrix.
    pub train_missing_fraction: f32,
}

/// Trains the DPIA attack model on `train` observations and evaluates it
/// on `test`.
///
/// # Errors
///
/// Returns [`AttackError::InsufficientData`] for empty inputs or
/// single-class label sets.
pub fn run_dpia(
    train: &[DpiaObservation],
    test: &[DpiaObservation],
    cfg: &DpiaConfig,
) -> Result<DpiaOutcome> {
    let first = train.first().ok_or_else(|| AttackError::InsufficientData {
        reason: "no training observations".to_owned(),
    })?;
    if test.is_empty() {
        return Err(AttackError::InsufficientData {
            reason: "no test observations".to_owned(),
        });
    }
    let (_, layout) = reduce_snapshot(&first.snapshot, cfg.raw_per_layer);
    let mut train_ds = GradientDataset::new(layout.clone());
    for obs in train {
        let (mut f, _) = reduce_snapshot(&obs.snapshot, cfg.raw_per_layer);
        if cfg.normalize_per_layer {
            normalize_blocks(&mut f, &layout);
        }
        train_ds.push(f, obs.has_property, &obs.protected)?;
    }
    let mut test_ds = GradientDataset::new(layout.clone());
    for obs in test {
        let (mut f, _) = reduce_snapshot(&obs.snapshot, cfg.raw_per_layer);
        if cfg.normalize_per_layer {
            normalize_blocks(&mut f, &layout);
        }
        test_ds.push(f, obs.has_property, &obs.protected)?;
    }
    let means = train_ds.column_means();
    let x_train = train_ds.impute_with(&means);
    let x_test = test_ds.impute_with(&means);
    let mut forest = RandomForest::new(ForestConfig::default(), cfg.seed);
    forest.fit(&x_train, train_ds.labels())?;
    let scores = forest.scores(&x_test);
    let a = auc(&scores, test_ds.labels())?;
    Ok(DpiaOutcome {
        auc: a,
        train_missing_fraction: train_ds.missing_fraction(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_nn::gradient::LayerGradient;
    use gradsec_tensor::{init, Tensor};

    /// Builds synthetic observations where the property shifts layer `hot`
    /// gradients by +bias.
    fn observations(
        n: usize,
        hot: usize,
        bias: f32,
        protected: Vec<usize>,
        seed: u64,
    ) -> Vec<DpiaObservation> {
        (0..n)
            .map(|i| {
                let has_property = i % 2 == 0;
                let layers = (0..3)
                    .map(|l| {
                        let mut dw = init::uniform(&[20], -1.0, 1.0, seed + (i * 3 + l) as u64);
                        if l == hot && has_property {
                            dw.map_in_place(|x| x + bias);
                        }
                        LayerGradient {
                            layer: l,
                            dw,
                            db: Tensor::zeros(&[2]),
                        }
                    })
                    .collect();
                DpiaObservation {
                    snapshot: GradientSnapshot::new(layers),
                    has_property,
                    protected: protected.clone(),
                }
            })
            .collect()
    }

    #[test]
    fn detects_property_in_unprotected_gradients() {
        let train = observations(60, 1, 0.8, vec![], 1);
        let test = observations(30, 1, 0.8, vec![], 1000);
        let out = run_dpia(&train, &test, &DpiaConfig::default()).unwrap();
        assert!(out.auc > 0.9, "auc {}", out.auc);
        assert_eq!(out.train_missing_fraction, 0.0);
    }

    #[test]
    fn protecting_the_hot_layer_degrades_the_attack() {
        let unprotected_test = observations(30, 1, 0.8, vec![], 1000);
        let train_protected = observations(60, 1, 0.8, vec![1], 1);
        let test_protected = observations(30, 1, 0.8, vec![1], 1000);
        let open = run_dpia(
            &observations(60, 1, 0.8, vec![], 1),
            &unprotected_test,
            &DpiaConfig::default(),
        )
        .unwrap();
        let shut = run_dpia(&train_protected, &test_protected, &DpiaConfig::default()).unwrap();
        assert!(
            shut.auc < open.auc,
            "protected auc {} should fall below open auc {}",
            shut.auc,
            open.auc
        );
        assert!(shut.train_missing_fraction > 0.0);
    }

    #[test]
    fn moving_protection_differs_from_static() {
        // Dynamic-style observations: protection alternates across cycles.
        let mut train = observations(60, 1, 0.8, vec![], 1);
        for (i, obs) in train.iter_mut().enumerate() {
            obs.protected = vec![i % 3];
        }
        let mut test = observations(30, 1, 0.8, vec![], 1000);
        for (i, obs) in test.iter_mut().enumerate() {
            obs.protected = vec![i % 3];
        }
        let out = run_dpia(&train, &test, &DpiaConfig::default()).unwrap();
        assert!(out.auc.is_finite());
        assert!(out.train_missing_fraction > 0.2);
    }

    #[test]
    fn empty_inputs_rejected() {
        let obs = observations(10, 0, 0.5, vec![], 5);
        assert!(run_dpia(&[], &obs, &DpiaConfig::default()).is_err());
        assert!(run_dpia(&obs, &[], &DpiaConfig::default()).is_err());
    }

    #[test]
    fn single_class_rejected() {
        let mut obs = observations(10, 0, 0.5, vec![], 5);
        for o in &mut obs {
            o.has_property = true;
        }
        let test = observations(10, 0, 0.5, vec![], 6);
        assert!(run_dpia(&obs, &test, &DpiaConfig::default()).is_err());
    }
}
