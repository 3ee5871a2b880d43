//! Fleet-scale membership inference from a colluding coalition.
//!
//! A coalition of colluding FL clients behaves honestly on the wire —
//! its uploads are indistinguishable from a loyal fleet's — but pools
//! what every member legitimately receives: the global model snapshot
//! of each round it participates in. This module turns that pooled
//! observation history into an attack-success number, the fleet-scale
//! counterpart of the per-round [`mia`](crate::mia) attack:
//!
//! 1. For each observed snapshot, the victim model is rewound to that
//!    round's global weights and per-sample gradient feature rows are
//!    extracted for the probe sets ([`crate::mia::gradient_rows`]).
//! 2. Rows from *all* observed rounds concatenate into one training
//!    corpus — the coalition's advantage over a lone attacker is
//!    exactly this longitudinal pooling.
//! 3. One attack classifier fits the pooled corpus and reports the
//!    held-out AUC ([`crate::mia::attack_auc_from_rows`]), alongside per-round
//!    AUCs for trend inspection.
//!
//! The module takes snapshots as plain `(round, ModelWeights)` pairs,
//! so any orchestration layer (the `gradsec-fl` collusion log, a file
//! of checkpoints, a paper-table sweep) can drive it without this crate
//! depending on the federation machinery.

use gradsec_data::Dataset;
use gradsec_nn::model::ModelWeights;
use gradsec_nn::Sequential;

use crate::features::FeatureLayout;
use crate::mia::{attack_auc_from_rows, gradient_rows, LabelledRow};
use crate::{AttackError, Result};

/// Tuning for the coalition attack (the defaults mirror the per-round
/// MIA evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetMiaConfig {
    /// Raw gradient coordinates kept per layer when reducing a
    /// per-sample gradient snapshot to a feature row.
    pub raw_per_layer: usize,
    /// Fraction of each class's rows that trains the attack model; the
    /// rest evaluates it.
    pub train_frac: f32,
    /// Seed for the attack classifier.
    pub seed: u64,
}

impl Default for FleetMiaConfig {
    fn default() -> Self {
        FleetMiaConfig {
            raw_per_layer: 4,
            train_frac: 0.5,
            seed: 17,
        }
    }
}

/// The coalition's attack outcome: the pooled AUC and the per-round
/// breakdown it was pooled from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMiaReport {
    /// Held-out AUC of one classifier over all observed rounds' rows.
    pub pooled_auc: f32,
    /// `(round, AUC)` for each observed snapshot individually.
    pub per_round: Vec<(u64, f32)>,
    /// Total feature rows in the pooled corpus.
    pub rows: usize,
}

/// Runs the coalition attack over an observation history.
///
/// `snapshots` are `(round, global weights)` pairs in any order (they
/// are processed as given; a collusion log yields them round-sorted).
/// `model` is the victim architecture; its weights are overwritten per
/// snapshot. `protected` names the layers whose gradient columns the
/// TEE withholds, exactly as in the per-round attack.
///
/// # Errors
///
/// Returns [`AttackError::InsufficientData`] for an empty observation
/// history or empty probe sets, and propagates model and classifier
/// failures.
pub fn coalition_attack_auc(
    model: &mut Sequential,
    snapshots: &[(u64, ModelWeights)],
    dataset: &dyn Dataset,
    members: &[usize],
    non_members: &[usize],
    protected: &[usize],
    config: &FleetMiaConfig,
) -> Result<FleetMiaReport> {
    if snapshots.is_empty() {
        return Err(AttackError::InsufficientData {
            reason: "coalition observed no global snapshots".to_owned(),
        });
    }
    let mut pooled: Vec<LabelledRow> = Vec::new();
    let mut layout: Option<FeatureLayout> = None;
    let mut per_round = Vec::with_capacity(snapshots.len());
    for (round, weights) in snapshots {
        model.set_weights(weights)?;
        let (l, rows) = gradient_rows(model, dataset, members, non_members, config.raw_per_layer)?;
        let auc =
            attack_auc_from_rows(&l, &rows, protected, config.train_frac, config.seed ^ round)?;
        per_round.push((*round, auc));
        pooled.extend(rows);
        layout.get_or_insert(l);
    }
    let layout = layout.expect("at least one snapshot processed");
    let pooled_auc =
        attack_auc_from_rows(&layout, &pooled, protected, config.train_frac, config.seed)?;
    Ok(FleetMiaReport {
        pooled_auc,
        per_round,
        rows: pooled.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_data::SyntheticMicro;
    use gradsec_nn::zoo;

    #[test]
    fn coalition_pools_rows_across_rounds() {
        let ds = SyntheticMicro::new(32, 2, 6, 3);
        let mut model = zoo::tiny_mlp(6, 8, 2, 7).unwrap();
        let snapshots: Vec<(u64, ModelWeights)> = vec![(0, model.weights()), (1, model.weights())];
        let members: Vec<usize> = (0..8).collect();
        let non_members: Vec<usize> = (16..24).collect();
        let report = coalition_attack_auc(
            &mut model,
            &snapshots,
            &ds,
            &members,
            &non_members,
            &[],
            &FleetMiaConfig::default(),
        )
        .unwrap();
        assert_eq!(report.per_round.len(), 2);
        assert_eq!(report.rows, 2 * 16);
        assert!((0.0..=1.0).contains(&report.pooled_auc));
        for (_, auc) in &report.per_round {
            assert!((0.0..=1.0).contains(auc));
        }
    }

    #[test]
    fn empty_history_is_rejected() {
        let ds = SyntheticMicro::new(8, 2, 6, 3);
        let mut model = zoo::tiny_mlp(6, 8, 2, 7).unwrap();
        let err = coalition_attack_auc(
            &mut model,
            &[],
            &ds,
            &[0],
            &[1],
            &[],
            &FleetMiaConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AttackError::InsufficientData { .. }));
    }
}
