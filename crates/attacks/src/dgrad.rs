//! The attacker's gradient dataset `D_grad`.
//!
//! MIA and DPIA "rely on a dataset of leaked gradients (`D_grad`), built
//! by the attacker. To mimic the layer-level gradient confidentiality
//! offered by a TEE enclave, we simply delete from `D_grad` all the
//! gradient columns relative to a protected layer" (paper §8.1). For
//! dynamic protection, the missing columns vary per row (per FL cycle),
//! and "the incomplete columns of the train set are filled with the mean
//! strategy" (§8.2). This module implements that dataset exactly.

use gradsec_tensor::Tensor;

use crate::features::FeatureLayout;
use crate::{AttackError, Result};

/// A labelled gradient-feature dataset with per-row missingness.
///
/// Deleted cells are stored as `NaN`; [`GradientDataset::impute`]
/// materialises a dense matrix with the mean strategy.
#[derive(Debug, Clone)]
pub struct GradientDataset {
    layout: FeatureLayout,
    rows: Vec<Vec<f32>>,
    labels: Vec<bool>,
}

impl GradientDataset {
    /// Creates an empty dataset over a feature layout.
    pub fn new(layout: FeatureLayout) -> Self {
        GradientDataset {
            layout,
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The labels, row-aligned.
    pub(crate) fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Appends one observation with the enclave semantics applied: every
    /// feature column belonging to a layer in `protected_layers` is
    /// deleted (NaN) — unavailable "for an attacker located in the normal
    /// world".
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] when the feature width disagrees
    /// with the layout.
    pub fn push(
        &mut self,
        mut features: Vec<f32>,
        label: bool,
        protected_layers: &[usize],
    ) -> Result<()> {
        if features.len() != self.layout.width() {
            return Err(AttackError::BadConfig {
                reason: format!(
                    "feature width {} disagrees with layout width {}",
                    features.len(),
                    self.layout.width()
                ),
            });
        }
        for &layer in protected_layers {
            if let Some(span) = self.layout.span_of(layer) {
                for cell in &mut features[span.start..span.start + span.len] {
                    *cell = f32::NAN;
                }
            }
        }
        self.rows.push(features);
        self.labels.push(label);
        Ok(())
    }

    /// Fraction of deleted cells across the dataset.
    pub fn missing_fraction(&self) -> f32 {
        let total: usize = self.rows.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let missing: usize = self
            .rows
            .iter()
            .map(|r| r.iter().filter(|x| x.is_nan()).count())
            .sum();
        missing as f32 / total as f32
    }

    /// Column means ignoring missing cells (0 for all-missing columns).
    pub(crate) fn column_means(&self) -> Vec<f32> {
        let d = self.layout.width();
        let mut sums = vec![0.0f64; d];
        let mut counts = vec![0usize; d];
        for row in &self.rows {
            for (j, &v) in row.iter().enumerate() {
                if !v.is_nan() {
                    sums[j] += v as f64;
                    counts[j] += 1;
                }
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { (s / c as f64) as f32 })
            .collect()
    }

    /// Materialises the dense `(N, D)` feature matrix using the mean
    /// strategy for missing cells, with the means taken from `means`
    /// (train-set means are reused for validation/test imputation, as a
    /// real attacker would).
    pub(crate) fn impute_with(&self, means: &[f32]) -> Tensor {
        let d = self.layout.width();
        let mut out = Tensor::zeros(&[self.rows.len(), d]);
        for (i, row) in self.rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data_mut()[i * d + j] = if v.is_nan() {
                    means.get(j).copied().unwrap_or(0.0)
                } else {
                    v
                };
            }
        }
        out
    }

    /// Self-imputation: dense matrix using this dataset's own column
    /// means.
    pub fn impute(&self) -> Tensor {
        self.impute_with(&self.column_means())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::reduce_snapshot;
    use gradsec_nn::gradient::{GradientSnapshot, LayerGradient};

    fn layout_and_features() -> (FeatureLayout, Vec<f32>) {
        let snap = GradientSnapshot::new(vec![
            LayerGradient {
                layer: 0,
                dw: Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
                db: Tensor::zeros(&[1]),
            },
            LayerGradient {
                layer: 1,
                dw: Tensor::from_vec(vec![5.0], &[1]).unwrap(),
                db: Tensor::zeros(&[1]),
            },
        ]);
        let (f, l) = reduce_snapshot(&snap, 2);
        (l, f)
    }

    #[test]
    fn push_and_delete_columns() {
        let (layout, feats) = layout_and_features();
        let mut ds = GradientDataset::new(layout.clone());
        ds.push(feats.clone(), true, &[]).unwrap();
        ds.push(feats.clone(), false, &[0]).unwrap();
        assert_eq!(ds.labels(), &[true, false]);
        // Row 1 has layer-0 columns NaN.
        let span = layout.span_of(0).unwrap();
        assert!(ds.rows[1][span.start..span.start + span.len]
            .iter()
            .all(|x| x.is_nan()));
        assert!(ds.rows[0].iter().all(|x| !x.is_nan()));
        assert!(ds.missing_fraction() > 0.0);
    }

    #[test]
    fn impute_restores_column_means() {
        let (layout, feats) = layout_and_features();
        let mut ds = GradientDataset::new(layout.clone());
        ds.push(feats.clone(), true, &[]).unwrap();
        ds.push(feats.clone(), false, &[0]).unwrap();
        let dense = ds.impute();
        // Deleted cells were filled with the column mean, which equals the
        // only surviving value.
        let span = layout.span_of(0).unwrap();
        #[allow(clippy::needless_range_loop)]
        for j in span.start..span.start + span.len {
            assert_eq!(dense.get(&[1, j]).unwrap(), feats[j]);
        }
    }

    #[test]
    fn external_means_used_for_test_rows() {
        let (layout, feats) = layout_and_features();
        let mut ds = GradientDataset::new(layout.clone());
        ds.push(feats, true, &[0, 1]).unwrap(); // everything deleted
        let means = vec![7.0; layout.width()];
        let dense = ds.impute_with(&means);
        assert!(dense.data().iter().all(|&v| v == 7.0));
        // Self-imputation of the all-missing dataset yields zeros.
        let self_dense = ds.impute();
        assert!(self_dense.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn width_mismatch_rejected() {
        let (layout, _) = layout_and_features();
        let mut ds = GradientDataset::new(layout);
        assert!(ds.push(vec![1.0, 2.0], true, &[]).is_err());
    }

    #[test]
    fn protecting_unknown_layer_is_harmless() {
        let (layout, feats) = layout_and_features();
        let mut ds = GradientDataset::new(layout);
        ds.push(feats, true, &[99]).unwrap();
        assert_eq!(ds.missing_fraction(), 0.0);
    }
}
