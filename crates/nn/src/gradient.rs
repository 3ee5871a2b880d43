//! Gradient snapshots and the *Flaw 1* weight-diff reconstruction.
//!
//! A [`GradientSnapshot`] is the per-layer `(dW_l, db_l)` bundle an FL
//! client produces each cycle — the exact object the paper's client-side
//! attacker tries to observe, and the payload uploaded to the FL server.

use gradsec_tensor::Tensor;

use crate::model::ModelWeights;
use crate::{NnError, Result};

/// Gradients of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradient {
    /// Index of the layer within its model (0-based; the paper's `l−1`).
    pub layer: usize,
    /// Weight gradient `dW_l`.
    pub dw: Tensor,
    /// Bias gradient `db_l`.
    pub db: Tensor,
}

impl LayerGradient {
    /// Total number of gradient scalars in this layer.
    pub fn len(&self) -> usize {
        self.dw.numel() + self.db.numel()
    }

    /// `true` when the layer holds no gradient scalars.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens `dW ‖ db` into one vector.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(self.dw.data());
        v.extend_from_slice(self.db.data());
        v
    }
}

/// Per-layer gradients for a whole model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradientSnapshot {
    layers: Vec<LayerGradient>,
}

impl GradientSnapshot {
    /// Builds a snapshot from per-layer gradients (must be in layer order).
    pub fn new(layers: Vec<LayerGradient>) -> Self {
        GradientSnapshot { layers }
    }

    /// Iterates over the per-layer gradients.
    pub fn iter(&self) -> impl Iterator<Item = &LayerGradient> {
        self.layers.iter()
    }

    /// Number of layers captured.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The gradients of layer `index`, if captured.
    pub fn layer(&self, index: usize) -> Option<&LayerGradient> {
        self.layers.iter().find(|g| g.layer == index)
    }

    /// Total number of gradient scalars across all layers.
    pub fn len(&self) -> usize {
        self.layers.iter().map(LayerGradient::len).sum()
    }

    /// `true` when no gradients are captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens all layers (in order) into a single feature vector — the
    /// row format of the attacker's `D_grad` dataset.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.len());
        for g in &self.layers {
            v.extend_from_slice(g.dw.data());
            v.extend_from_slice(g.db.data());
        }
        v
    }

    /// Scales every gradient by `s` in place (FedAvg weighting).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.layers {
            g.dw.map_in_place(|x| x * s);
            g.db.map_in_place(|x| x * s);
        }
    }

    /// Accumulates `other` into `self` (FedAvg summation).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::IncompatibleWeights`] when the snapshots cover
    /// different architectures.
    pub fn accumulate(&mut self, other: &GradientSnapshot) -> Result<()> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::IncompatibleWeights {
                reason: format!(
                    "snapshot layer counts differ: {} vs {}",
                    self.layers.len(),
                    other.layers.len()
                ),
            });
        }
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            if a.dw.dims() != b.dw.dims() || a.db.dims() != b.db.dims() {
                return Err(NnError::IncompatibleWeights {
                    reason: format!("layer {} gradient shapes differ", a.layer),
                });
            }
            for (x, &y) in a.dw.data_mut().iter_mut().zip(b.dw.data()) {
                *x += y;
            }
            for (x, &y) in a.db.data_mut().iter_mut().zip(b.db.data()) {
                *x += y;
            }
        }
        Ok(())
    }

    /// Euclidean distance between two snapshots over all scalars — the
    /// DRIA gradient-matching objective compares snapshots this way.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::IncompatibleWeights`] on architecture mismatch.
    pub fn distance(&self, other: &GradientSnapshot) -> Result<f32> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::IncompatibleWeights {
                reason: "snapshot layer counts differ".to_owned(),
            });
        }
        let mut acc = 0.0f32;
        for (a, b) in self.layers.iter().zip(&other.layers) {
            for (&x, &y) in a.dw.data().iter().zip(b.dw.data()) {
                acc += (x - y) * (x - y);
            }
            for (&x, &y) in a.db.data().iter().zip(b.db.data()) {
                acc += (x - y) * (x - y);
            }
        }
        Ok(acc.sqrt())
    }

    /// Reconstructs the gradients from two consecutive weight states and
    /// the learning rate — the paper's **Flaw 1**:
    /// `dW_l = (W^t_l − W^{t+1}_l)/λ` (equation 2).
    ///
    /// This is what a normal-world attacker computes when a layer's weights
    /// are *not* protected by the enclave; the `gradsec-core` leakage model
    /// calls it to decide what leaks under each protection policy.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::IncompatibleWeights`] when the two states differ
    /// in architecture, or [`NnError::BadConfig`] for a non-positive `λ`.
    pub fn from_weight_diff(
        before: &ModelWeights,
        after: &ModelWeights,
        lr: f32,
    ) -> Result<GradientSnapshot> {
        if lr <= 0.0 {
            return Err(NnError::BadConfig {
                reason: format!("learning rate must be positive, got {lr}"),
            });
        }
        if before.num_layers() != after.num_layers() {
            return Err(NnError::IncompatibleWeights {
                reason: "weight states have different layer counts".to_owned(),
            });
        }
        let mut layers = Vec::with_capacity(before.num_layers());
        for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            if b.w.dims() != a.w.dims() || b.b.dims() != a.b.dims() {
                return Err(NnError::IncompatibleWeights {
                    reason: format!("layer {i} weight shapes differ"),
                });
            }
            let dw = b.w.zip_with(&a.w, |wb, wa| (wb - wa) / lr)?;
            let db = b.b.zip_with(&a.b, |bb, ba| (bb - ba) / lr)?;
            layers.push(LayerGradient { layer: i, dw, db });
        }
        Ok(GradientSnapshot { layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LayerWeights, ModelWeights};

    fn snap(vals: &[f32]) -> GradientSnapshot {
        GradientSnapshot::new(vec![LayerGradient {
            layer: 0,
            dw: Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap(),
            db: Tensor::zeros(&[1]),
        }])
    }

    #[test]
    fn flatten_orders_dw_then_db() {
        let g = GradientSnapshot::new(vec![LayerGradient {
            layer: 0,
            dw: Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
            db: Tensor::from_vec(vec![3.0], &[1]).unwrap(),
        }]);
        assert_eq!(g.to_flat(), vec![1.0, 2.0, 3.0]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn scale_and_accumulate() {
        let mut a = snap(&[1.0, 2.0]);
        let b = snap(&[10.0, 20.0]);
        a.scale(0.5);
        a.accumulate(&b).unwrap();
        assert_eq!(a.layer(0).unwrap().dw.data(), &[10.5, 21.0]);
    }

    #[test]
    fn accumulate_rejects_mismatch() {
        let mut a = snap(&[1.0]);
        let b = snap(&[1.0, 2.0]);
        assert!(a.accumulate(&b).is_err());
        let c = GradientSnapshot::default();
        assert!(a.accumulate(&c).is_err());
    }

    #[test]
    fn distance_is_euclidean() {
        let a = snap(&[0.0, 0.0]);
        let b = snap(&[3.0, 4.0]);
        assert!((a.distance(&b).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn weight_diff_recovers_sgd_gradient() {
        // Simulate one SGD step and reconstruct the gradient via Flaw 1.
        let lr = 0.1f32;
        let w0 = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let b0 = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let dw = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        let db = Tensor::from_vec(vec![-1.0], &[1]).unwrap();
        let w1 = w0.zip_with(&dw, |w, g| w - lr * g).unwrap();
        let b1 = b0.zip_with(&db, |b, g| b - lr * g).unwrap();
        let before = ModelWeights::new(vec![LayerWeights { w: w0, b: b0 }]);
        let after = ModelWeights::new(vec![LayerWeights { w: w1, b: b1 }]);
        let leaked = GradientSnapshot::from_weight_diff(&before, &after, lr).unwrap();
        assert!(leaked.layer(0).unwrap().dw.approx_eq(&dw, 1e-5));
        assert!(leaked.layer(0).unwrap().db.approx_eq(&db, 1e-5));
    }

    #[test]
    fn weight_diff_validates_inputs() {
        let w = ModelWeights::new(vec![LayerWeights {
            w: Tensor::zeros(&[2]),
            b: Tensor::zeros(&[1]),
        }]);
        let other = ModelWeights::new(vec![]);
        assert!(GradientSnapshot::from_weight_diff(&w, &other, 0.1).is_err());
        assert!(GradientSnapshot::from_weight_diff(&w, &w, 0.0).is_err());
        assert!(GradientSnapshot::from_weight_diff(&w, &w, -1.0).is_err());
    }
}
