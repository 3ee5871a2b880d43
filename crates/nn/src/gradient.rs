//! Gradient snapshots.
//!
//! A [`GradientSnapshot`] is the per-layer `(dW_l, db_l)` bundle an FL
//! client produces each cycle — the exact object the paper's client-side
//! attacker tries to observe, and the payload uploaded to the FL server.

use gradsec_tensor::Tensor;

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

    /// The gradients of layer `index`, if captured.
    pub fn layer(&self, index: usize) -> Option<&LayerGradient> {
        self.layers.iter().find(|g| g.layer == index)
    }

    /// Total number of gradient scalars across all layers.
    pub(crate) fn len(&self) -> usize {
        self.layers.iter().map(LayerGradient::len).sum()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_orders_dw_then_db() {
        let g = GradientSnapshot::new(vec![LayerGradient {
            layer: 0,
            dw: Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
            db: Tensor::from_vec(vec![3.0], &[1]).unwrap(),
        }]);
        assert_eq!(g.to_flat(), vec![1.0, 2.0, 3.0]);
        assert_eq!(g.len(), 3);
    }
}
