//! Gradient → feature-vector reduction.
//!
//! Raw LeNet-5 gradients are ~80 K scalars per observation; attack models
//! train on a reduced representation instead: per layer, a block of
//! summary statistics plus a strided sample of raw gradient values. The
//! per-layer blocks stay contiguous so the enclave semantics ("delete the
//! columns of a protected layer") map to exact column ranges.

use gradsec_nn::gradient::GradientSnapshot;

/// Number of summary statistics per layer: L2 norm, mean, standard
/// deviation, absolute maximum, absolute mean.
pub(crate) const SUMMARY_STATS: usize = 5;

/// One layer's contiguous column range in the feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSpan {
    /// Model layer index.
    pub(crate) layer: usize,
    /// First column of the block.
    pub(crate) start: usize,
    /// Block width.
    pub len: usize,
}

/// Column layout of reduced gradient features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureLayout {
    spans: Vec<LayerSpan>,
    width: usize,
}

impl FeatureLayout {
    /// Total feature-vector width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Per-layer spans, in layer order.
    pub(crate) fn spans(&self) -> &[LayerSpan] {
        &self.spans
    }

    /// The span of a given model layer, if present.
    pub fn span_of(&self, layer: usize) -> Option<LayerSpan> {
        self.spans.iter().copied().find(|s| s.layer == layer)
    }
}

/// Reduces a gradient snapshot to features; returns the layout alongside.
///
/// `raw_per_layer` controls how many strided raw gradient values accompany
/// the `SUMMARY_STATS` per layer (layers with fewer scalars contribute
/// what they have).
pub fn reduce_snapshot(
    snapshot: &GradientSnapshot,
    raw_per_layer: usize,
) -> (Vec<f32>, FeatureLayout) {
    let mut features = Vec::new();
    let mut spans = Vec::new();
    for g in snapshot.iter() {
        let start = features.len();
        let flat = g.to_flat();
        let n = flat.len().max(1) as f32;
        let l2 = flat.iter().map(|x| x * x).sum::<f32>().sqrt();
        let mean = flat.iter().sum::<f32>() / n;
        let var = flat.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let absmax = flat.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let absmean = flat.iter().map(|x| x.abs()).sum::<f32>() / n;
        let stats: [f32; SUMMARY_STATS] = [l2, mean, var.sqrt(), absmax, absmean];
        features.extend_from_slice(&stats);
        if raw_per_layer > 0 && !flat.is_empty() {
            let take = raw_per_layer.min(flat.len());
            let stride = (flat.len() / take).max(1);
            features.extend(flat.iter().step_by(stride).take(take).copied());
        }
        spans.push(LayerSpan {
            layer: g.layer,
            start,
            len: features.len() - start,
        });
    }
    let width = features.len();
    (features, FeatureLayout { spans, width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_nn::gradient::LayerGradient;
    use gradsec_tensor::Tensor;

    fn snapshot() -> GradientSnapshot {
        GradientSnapshot::new(vec![
            LayerGradient {
                layer: 0,
                dw: Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap(),
                db: Tensor::from_vec(vec![0.0], &[1]).unwrap(),
            },
            LayerGradient {
                layer: 1,
                dw: Tensor::from_vec((0..100).map(|i| i as f32).collect(), &[100]).unwrap(),
                db: Tensor::zeros(&[10]),
            },
        ])
    }

    #[test]
    fn layout_covers_feature_vector_exactly() {
        let (f, layout) = reduce_snapshot(&snapshot(), 8);
        assert_eq!(layout.width(), f.len());
        let mut cursor = 0;
        for s in layout.spans() {
            assert_eq!(s.start, cursor, "spans must be contiguous");
            cursor += s.len;
        }
        assert_eq!(cursor, f.len());
    }

    #[test]
    fn summary_stats_are_correct() {
        let (f, layout) = reduce_snapshot(&snapshot(), 0);
        let s0 = layout.span_of(0).unwrap();
        assert_eq!(s0.len, SUMMARY_STATS);
        // Layer 0 flat = [3, -4, 0]: l2 = 5, mean = -1/3, absmax = 4.
        assert!((f[s0.start] - 5.0).abs() < 1e-5);
        assert!((f[s0.start + 1] + 1.0 / 3.0).abs() < 1e-5);
        assert!((f[s0.start + 3] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn raw_values_are_strided() {
        let (_, layout) = reduce_snapshot(&snapshot(), 10);
        let s1 = layout.span_of(1).unwrap();
        assert_eq!(s1.len, SUMMARY_STATS + 10);
        // Small layers contribute what they have.
        let s0 = layout.span_of(0).unwrap();
        assert_eq!(s0.len, SUMMARY_STATS + 3);
    }

    #[test]
    fn missing_layer_span_is_none() {
        let (_, layout) = reduce_snapshot(&snapshot(), 0);
        assert!(layout.span_of(7).is_none());
    }

    #[test]
    fn deterministic() {
        let (a, la) = reduce_snapshot(&snapshot(), 4);
        let (b, lb) = reduce_snapshot(&snapshot(), 4);
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }
}
