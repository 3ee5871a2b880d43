//! A featherweight synthetic dataset for fleet-scale federation runs.
//!
//! The engine-scaling and shard-scaling benches simulate 10⁴+ clients per
//! round; at that scale the 3,072-dimensional CIFAR stand-in would spend
//! all its time (and the first layer's weights, which grow with the input
//! width) on pixels nobody looks at. [`SyntheticMicro`] keeps the same
//! contract — lazily generated, `sample(i)` a pure function of
//! `(seed, i)`, genuinely learnable class structure — at a configurable
//! handful of dimensions, so a 10,000-client round of `tiny_mlp` cycles
//! stays cheap. (An idle client holds no model at all: a fleet keeps one
//! replica per cycle in flight.)
//!
//! Samples are class centroids (seeded uniform draws in `[0, 1]`) plus
//! small per-sample noise; labels round-robin over the classes so every
//! shard of a near-equal split sees every class.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gradsec_tensor::Tensor;

use crate::dataset::{Dataset, Sample};

/// A tiny `dim`-dimensional vector dataset (shaped `(1, dim, 1)` to fit
/// the image contract) with `classes` linearly separable classes.
#[derive(Debug, Clone)]
pub struct SyntheticMicro {
    len: usize,
    classes: usize,
    dim: usize,
    seed: u64,
    noise: f32,
}

impl SyntheticMicro {
    /// Creates a dataset of `len` samples over `classes` classes in
    /// `dim` dimensions (both clamped to at least 1).
    pub fn new(len: usize, classes: usize, dim: usize, seed: u64) -> Self {
        SyntheticMicro {
            len,
            classes: classes.max(1),
            dim: dim.max(1),
            seed,
            noise: 0.05,
        }
    }

    /// Sets the per-feature noise amplitude.
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    /// The feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn centroid(&self, class: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xD1B5_4A32_D192_ED03)
                .wrapping_add(class as u64),
        )
    }
}

impl Dataset for SyntheticMicro {
    fn len(&self) -> usize {
        self.len
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn image_dims(&self) -> (usize, usize, usize) {
        (1, self.dim, 1)
    }

    fn sample(&self, index: usize) -> Sample {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let label = index % self.classes;
        let mut centroid_rng = self.centroid(label);
        let mut jitter_rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index as u64),
        );
        let mut image = Tensor::zeros(&[1, self.dim, 1]);
        for v in image.data_mut() {
            let base: f32 = centroid_rng.random_range(0.0..1.0);
            let jitter: f32 = jitter_rng.random_range(-1.0..1.0);
            *v = (base + self.noise * jitter).clamp(0.0, 1.0);
        }
        Sample {
            image,
            label,
            property: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let ds = SyntheticMicro::new(100, 4, 8, 7);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.num_classes(), 4);
        assert_eq!(ds.image_dims(), (1, 8, 1));
        let a = ds.sample(13);
        let b = ds.sample(13);
        assert_eq!(a, b, "sample(i) must be a pure function");
        assert!(a.image.data().iter().all(|v| (0.0..=1.0).contains(v)));
        assert_eq!(a.label, 13 % 4);
    }

    #[test]
    fn classes_are_separated() {
        // Same-class samples sit near their centroid; different classes
        // sit near different centroids.
        let ds = SyntheticMicro::new(64, 2, 16, 3);
        let dist = |x: &Tensor, y: &Tensor| -> f32 {
            x.data()
                .iter()
                .zip(y.data())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        let a0 = ds.sample(0).image;
        let a1 = ds.sample(2).image; // same class (even)
        let b0 = ds.sample(1).image; // other class (odd)
        assert!(dist(&a0, &a1) < dist(&a0, &b0));
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let ds = SyntheticMicro::new(4, 0, 0, 1);
        assert_eq!(ds.num_classes(), 1);
        assert_eq!(ds.dim(), 1);
        let s = ds.sample(3);
        assert_eq!(s.label, 0);
        assert_eq!(s.image.dims(), &[1, 1, 1]);
    }
}
