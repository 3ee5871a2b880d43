//! Synthetic CIFAR-100 stand-in.
//!
//! Each of the 100 classes owns a deterministic visual signature built
//! from two frequency gratings, a Gaussian blob and a colour cast; each
//! sample perturbs its class signature with per-sample phase jitter and
//! pixel noise. The result is a dataset that (a) a CNN can genuinely
//! learn/overfit — required for MIA — and (b) has enough per-image
//! structure for DRIA's gradient-matching reconstruction to show visually
//! meaningful success/failure, mirroring the role CIFAR-100 plays in the
//! paper.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gradsec_tensor::Tensor;

use crate::dataset::{Dataset, Sample};

/// CIFAR-like image edge length.
const HW: usize = 32;
/// CIFAR-like channel count.
const CHANNELS: usize = 3;

/// A synthetic 100-class, 32×32×3 image dataset.
#[derive(Debug, Clone)]
pub struct SyntheticCifar100 {
    len: usize,
    classes: usize,
    seed: u64,
    noise: f32,
}

impl SyntheticCifar100 {
    /// Creates a dataset of `len` samples with the default 100 classes and
    /// moderate noise.
    pub fn new(len: usize, seed: u64) -> Self {
        SyntheticCifar100 {
            len,
            classes: 100,
            seed,
            noise: 0.15,
        }
    }

    /// Creates a dataset with a custom class count (tests use small ones).
    pub fn with_classes(len: usize, classes: usize, seed: u64) -> Self {
        SyntheticCifar100 {
            len,
            classes: classes.max(1),
            seed,
            noise: 0.15,
        }
    }

    /// Sets the per-pixel noise standard deviation.
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    fn sample_rng(&self, index: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index as u64),
        )
    }

    /// Deterministic per-class signature parameters.
    fn class_params(&self, class: usize) -> ClassParams {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xD1B5_4A32_D192_ED03)
                .wrapping_add(class as u64),
        );
        ClassParams {
            fx: rng.random_range(1..5) as f32,
            fy: rng.random_range(1..5) as f32,
            blob_x: rng.random_range(6.0..26.0),
            blob_y: rng.random_range(6.0..26.0),
            blob_sigma: rng.random_range(3.0..7.0),
            color: [
                rng.random_range(0.2..0.8),
                rng.random_range(0.2..0.8),
                rng.random_range(0.2..0.8),
            ],
            grating_weight: rng.random_range(0.25..0.45),
        }
    }
}

struct ClassParams {
    fx: f32,
    fy: f32,
    blob_x: f32,
    blob_y: f32,
    blob_sigma: f32,
    color: [f32; 3],
    grating_weight: f32,
}

impl Dataset for SyntheticCifar100 {
    fn len(&self) -> usize {
        self.len
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn image_dims(&self) -> (usize, usize, usize) {
        (CHANNELS, HW, HW)
    }

    fn sample(&self, index: usize) -> Sample {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let mut rng = self.sample_rng(index);
        let label = rng.random_range(0..self.classes);
        let p = self.class_params(label);
        // Per-sample jitter: phase shift and blob offset.
        let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        let dx: f32 = rng.random_range(-2.0..2.0);
        let dy: f32 = rng.random_range(-2.0..2.0);
        let mut img = Tensor::zeros(&[CHANNELS, HW, HW]);
        let tau = std::f32::consts::TAU;
        // Neither grating factor nor the blob depends on the channel:
        // each is evaluated once, with the per-pixel loop's expression.
        let grating_x: [f32; HW] =
            std::array::from_fn(|x| ((p.fx * x as f32 / HW as f32) * tau + phase).sin());
        let grating_y: [f32; HW] =
            std::array::from_fn(|y| ((p.fy * y as f32 / HW as f32) * tau + phase).cos());
        let mut blob = [0.0f32; HW * HW];
        for y in 0..HW {
            for x in 0..HW {
                let bx = x as f32 - (p.blob_x + dx);
                let by = y as f32 - (p.blob_y + dy);
                blob[y * HW + x] =
                    (-(bx * bx + by * by) / (2.0 * p.blob_sigma * p.blob_sigma)).exp();
            }
        }
        for c in 0..CHANNELS {
            for y in 0..HW {
                for x in 0..HW {
                    let grating = grating_x[x] * grating_y[y];
                    let base = p.color[c]
                        + p.grating_weight * grating
                        + 0.35 * blob[y * HW + x] * (1.0 - 0.3 * c as f32);
                    let noise: f32 = {
                        // Cheap Gaussian-ish noise: mean of 2 uniforms.
                        let a: f32 = rng.random_range(-1.0..1.0);
                        let b: f32 = rng.random_range(-1.0..1.0);
                        0.5 * (a + b) * self.noise
                    };
                    let v = (base + noise).clamp(0.0, 1.0);
                    img.data_mut()[c * HW * HW + y * HW + x] = v;
                }
            }
        }
        Sample {
            image: img,
            label,
            property: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_index() {
        let ds = SyntheticCifar100::new(50, 9);
        let a = ds.sample(13);
        let b = ds.sample(13);
        assert_eq!(a, b);
        let c = ds.sample(14);
        assert_ne!(a.image, c.image);
    }

    #[test]
    fn seeds_change_content() {
        let a = SyntheticCifar100::new(10, 1).sample(0);
        let b = SyntheticCifar100::new(10, 2).sample(0);
        assert_ne!(a.image, b.image);
    }

    #[test]
    fn values_in_unit_interval() {
        let ds = SyntheticCifar100::new(5, 3);
        for i in 0..5 {
            let s = ds.sample(i);
            assert!(s.image.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn labels_cover_classes() {
        let ds = SyntheticCifar100::with_classes(400, 4, 7);
        let mut seen = [false; 4];
        for i in 0..400 {
            seen[ds.sample(i).label] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 classes should appear");
    }

    #[test]
    fn same_class_images_correlate_more_than_cross_class() {
        // The class signature must dominate the noise for learning to work.
        let ds = SyntheticCifar100::with_classes(500, 3, 11);
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for i in 0..500 {
            let s = ds.sample(i);
            if by_class[s.label].len() < 2 {
                by_class[s.label].push(i);
            }
        }
        let dist = |i: usize, j: usize| -> f32 {
            ds.sample(i).image.distance(&ds.sample(j).image).unwrap()
        };
        let within = dist(by_class[0][0], by_class[0][1]);
        let across = dist(by_class[0][0], by_class[1][0]);
        assert!(
            within < across,
            "within-class distance {within} should be below cross-class {across}"
        );
    }

    /// The pixel loop `sample` shipped with — every term evaluated per
    /// channel — kept as the oracle for the hoisted tables.
    fn sample_per_channel(ds: &SyntheticCifar100, index: usize) -> Sample {
        let mut rng = ds.sample_rng(index);
        let label = rng.random_range(0..ds.classes);
        let p = ds.class_params(label);
        let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        let dx: f32 = rng.random_range(-2.0..2.0);
        let dy: f32 = rng.random_range(-2.0..2.0);
        let mut img = Tensor::zeros(&[CHANNELS, HW, HW]);
        let tau = std::f32::consts::TAU;
        for c in 0..CHANNELS {
            for y in 0..HW {
                for x in 0..HW {
                    let grating = ((p.fx * x as f32 / HW as f32) * tau + phase).sin()
                        * ((p.fy * y as f32 / HW as f32) * tau + phase).cos();
                    let bx = x as f32 - (p.blob_x + dx);
                    let by = y as f32 - (p.blob_y + dy);
                    let blob = (-(bx * bx + by * by) / (2.0 * p.blob_sigma * p.blob_sigma)).exp();
                    let base = p.color[c]
                        + p.grating_weight * grating
                        + 0.35 * blob * (1.0 - 0.3 * c as f32);
                    let noise: f32 = {
                        let a: f32 = rng.random_range(-1.0..1.0);
                        let b: f32 = rng.random_range(-1.0..1.0);
                        0.5 * (a + b) * ds.noise
                    };
                    let v = (base + noise).clamp(0.0, 1.0);
                    img.data_mut()[c * HW * HW + y * HW + x] = v;
                }
            }
        }
        Sample {
            image: img,
            label,
            property: None,
        }
    }

    #[test]
    fn hoisted_tables_reproduce_the_per_channel_loop_bit_for_bit() {
        for seed in [0, 1, 9, 0xDEAD_BEEF] {
            for classes in [1, 3, 10, 100] {
                let ds = SyntheticCifar100::with_classes(40, classes, seed).with_noise(0.2);
                for index in [0, 1, 17, 39] {
                    let (got, want) = (ds.sample(index), sample_per_channel(&ds, index));
                    assert_eq!(got.label, want.label);
                    let bits = |s: &Sample| -> Vec<u32> {
                        s.image.data().iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "seed {seed} index {index}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let ds = SyntheticCifar100::new(3, 1);
        let _ = ds.sample(3);
    }

    #[test]
    fn property_absent() {
        let ds = SyntheticCifar100::new(3, 1);
        assert_eq!(ds.sample(0).property, None);
    }
}
