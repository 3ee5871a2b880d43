//! Synthetic LFW stand-in with a binary target property.
//!
//! The paper's DPIA experiment trains LeNet-5 on LFW and infers a private
//! attribute (e.g. gender) from aggregated gradients. The synthetic
//! analogue generates face-like images: an elliptical "head" on a
//! background, identity-conditioned feature geometry (eye spacing, mouth
//! curvature), and — crucially — a binary `property` that superimposes a
//! distinctive component (a top-of-head band, standing in for hair/
//! accessory cues). Batches containing the property therefore shift the
//! gradient statistics, which is precisely the leakage DPIA exploits.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gradsec_tensor::Tensor;

use crate::dataset::{Dataset, Sample};

/// Image edge (LFW crops resized to CIFAR scale, as the paper's LeNet-5
/// input geometry requires 32×32×3).
const HW: usize = 32;
const CHANNELS: usize = 3;

/// A synthetic face dataset with identities and a binary property.
#[derive(Debug, Clone)]
pub struct SyntheticLfw {
    len: usize,
    identities: usize,
    seed: u64,
    property_rate: f64,
    noise: f32,
}

impl SyntheticLfw {
    /// Creates a dataset of `len` samples over `identities` classes; the
    /// property appears on a sample with probability `property_rate`.
    pub fn new(len: usize, identities: usize, property_rate: f64, seed: u64) -> Self {
        SyntheticLfw {
            len,
            identities: identities.max(1),
            seed,
            property_rate: property_rate.clamp(0.0, 1.0),
            noise: 0.1,
        }
    }

    fn sample_rng(&self, index: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(index as u64),
        )
    }

    fn identity_params(&self, id: usize) -> IdentityParams {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xE703_7ED1_A0B4_28DB)
                .wrapping_add(id as u64),
        );
        IdentityParams {
            skin: rng.random_range(0.45..0.85),
            eye_dx: rng.random_range(4.0..7.0),
            eye_y: rng.random_range(11.0..14.0),
            mouth_curve: rng.random_range(-1.5..1.5),
            head_rx: rng.random_range(9.0..12.0),
            head_ry: rng.random_range(11.0..14.0),
        }
    }
}

struct IdentityParams {
    skin: f32,
    eye_dx: f32,
    eye_y: f32,
    mouth_curve: f32,
    head_rx: f32,
    head_ry: f32,
}

impl Dataset for SyntheticLfw {
    fn len(&self) -> usize {
        self.len
    }

    fn num_classes(&self) -> usize {
        self.identities
    }

    fn image_dims(&self) -> (usize, usize, usize) {
        (CHANNELS, HW, HW)
    }

    fn sample(&self, index: usize) -> Sample {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let mut rng = self.sample_rng(index);
        let label = rng.random_range(0..self.identities);
        let has_property = rng.random_bool(self.property_rate);
        let p = self.identity_params(label);
        let jx: f32 = rng.random_range(-1.0..1.0);
        let jy: f32 = rng.random_range(-1.0..1.0);
        let cx = 16.0 + jx;
        let cy = 17.0 + jy;
        let mut img = Tensor::zeros(&[CHANNELS, HW, HW]);
        for y in 0..HW {
            for x in 0..HW {
                let fx = x as f32;
                let fy = y as f32;
                // Head ellipse.
                let ex = (fx - cx) / p.head_rx;
                let ey = (fy - cy) / p.head_ry;
                let inside = ex * ex + ey * ey <= 1.0;
                let mut base = if inside { p.skin } else { 0.15 };
                if inside {
                    // Eyes: two dark dots.
                    for side in [-1.0f32, 1.0] {
                        let dx = fx - (cx + side * p.eye_dx);
                        let dy = fy - (cy - 17.0 + p.eye_y);
                        if dx * dx + dy * dy < 2.2 {
                            base = 0.05;
                        }
                    }
                    // Mouth: a curved dark band.
                    let my = cy + 6.0 + p.mouth_curve * ((fx - cx) / 6.0).powi(2);
                    if (fy - my).abs() < 0.9 && (fx - cx).abs() < 5.0 {
                        base = 0.1;
                    }
                }
                // The private property: a distinctive band across the top
                // of the head (the DPIA leakage source).
                if has_property {
                    let band_y = cy - p.head_ry;
                    if (fy - band_y).abs() < 2.5 && (fx - cx).abs() < p.head_rx {
                        base = 0.9;
                    }
                }
                let noise: f32 = {
                    let a: f32 = rng.random_range(-1.0..1.0);
                    let b: f32 = rng.random_range(-1.0..1.0);
                    0.5 * (a + b) * self.noise
                };
                for c in 0..CHANNELS {
                    // Slight channel tinting for colour realism.
                    let tint = 1.0 - 0.12 * c as f32;
                    let v = (base * tint + noise).clamp(0.0, 1.0);
                    img.data_mut()[c * HW * HW + y * HW + x] = v;
                }
            }
        }
        Sample {
            image: img,
            label,
            property: Some(has_property),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_labelled() {
        let ds = SyntheticLfw::new(100, 10, 0.5, 3);
        let a = ds.sample(5);
        let b = ds.sample(5);
        assert_eq!(a, b);
        assert!(a.label < 10);
        assert!(a.property.is_some());
    }

    #[test]
    fn property_rate_is_respected() {
        let ds = SyntheticLfw::new(2000, 10, 0.3, 7);
        let with: usize = (0..2000)
            .filter(|&i| ds.sample(i).property == Some(true))
            .count();
        let rate = with as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn extreme_rates() {
        let none = SyntheticLfw::new(50, 5, 0.0, 1);
        assert!((0..50).all(|i| none.sample(i).property == Some(false)));
        let all = SyntheticLfw::new(50, 5, 1.0, 1);
        assert!((0..50).all(|i| all.sample(i).property == Some(true)));
    }

    #[test]
    fn property_changes_pixels() {
        // Find a property/non-property pair of the same identity and check
        // the images differ substantially in the band region.
        let ds = SyntheticLfw::new(500, 4, 0.5, 11);
        let mut with = None;
        let mut without = None;
        for i in 0..500 {
            let s = ds.sample(i);
            if s.label == 0 {
                match s.property {
                    Some(true) if with.is_none() => with = Some(s),
                    Some(false) if without.is_none() => without = Some(s),
                    _ => {}
                }
            }
            if with.is_some() && without.is_some() {
                break;
            }
        }
        let (w, wo) = (with.unwrap(), without.unwrap());
        let d = w.image.distance(&wo.image).unwrap();
        assert!(d > 1.0, "property pair distance too small: {d}");
    }

    #[test]
    fn values_in_unit_interval() {
        let ds = SyntheticLfw::new(5, 3, 0.5, 13);
        for i in 0..5 {
            assert!(ds
                .sample(i)
                .image
                .data()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = SyntheticLfw::new(1, 1, 0.5, 1).sample(1);
    }
}
