//! Seeded weight initialisers.
//!
//! All initialisers take an explicit RNG so that every experiment in the
//! reproduction is bit-for-bit repeatable from a `u64` seed.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::Tensor;

/// Returns a tensor with elements drawn i.i.d. from `U(lo, hi)`.
///
/// # Example
///
/// ```
/// use gradsec_tensor::init;
///
/// let t = init::uniform(&[4, 4], -0.5, 0.5, 42);
/// assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
/// ```
pub fn uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = rng.random_range(lo..hi);
    }
    t
}

/// Returns a tensor with elements drawn i.i.d. from `N(mean, std²)`,
/// using the Box–Muller transform (no external distribution crates).
pub(crate) fn normal(dims: &[usize], mean: f32, std: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tensor::zeros(dims);
    fill_normal(t.data_mut(), mean, std, &mut rng);
    t
}

/// Fills `buf` with `N(mean, std²)` samples from an existing RNG.
pub(crate) fn fill_normal<R: Rng>(buf: &mut [f32], mean: f32, std: f32, rng: &mut R) {
    let mut i = 0;
    while i < buf.len() {
        let (z0, z1) = box_muller(rng);
        buf[i] = mean + std * z0;
        i += 1;
        if i < buf.len() {
            buf[i] = mean + std * z1;
            i += 1;
        }
    }
}

/// One Box–Muller draw: two independent standard normal samples.
fn box_muller<R: Rng>(rng: &mut R) -> (f32, f32) {
    // Avoid u1 == 0 so ln() stays finite.
    let u1: f32 = loop {
        let u: f32 = rng.random();
        if u > f32::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f32 = rng.random();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Xavier/Glorot uniform initialisation: `U(±sqrt(6/(fan_in+fan_out)))`.
///
/// Used for the dense layers of LeNet-5 and AlexNet.
pub fn xavier_uniform(dims: &[usize], fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(dims, -limit, limit, seed)
}

/// He (Kaiming) normal initialisation: `N(0, 2/fan_in)`.
///
/// Used for the convolutional layers (ReLU activations).
pub fn he_normal(dims: &[usize], fan_in: usize, seed: u64) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(dims, 0.0, std, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform(&[1000], -1.0, 1.0, 7);
        assert!(t.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = normal(&[64], 0.0, 1.0, 123);
        let b = normal(&[64], 0.0, 1.0, 123);
        let c = normal(&[64], 0.0, 1.0, 124);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let t = normal(&[20000], 2.0, 3.0, 99);
        let n = t.numel() as f32;
        let mean: f32 = t.data().iter().sum::<f32>() / n;
        let var: f32 = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / n;
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 9.0).abs() < 0.5, "var was {var}");
    }

    #[test]
    fn xavier_limit_shrinks_with_fan() {
        let small_fan = xavier_uniform(&[100], 2, 2, 1);
        let large_fan = xavier_uniform(&[100], 2000, 2000, 1);
        let max_small = small_fan.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let max_large = large_fan.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(max_small > max_large);
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let t = he_normal(&[10000], 50, 5);
        let n = t.numel() as f32;
        let var: f32 = t.data().iter().map(|x| x * x).sum::<f32>() / n;
        assert!((var - 2.0 / 50.0).abs() < 0.01, "var was {var}");
    }
}
