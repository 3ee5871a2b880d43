//! Elementwise tensor algebra.
//!
//! These kernels cover the paper's Table 2 operations: the ordinary sums
//! and the Hadamard product `∗` that appears in the backpropagation
//! formulas `δ_l = (W_{l+1}·δ_{l+1}) ∗ f'_l(Z_l)`.
//!
//! The backend-routed variants ([`hadamard_with`], [`axpy_with`],
//! [`scale_with`]) exist so layers dispatch *every* kernel in their hot
//! path through one [`BackendKind`]; elementwise maps involve no
//! reductions, so all backends produce bit-identical results here.

use crate::backend::BackendKind;
use crate::{Result, Tensor, TensorError};

fn check_same(a: &Tensor, b: &Tensor, op: &'static str) -> Result<()> {
    if !a.shape().same_as(b.shape()) {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(())
}

/// Elementwise sum `a + b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same(a, b, "add")?;
    a.zip_with(b, |x, y| x + y)
}

/// Elementwise difference `a − b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same(a, b, "sub")?;
    a.zip_with(b, |x, y| x - y)
}

/// Hadamard (elementwise) product `a ∗ b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same(a, b, "hadamard")?;
    a.zip_with(b, |x, y| x * y)
}

/// [`hadamard`] through an explicit backend.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn hadamard_with(a: &Tensor, b: &Tensor, backend: BackendKind) -> Result<Tensor> {
    check_same(a, b, "hadamard")?;
    let mut out = Tensor::zeros(a.dims());
    backend
        .kernels()
        .hadamard(a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// Scales every element by `s`, producing a new tensor.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// [`scale`] through an explicit backend.
pub fn scale_with(a: &Tensor, s: f32, backend: BackendKind) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    backend.kernels().scale(s, a.data(), out.data_mut());
    out
}

/// In-place `y ← y + alpha·x` (the BLAS `axpy` primitive; SGD's update rule
/// `W ← W − λ·dW` is `axpy(-λ, dW, W)`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<()> {
    axpy_with(alpha, x, y, BackendKind::Reference)
}

/// [`axpy`] through an explicit backend.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn axpy_with(alpha: f32, x: &Tensor, y: &mut Tensor, backend: BackendKind) -> Result<()> {
    check_same(x, y, "axpy")?;
    backend.kernels().axpy(alpha, x.data(), y.data_mut());
    Ok(())
}

/// Linear interpolation `(1−t)·a + t·b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn lerp(a: &Tensor, b: &Tensor, t: f32) -> Result<Tensor> {
    check_same(a, b, "lerp")?;
    a.zip_with(b, |x, y| (1.0 - t) * x + t * y)
}

/// Clamps every element into `[lo, hi]`.
pub fn clamp(a: &Tensor, lo: f32, hi: f32) -> Tensor {
    a.map(|x| x.clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[0.5, -1.0, 2.0]);
        let s = add(&a, &b).unwrap();
        assert_eq!(sub(&s, &b).unwrap().data(), a.data());
    }

    #[test]
    fn hadamard_known() {
        let a = t(&[2.0, 3.0]);
        let b = t(&[4.0, -1.0]);
        assert_eq!(hadamard(&a, &b).unwrap().data(), &[8.0, -3.0]);
    }

    #[test]
    fn scale_and_clamp() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(scale(&a, 3.0).data(), &[3.0, -6.0]);
        assert_eq!(clamp(&a, -1.0, 0.5).data(), &[0.5, -1.0]);
    }

    #[test]
    fn axpy_is_sgd_step() {
        let dw = t(&[10.0, 20.0]);
        let mut w = t(&[1.0, 2.0]);
        axpy(-0.1, &dw, &mut w).unwrap();
        assert_eq!(w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let a = t(&[0.0, 10.0]);
        let b = t(&[4.0, 20.0]);
        assert_eq!(lerp(&a, &b, 0.0).unwrap().data(), a.data());
        assert_eq!(lerp(&a, &b, 1.0).unwrap().data(), b.data());
        assert_eq!(lerp(&a, &b, 0.5).unwrap().data(), &[2.0, 15.0]);
    }

    #[test]
    fn backend_variants_are_bit_identical() {
        // No reductions to reassociate: every backend must agree exactly.
        let a = t(&[1.5, -2.25, 0.0, 4.0]);
        let b = t(&[-0.5, 3.0, 7.0, 0.125]);
        for backend in BackendKind::ALL {
            assert_eq!(
                hadamard_with(&a, &b, backend).unwrap().data(),
                hadamard(&a, &b).unwrap().data()
            );
            assert_eq!(scale_with(&a, -1.5, backend).data(), scale(&a, -1.5).data());
            let mut y = b.clone();
            axpy_with(0.75, &a, &mut y, backend).unwrap();
            let mut y_ref = b.clone();
            axpy(0.75, &a, &mut y_ref).unwrap();
            assert_eq!(y.data(), y_ref.data());
        }
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = t(&[1.0]);
        let b = t(&[1.0, 2.0]);
        assert!(add(&a, &b).is_err());
        assert!(sub(&a, &b).is_err());
        assert!(hadamard(&a, &b).is_err());
        assert!(hadamard_with(&a, &b, BackendKind::Tiled).is_err());
        assert!(lerp(&a, &b, 0.5).is_err());
        let mut y = t(&[0.0, 0.0]);
        assert!(axpy(1.0, &a, &mut y).is_err());
    }
}
