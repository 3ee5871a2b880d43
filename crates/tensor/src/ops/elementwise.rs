//! Elementwise tensor algebra through an explicit [`BackendKind`].
//!
//! These route the backends' elementwise kernels — the Hadamard product
//! `∗` of the backpropagation formulas `δ_l = (W_{l+1}·δ_{l+1}) ∗
//! f'_l(Z_l)`, scaling and `axpy` — over whole tensors, so the backend
//! parity tests can compare backends on them. Elementwise maps involve no
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

/// Hadamard (elementwise) product `a ∗ b` through an explicit backend.
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

/// Scales every element by `s` through an explicit backend.
pub fn scale_with(a: &Tensor, s: f32, backend: BackendKind) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    backend.kernels().scale(s, a.data(), out.data_mut());
    out
}

/// In-place `y ← y + alpha·x` (the BLAS `axpy` primitive; SGD's update rule
/// `W ← W − λ·dW` is `axpy(-λ, dW, W)`) through an explicit backend.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn axpy_with(alpha: f32, x: &Tensor, y: &mut Tensor, backend: BackendKind) -> Result<()> {
    check_same(x, y, "axpy")?;
    backend.kernels().axpy(alpha, x.data(), y.data_mut());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn hadamard_known() {
        let a = t(&[2.0, 3.0]);
        let b = t(&[4.0, -1.0]);
        let h = hadamard_with(&a, &b, BackendKind::Reference).unwrap();
        assert_eq!(h.data(), &[8.0, -3.0]);
    }

    #[test]
    fn axpy_is_sgd_step() {
        let dw = t(&[10.0, 20.0]);
        let mut w = t(&[1.0, 2.0]);
        axpy_with(-0.1, &dw, &mut w, BackendKind::Reference).unwrap();
        assert_eq!(w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn backend_variants_are_bit_identical() {
        // No reductions to reassociate: every backend must agree exactly.
        let a = t(&[1.5, -2.25, 0.0, 4.0]);
        let b = t(&[-0.5, 3.0, 7.0, 0.125]);
        for backend in BackendKind::ALL {
            assert_eq!(
                hadamard_with(&a, &b, backend).unwrap(),
                a.zip_with(&b, |x, y| x * y).unwrap()
            );
            assert_eq!(scale_with(&a, -1.5, backend), a.map(|x| x * -1.5));
            let mut y = b.clone();
            axpy_with(0.75, &a, &mut y, backend).unwrap();
            assert_eq!(y, b.zip_with(&a, |y, x| y + 0.75 * x).unwrap());
        }
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = t(&[1.0]);
        let b = t(&[1.0, 2.0]);
        assert!(hadamard_with(&a, &b, BackendKind::Reference).is_err());
        assert!(hadamard_with(&a, &b, BackendKind::Tiled).is_err());
        let mut y = t(&[0.0, 0.0]);
        assert!(axpy_with(1.0, &a, &mut y, BackendKind::Reference).is_err());
    }
}
