//! Matrix products.
//!
//! The forward/backward passes of dense layers and the im2col formulation of
//! convolutions reduce everything to three product forms:
//!
//! * `C = A·B` — [`matmul`],
//! * `C = A·Bᵀ` — [`matmul_nt`] (used for `dW = δ·Aᵀ` style products),
//! * `C = Aᵀ·B` — [`matmul_tn`] (used for `δ_in = Wᵀ·δ_out`).
//!
//! These functions are thin *dispatchers*: they validate shapes, allocate
//! the output and hand the innermost loops to a
//! [`TensorBackend`](crate::backend::TensorBackend) — the default
//! [`BackendKind::Reference`] kernels for the plain entry points, or any
//! backend via the `*_with` variants. [`matmul`] additionally splits row
//! bands across the threads of the caller's budget
//! ([`threads::for_each_band`]) when the output is large enough to
//! amortize a spawn; each band is an independent kernel call over
//! disjoint output rows, so the result is bit-identical under any banding
//! — and therefore under any budget — whatever the backend. AlexNet's
//! 4096×4096 dense layers are intractable per-cycle without this.

use super::threads;
use crate::backend::{BackendKind, FusedActivation, TensorBackend};
use crate::{Result, Tensor, TensorError};

/// Outputs smaller than this (in elements) are computed single-threaded.
const PARALLEL_THRESHOLD: usize = 64 * 64;

fn check2d(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.shape().ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.shape().ndim(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Computes `C = A·B` for rank-2 tensors on the default
/// ([`BackendKind::Reference`]) backend.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::ShapeMismatch`] when inner dimensions differ.
///
/// # Example
///
/// ```
/// use gradsec_tensor::{Tensor, ops::matmul::matmul};
///
/// # fn main() -> Result<(), gradsec_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(a, b, BackendKind::Reference)
}

/// [`matmul`] through an explicit backend.
///
/// # Errors
///
/// Same contract as [`matmul`].
pub fn matmul_with(a: &Tensor, b: &Tensor, backend: BackendKind) -> Result<Tensor> {
    let (m, ka) = check2d(a, "matmul")?;
    let (kb, n) = check2d(b, "matmul")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let kernels = backend.kernels();
    let mut out = Tensor::zeros(&[m, n]);
    if m * n >= PARALLEL_THRESHOLD && m >= 4 {
        matmul_parallel(kernels, a.data(), b.data(), out.data_mut(), m, ka, n);
    } else {
        kernels.matmul(a.data(), b.data(), out.data_mut(), m, ka, n);
    }
    Ok(out)
}

/// Computes `C = A·Bᵀ` on the default backend.
///
/// # Errors
///
/// Same contract as [`matmul`]; the shared dimension is `A`'s columns and
/// `B`'s columns.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_nt_with(a, b, BackendKind::Reference)
}

/// [`matmul_nt`] through an explicit backend.
///
/// # Errors
///
/// Same contract as [`matmul_nt`].
pub fn matmul_nt_with(a: &Tensor, b: &Tensor, backend: BackendKind) -> Result<Tensor> {
    let (m, ka) = check2d(a, "matmul_nt")?;
    let (n, kb) = check2d(b, "matmul_nt")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    backend
        .kernels()
        .matmul_nt(a.data(), b.data(), out.data_mut(), m, ka, n);
    Ok(out)
}

/// Fused dense-layer forward pass through an explicit backend: returns
/// `(Z, A)` where `Z = input·Wᵀ + b` (one bias row broadcast over the
/// batch) and `A = act(Z)`.
///
/// Backends without a fused kernel run the trait default — `matmul_nt`,
/// then a bias sweep, then the activation — which reproduces the
/// historical dense `forward` op order bit-for-bit; the `Tiled` backend
/// seeds the bias and applies the activation inside its GEMM writeback.
///
/// # Errors
///
/// Same contract as [`matmul_nt`], plus a shape error when `bias` is not
/// a length-`n` vector.
pub fn dense_forward_fused_with(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    act: FusedActivation,
    backend: BackendKind,
) -> Result<(Tensor, Tensor)> {
    let (m, ka) = check2d(input, "dense_forward")?;
    let (n, kb) = check2d(weights, "dense_forward")?;
    if ka != kb || bias.dims() != [n] {
        return Err(TensorError::ShapeMismatch {
            op: "dense_forward",
            lhs: input.dims().to_vec(),
            rhs: weights.dims().to_vec(),
        });
    }
    let mut z = Tensor::zeros(&[m, n]);
    let mut a = Tensor::zeros(&[m, n]);
    backend.kernels().dense_forward_fused(
        input.data(),
        weights.data(),
        bias.data(),
        z.data_mut(),
        a.data_mut(),
        act,
        m,
        ka,
        n,
    );
    Ok((z, a))
}

/// Computes `C = Aᵀ·B` on the default backend.
///
/// # Errors
///
/// Same contract as [`matmul`]; the shared dimension is the *rows* of both
/// operands.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_tn_with(a, b, BackendKind::Reference)
}

/// [`matmul_tn`] through an explicit backend.
///
/// # Errors
///
/// Same contract as [`matmul_tn`].
pub fn matmul_tn_with(a: &Tensor, b: &Tensor, backend: BackendKind) -> Result<Tensor> {
    let (ka, m) = check2d(a, "matmul_tn")?;
    let (kb, n) = check2d(b, "matmul_tn")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    backend
        .kernels()
        .matmul_tn(a.data(), b.data(), out.data_mut(), m, ka, n);
    Ok(out)
}

/// Computes the matrix–vector product `y = A·x` on the default backend.
///
/// # Errors
///
/// Returns shape errors when `A` is not `m×k` with `x` of length `k`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    matvec_with(a, x, BackendKind::Reference)
}

/// [`matvec`] through an explicit backend.
///
/// # Errors
///
/// Same contract as [`matvec`].
pub fn matvec_with(a: &Tensor, x: &Tensor, backend: BackendKind) -> Result<Tensor> {
    let (m, k) = check2d(a, "matvec")?;
    if x.shape().ndim() != 1 || x.dims()[0] != k {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: a.dims().to_vec(),
            rhs: x.dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m]);
    backend
        .kernels()
        .matvec(a.data(), x.data(), out.data_mut(), m, k);
    Ok(out)
}

/// Splits the rows of `C` into one band per thread of the caller's
/// [`threads::budget`] and computes each through the same backend kernel
/// (a budget of 1 is one kernel call on the calling thread).
fn matmul_parallel(
    kernels: &dyn TensorBackend,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let rows_per = m.div_ceil(threads::budget().min(m));
    let jobs = c.chunks_mut(rows_per * n).enumerate().collect();
    threads::for_each_band(jobs, |(band, cband): (usize, &mut [f32])| {
        let rows = cband.len() / n;
        let asub = &a[band * rows_per * k..][..rows * k];
        kernels.matmul(asub, b, cband, rows, k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                c.data_mut()[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = init::uniform(&[5, 5], -1.0, 1.0, 3);
        let c = matmul(&a, &Tensor::eye(5)).unwrap();
        assert!(c.approx_eq(&a, 1e-6));
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let a = init::uniform(&[37, 21], -1.0, 1.0, 1);
        let b = init::uniform(&[21, 53], -1.0, 1.0, 2);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&naive(&a, &b), 1e-3));
    }

    #[test]
    fn parallel_path_matches_naive() {
        // 128x128 crosses PARALLEL_THRESHOLD.
        let a = init::uniform(&[128, 96], -1.0, 1.0, 10);
        let b = init::uniform(&[96, 128], -1.0, 1.0, 11);
        for backend in BackendKind::ALL {
            let c = matmul_with(&a, &b, backend).unwrap();
            assert!(c.approx_eq(&naive(&a, &b), 1e-2), "{backend} diverged");
        }
    }

    #[test]
    fn nt_variant_equals_explicit_transpose() {
        let a = init::uniform(&[9, 14], -1.0, 1.0, 20);
        let b = init::uniform(&[7, 14], -1.0, 1.0, 21);
        for backend in BackendKind::ALL {
            let direct = matmul_nt_with(&a, &b, backend).unwrap();
            let explicit = matmul_with(&a, &b.transpose2d().unwrap(), backend).unwrap();
            assert!(direct.approx_eq(&explicit, 1e-4), "{backend} diverged");
        }
    }

    #[test]
    fn tn_variant_equals_explicit_transpose() {
        let a = init::uniform(&[14, 9], -1.0, 1.0, 22);
        let b = init::uniform(&[14, 7], -1.0, 1.0, 23);
        for backend in BackendKind::ALL {
            let direct = matmul_tn_with(&a, &b, backend).unwrap();
            let explicit = matmul_with(&a.transpose2d().unwrap(), &b, backend).unwrap();
            assert!(direct.approx_eq(&explicit, 1e-4), "{backend} diverged");
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = init::uniform(&[6, 4], -1.0, 1.0, 30);
        let x = init::uniform(&[4], -1.0, 1.0, 31);
        for backend in BackendKind::ALL {
            let y = matvec_with(&a, &x, backend).unwrap();
            let xm = x.reshape(&[4, 1]).unwrap();
            let ym = matmul_with(&a, &xm, backend).unwrap();
            assert!(
                y.approx_eq(&ym.reshape(&[6]).unwrap(), 1e-5),
                "{backend} diverged"
            );
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        for backend in BackendKind::ALL {
            assert!(matmul_with(&a, &b, backend).is_err());
            assert!(matmul_with(&a, &Tensor::zeros(&[3]), backend).is_err());
            assert!(matmul_nt_with(&a, &Tensor::zeros(&[2, 4]), backend).is_err());
            assert!(matmul_tn_with(&a, &Tensor::zeros(&[3, 4]), backend).is_err());
            assert!(matvec_with(&a, &Tensor::zeros(&[2]), backend).is_err());
        }
    }
}
