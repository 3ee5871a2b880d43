//! Reductions and row-wise normalisations.

use crate::backend::BackendKind;
use crate::{Result, Tensor, TensorError};

/// Sum of all elements.
pub fn sum(t: &Tensor) -> f32 {
    t.data().iter().sum()
}

/// [`sum`] through an explicit backend. Reductions are where backends
/// legitimately differ: the tiled backend accumulates in multiple
/// lanes, so its result can differ from [`sum`] by f32 reassociation
/// error (each backend is individually deterministic).
pub fn sum_with(t: &Tensor, backend: BackendKind) -> f32 {
    backend.kernels().sum(t.data())
}

/// Inner product `Σ a∗b` through an explicit backend.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn dot_with(a: &Tensor, b: &Tensor, backend: BackendKind) -> Result<f32> {
    if !a.shape().same_as(b.shape()) {
        return Err(TensorError::ShapeMismatch {
            op: "dot",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(backend.kernels().dot(a.data(), b.data()))
}

/// Arithmetic mean of all elements (0 for empty tensors).
pub fn mean(t: &Tensor) -> f32 {
    if t.numel() == 0 {
        0.0
    } else {
        sum(t) / t.numel() as f32
    }
}

/// Maximum element (−∞ for empty tensors).
pub fn max(t: &Tensor) -> f32 {
    t.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Index of the maximum element (`None` for empty tensors; ties resolve to
/// the first occurrence).
pub fn argmax(t: &Tensor) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in t.data().iter().enumerate() {
        match best {
            Some((_, b)) if x <= b => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Row-wise argmax of a rank-2 tensor — the predicted class per sample.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices.
pub fn argmax_rows(t: &Tensor) -> Result<Vec<usize>> {
    if t.shape().ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "argmax_rows",
            expected: 2,
            actual: t.shape().ndim(),
        });
    }
    let (r, c) = (t.dims()[0], t.dims()[1]);
    let mut out = Vec::with_capacity(r);
    for i in 0..r {
        let row = &t.data()[i * c..(i + 1) * c];
        let mut best = 0usize;
        for j in 1..c {
            if row[j] > row[best] {
                best = j;
            }
        }
        out.push(best);
    }
    Ok(out)
}

/// Numerically-stable softmax applied independently to each row of a
/// rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices.
pub fn softmax_rows(t: &Tensor) -> Result<Tensor> {
    if t.shape().ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: t.shape().ndim(),
        });
    }
    let (r, c) = (t.dims()[0], t.dims()[1]);
    let mut out = t.clone();
    for i in 0..r {
        let row = &mut out.data_mut()[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - m).exp();
            z += *x;
        }
        if z > 0.0 {
            for x in row.iter_mut() {
                *x /= z;
            }
        }
    }
    Ok(out)
}

/// Mean of each column of a rank-2 tensor; used by the DPIA attacker's
/// mean-imputation strategy (paper §8.2).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices.
pub fn column_means(t: &Tensor) -> Result<Vec<f32>> {
    if t.shape().ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "column_means",
            expected: 2,
            actual: t.shape().ndim(),
        });
    }
    let (r, c) = (t.dims()[0], t.dims()[1]);
    let mut means = vec![0.0f32; c];
    if r == 0 {
        return Ok(means);
    }
    for i in 0..r {
        let row = &t.data()[i * c..(i + 1) * c];
        for (m, &x) in means.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut means {
        *m /= r as f32;
    }
    Ok(means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[4]).unwrap();
        assert_eq!(sum(&t), 2.0);
        assert_eq!(mean(&t), 0.5);
        assert_eq!(max(&t), 3.0);
        assert_eq!(argmax(&t), Some(2));
    }

    #[test]
    fn backend_reductions_agree_within_rounding() {
        let t = Tensor::from_vec((0..37).map(|i| (i as f32) * 0.5 - 9.0).collect(), &[37]).unwrap();
        let u =
            Tensor::from_vec((0..37).map(|i| 1.0 - (i as f32) * 0.25).collect(), &[37]).unwrap();
        for backend in BackendKind::ALL {
            assert!((sum_with(&t, backend) - sum(&t)).abs() < 1e-3);
            let serial: f32 = t.data().iter().zip(u.data()).map(|(a, b)| a * b).sum();
            assert!((dot_with(&t, &u, backend).unwrap() - serial).abs() < 1e-3);
        }
        assert!(dot_with(&t, &Tensor::zeros(&[2]), BackendKind::Reference).is_err());
    }

    #[test]
    fn empty_tensor_reductions() {
        let t = Tensor::zeros(&[0]);
        assert_eq!(sum(&t), 0.0);
        assert_eq!(mean(&t), 0.0);
        assert_eq!(argmax(&t), None);
    }

    #[test]
    fn argmax_ties_resolve_first() {
        let t = Tensor::from_vec(vec![5.0, 5.0, 1.0], &[3]).unwrap();
        assert_eq!(argmax(&t), Some(0));
    }

    #[test]
    fn row_argmax() {
        let t = Tensor::from_vec(vec![1.0, 9.0, 2.0, 8.0, 0.0, 3.0], &[2, 3]).unwrap();
        assert_eq!(argmax_rows(&t).unwrap(), vec![1, 0]);
        assert!(argmax_rows(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]).unwrap();
        let s = softmax_rows(&t).unwrap();
        for i in 0..2 {
            let rowsum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((rowsum - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        assert!(s.data()[2] > s.data()[1]);
        assert!(s.data()[1] > s.data()[0]);
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = softmax_rows(&t).unwrap();
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn column_means_known() {
        let t = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0], &[2, 2]).unwrap();
        assert_eq!(column_means(&t).unwrap(), vec![2.0, 15.0]);
        assert_eq!(
            column_means(&Tensor::zeros(&[0, 2])).unwrap(),
            vec![0.0, 0.0]
        );
    }
}
