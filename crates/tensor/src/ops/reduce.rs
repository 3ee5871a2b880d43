//! Row-wise reductions and normalisations: argmax and softmax.

use crate::{Result, Tensor, TensorError};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
