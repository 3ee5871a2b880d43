//! Loss functions.
//!
//! The paper trains multi-class classifiers with categorical cross-entropy
//! (its Table 2 `Loss`); the initial backward error is then
//! `δ_n = (Ŷ − Y)/m` — exactly the `l = n` case of equation (3).

use gradsec_tensor::ops::reduce::softmax_rows;
use gradsec_tensor::Tensor;

use crate::{NnError, Result};

/// A differentiable training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Loss {
    /// Categorical cross-entropy over a softmax of the logits.
    #[default]
    CategoricalCrossEntropy,
    /// Mean squared error (used by the DRIA attacker's gradient-matching
    /// objective and for regression-style sanity tests).
    MeanSquaredError,
}

impl Loss {
    /// Evaluates the loss and its gradient w.r.t. the logits.
    ///
    /// `logits` and `targets` are `(N, K)`; for cross-entropy the targets
    /// must be one-hot (or soft) distributions per row. Returns
    /// `(loss_value, ∂Loss/∂logits)`, already averaged over the batch.
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error when the operands disagree.
    pub fn evaluate(&self, logits: &Tensor, targets: &Tensor) -> Result<(f32, Tensor)> {
        if logits.dims() != targets.dims() {
            return Err(NnError::Tensor(
                gradsec_tensor::TensorError::ShapeMismatch {
                    op: "loss",
                    lhs: logits.dims().to_vec(),
                    rhs: targets.dims().to_vec(),
                },
            ));
        }
        if logits.shape().ndim() != 2 {
            return Err(NnError::Tensor(gradsec_tensor::TensorError::RankMismatch {
                op: "loss",
                expected: 2,
                actual: logits.shape().ndim(),
            }));
        }
        let n = logits.dims()[0].max(1) as f32;
        match self {
            Loss::CategoricalCrossEntropy => {
                let probs = softmax_rows(logits)?;
                // loss = −Σ y·log(p) / N, with clamping for numerical safety.
                let mut loss = 0.0f32;
                for (p, y) in probs.data().iter().zip(targets.data()) {
                    if *y > 0.0 {
                        loss -= y * p.max(1e-12).ln();
                    }
                }
                loss /= n;
                // δ = (softmax(logits) − Y)/N — the paper's (Ŷ − Y)/m.
                let delta = probs.zip_with(targets, |p, y| (p - y) / n)?;
                Ok((loss, delta))
            }
            Loss::MeanSquaredError => {
                let diff = logits.zip_with(targets, |a, b| a - b)?;
                let loss = diff.norm_sq() / (logits.numel().max(1) as f32);
                let scale = 2.0 / logits.numel().max(1) as f32;
                let delta = diff.map(|d| d * scale);
                Ok((loss, delta))
            }
        }
    }
}

impl std::fmt::Display for Loss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Loss::CategoricalCrossEntropy => f.write_str("categorical-cross-entropy"),
            Loss::MeanSquaredError => f.write_str("mse"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_tensor::init;

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        // Huge logit on the true class -> probability ~1 -> loss ~0.
        let logits = Tensor::from_vec(vec![50.0, 0.0, 0.0], &[1, 3]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, 3]).unwrap();
        let (loss, delta) = Loss::CategoricalCrossEntropy.evaluate(&logits, &y).unwrap();
        assert!(loss < 1e-5);
        assert!(delta.data().iter().all(|d| d.abs() < 1e-5));
    }

    #[test]
    fn cross_entropy_uniform_prediction() {
        // Equal logits over K classes -> loss = ln K.
        let logits = Tensor::zeros(&[1, 4]);
        let y = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[1, 4]).unwrap();
        let (loss, _) = Loss::CategoricalCrossEntropy.evaluate(&logits, &y).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = init::uniform(&[2, 5], -1.0, 1.0, 31);
        let mut y = Tensor::zeros(&[2, 5]);
        y.set(&[0, 2], 1.0).unwrap();
        y.set(&[1, 0], 1.0).unwrap();
        let (_, delta) = Loss::CategoricalCrossEntropy.evaluate(&logits, &y).unwrap();
        let eps = 1e-3f32;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (up, _) = Loss::CategoricalCrossEntropy.evaluate(&lp, &y).unwrap();
            let (down, _) = Loss::CategoricalCrossEntropy.evaluate(&lm, &y).unwrap();
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - delta.data()[i]).abs() < 1e-2,
                "dlogits[{i}]: numeric {num} vs analytic {}",
                delta.data()[i]
            );
        }
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        let (loss, delta) = Loss::MeanSquaredError.evaluate(&a, &b).unwrap();
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4)/2
        assert_eq!(delta.data(), &[1.0, 2.0]); // 2/2 · diff
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Loss::CategoricalCrossEntropy.evaluate(&a, &b).is_err());
        assert!(Loss::MeanSquaredError.evaluate(&a, &b).is_err());
        let v = Tensor::zeros(&[2]);
        assert!(Loss::CategoricalCrossEntropy.evaluate(&v, &v).is_err());
    }

    #[test]
    fn delta_rows_sum_to_zero_for_cross_entropy() {
        // softmax probabilities and one-hot targets both sum to 1 per row.
        let logits = init::uniform(&[3, 7], -2.0, 2.0, 33);
        let mut y = Tensor::zeros(&[3, 7]);
        for i in 0..3 {
            y.set(&[i, i * 2], 1.0).unwrap();
        }
        let (_, delta) = Loss::CategoricalCrossEntropy.evaluate(&logits, &y).unwrap();
        for i in 0..3 {
            let s: f32 = delta.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }
}
