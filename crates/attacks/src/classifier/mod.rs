//! Attack models: binary classifiers trained on gradient features.
//!
//! * [`LogisticRegression`] — the MIA attack model,
//! * [`RandomForest`] of CART decision trees — the DPIA attack model (the
//!   paper's §8.2 trains "different instances of the attack model
//!   (random forest)").

mod forest;
mod logreg;
mod tree;

pub(crate) use forest::{ForestConfig, RandomForest};
pub(crate) use logreg::LogisticRegression;

use gradsec_tensor::Tensor;

use crate::Result;

/// A binary classifier over dense feature matrices.
pub(crate) trait AttackModel: Send {
    /// Fits the model on `(x, labels)`, where `x` is `(N, D)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AttackError::InsufficientData`] when the training
    /// set is degenerate (empty, single class).
    fn fit(&mut self, x: &Tensor, labels: &[bool]) -> Result<()>;

    /// Positive-class scores for each row of `x`, in `[0, 1]`.
    fn scores(&self, x: &Tensor) -> Vec<f32>;
}

pub(crate) fn check_training_set(x: &Tensor, labels: &[bool]) -> Result<(usize, usize)> {
    let dims = x.dims();
    if dims.len() != 2 {
        return Err(crate::AttackError::BadConfig {
            reason: format!("training matrix must be rank 2, got {dims:?}"),
        });
    }
    let (n, d) = (dims[0], dims[1]);
    if n != labels.len() {
        return Err(crate::AttackError::InsufficientData {
            reason: format!("{n} rows but {} labels", labels.len()),
        });
    }
    let pos = labels.iter().filter(|&&l| l).count();
    if n == 0 || pos == 0 || pos == n {
        return Err(crate::AttackError::InsufficientData {
            reason: format!("degenerate training set: {pos} positive of {n}"),
        });
    }
    Ok((n, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_degenerate() {
        let x = Tensor::zeros(&[2, 3]);
        assert!(check_training_set(&x, &[true, true]).is_err());
        assert!(check_training_set(&x, &[false, false]).is_err());
        assert!(check_training_set(&x, &[true]).is_err());
        assert!(check_training_set(&Tensor::zeros(&[2]), &[true, false]).is_err());
        assert_eq!(check_training_set(&x, &[true, false]).unwrap(), (2, 3));
    }

    #[test]
    fn models_are_object_safe() {
        fn take(_m: &mut dyn AttackModel) {}
        take(&mut LogisticRegression::new(0.1, 10, 0.0, 1));
        take(&mut RandomForest::new(ForestConfig::default(), 1));
    }
}
