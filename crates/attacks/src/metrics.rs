//! Attack-success metrics.
//!
//! The paper measures DRIA with *ImageLoss* (Euclidean distance between
//! the reconstruction and the original) and MIA/DPIA with *AUC*, chosen
//! because it is "statistically consistent and more discriminating than
//! accuracy" (§8.2, citing Ling et al.).

use gradsec_tensor::Tensor;

use crate::{AttackError, Result};

/// Area under the ROC curve via the rank-sum (Mann–Whitney) statistic,
/// with midrank tie handling.
///
/// `scores[i]` is the classifier's positive-class score for sample `i`;
/// `labels[i]` is the ground truth. An uninformative classifier scores
/// 0.5; the paper calls AUC 0.5 "a random guess regardless of the
/// classification threshold".
///
/// # Errors
///
/// Returns [`AttackError::InsufficientData`] when inputs are mismatched
/// or one class is absent (AUC undefined).
pub fn auc(scores: &[f32], labels: &[bool]) -> Result<f32> {
    if scores.len() != labels.len() {
        return Err(AttackError::InsufficientData {
            reason: format!(
                "scores/labels length mismatch: {} vs {}",
                scores.len(),
                labels.len()
            ),
        });
    }
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    if positives == 0 || negatives == 0 {
        return Err(AttackError::InsufficientData {
            reason: format!("auc needs both classes ({positives} positive, {negatives} negative)"),
        });
    }
    // Sort indices by score; assign midranks to ties.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        // Ranks are 1-based; ties share the average rank.
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l)
        .map(|(r, _)| *r)
        .sum();
    let n_pos = positives as f64;
    let n_neg = negatives as f64;
    let u = rank_sum_pos - n_pos * (n_pos + 1.0) / 2.0;
    Ok((u / (n_pos * n_neg)) as f32)
}

/// The paper's *ImageLoss*: Euclidean distance between the attacker's
/// reconstruction and the original image.
///
/// # Errors
///
/// Returns shape errors for mismatched images.
pub(crate) fn image_loss(reconstructed: &Tensor, original: &Tensor) -> Result<f32> {
    Ok(reconstructed.distance(original)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert_eq!(auc(&scores, &labels).unwrap(), 1.0);
    }

    #[test]
    fn inverted_separation() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert_eq!(auc(&scores, &labels).unwrap(), 0.0);
    }

    #[test]
    fn all_tied_is_random() {
        let scores = [0.5; 6];
        let labels = [true, false, true, false, true, false];
        assert!((auc(&scores, &labels).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn known_partial_value() {
        // pos scores {0.8, 0.4}, neg {0.6, 0.2}: pairs won = (0.8>0.6),
        // (0.8>0.2), (0.4<0.6 lose), (0.4>0.2) -> 3/4.
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((auc(&scores, &labels).unwrap() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(auc(&[0.5], &[true]).is_err());
        assert!(auc(&[0.5, 0.6], &[false, false]).is_err());
        assert!(auc(&[0.5], &[true, false]).is_err());
    }

    #[test]
    fn auc_is_threshold_free() {
        // Monotone transforms of the scores leave AUC unchanged.
        let scores = [0.9f32, 0.3, 0.7, 0.2, 0.6];
        let labels = [true, false, true, false, false];
        let base = auc(&scores, &labels).unwrap();
        let squashed: Vec<f32> = scores.iter().map(|s| s * 0.1 + 5.0).collect();
        assert!((auc(&squashed, &labels).unwrap() - base).abs() < 1e-6);
    }

    #[test]
    fn image_loss_is_distance() {
        let a = Tensor::from_vec(vec![0.0, 3.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 0.0], &[2]).unwrap();
        assert_eq!(image_loss(&a, &b).unwrap(), 5.0);
        assert!(image_loss(&a, &Tensor::zeros(&[3])).is_err());
    }
}
