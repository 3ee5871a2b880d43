//! Logistic regression with internal feature standardisation.

use gradsec_tensor::Tensor;

use crate::classifier::{check_training_set, AttackModel};
use crate::Result;

/// L2-regularised logistic regression trained by full-batch gradient
/// descent on standardised features — the MIA attack model.
#[derive(Debug, Clone)]
pub(crate) struct LogisticRegression {
    lr: f32,
    epochs: usize,
    l2: f32,
    seed: u64,
    weights: Vec<f32>,
    bias: f32,
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl LogisticRegression {
    /// Creates an untrained model.
    pub(crate) fn new(lr: f32, epochs: usize, l2: f32, seed: u64) -> Self {
        LogisticRegression {
            lr,
            epochs,
            l2,
            seed,
            weights: Vec::new(),
            bias: 0.0,
            means: Vec::new(),
            stds: Vec::new(),
        }
    }

    /// A sensible default for gradient-feature inputs.
    pub(crate) fn default_attack_model(seed: u64) -> Self {
        LogisticRegression::new(0.3, 300, 1e-4, seed)
    }

    fn standardize(&self, row: &[f32]) -> Vec<f32> {
        row.iter()
            .enumerate()
            .map(|(j, &v)| (v - self.means[j]) / self.stds[j])
            .collect()
    }

    fn raw_score(&self, row: &[f32]) -> f32 {
        let z: f32 = self
            .standardize(row)
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| x * w)
            .sum::<f32>()
            + self.bias;
        1.0 / (1.0 + (-z).exp())
    }
}

impl AttackModel for LogisticRegression {
    fn fit(&mut self, x: &Tensor, labels: &[bool]) -> Result<()> {
        let (n, d) = check_training_set(x, labels)?;
        // Column statistics for standardisation.
        self.means = vec![0.0; d];
        self.stds = vec![1.0; d];
        for i in 0..n {
            for j in 0..d {
                self.means[j] += x.data()[i * d + j];
            }
        }
        for m in &mut self.means {
            *m /= n as f32;
        }
        let mut vars = vec![0.0f32; d];
        for i in 0..n {
            let row = &x.data()[i * d..(i + 1) * d];
            for ((v, &xi), &m) in vars.iter_mut().zip(row).zip(&self.means) {
                let c = xi - m;
                *v += c * c;
            }
        }
        for (s, v) in self.stds.iter_mut().zip(&vars) {
            *s = (v / n as f32).sqrt().max(1e-6);
        }
        // Deterministic tiny init (seed kept for API parity with the
        // forest; gradient descent from near-zero is convex anyway).
        let scale = 1e-3 * ((self.seed % 7 + 1) as f32);
        self.weights = (0..d).map(|j| scale * ((j % 3) as f32 - 1.0)).collect();
        self.bias = 0.0;
        // Full-batch gradient descent on the standardised matrix.
        let std_x: Vec<Vec<f32>> = (0..n)
            .map(|i| self.standardize(&x.data()[i * d..(i + 1) * d]))
            .collect();
        for _ in 0..self.epochs {
            let mut gw = vec![0.0f32; d];
            let mut gb = 0.0f32;
            for (row, &label) in std_x.iter().zip(labels) {
                let z: f32 = row
                    .iter()
                    .zip(&self.weights)
                    .map(|(x, w)| x * w)
                    .sum::<f32>()
                    + self.bias;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - if label { 1.0 } else { 0.0 };
                for (g, &xj) in gw.iter_mut().zip(row) {
                    *g += err * xj;
                }
                gb += err;
            }
            let inv_n = 1.0 / n as f32;
            for (w, g) in self.weights.iter_mut().zip(&gw) {
                *w -= self.lr * (g * inv_n + self.l2 * *w);
            }
            self.bias -= self.lr * gb * inv_n;
        }
        Ok(())
    }

    fn scores(&self, x: &Tensor) -> Vec<f32> {
        let d = self.means.len();
        if d == 0 || x.dims().len() != 2 || x.dims()[1] != d {
            return vec![0.5; x.dims().first().copied().unwrap_or(0)];
        }
        let n = x.dims()[0];
        (0..n)
            .map(|i| self.raw_score(&x.data()[i * d..(i + 1) * d]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use gradsec_tensor::init;

    fn separable(n: usize, seed: u64) -> (Tensor, Vec<bool>) {
        // Positive class has +2 shift in feature 0.
        let mut x = init::uniform(&[n, 4], -1.0, 1.0, seed);
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        for (i, &l) in labels.iter().enumerate() {
            if l {
                x.data_mut()[i * 4] += 2.0;
            }
        }
        (x, labels)
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = separable(60, 1);
        let mut m = LogisticRegression::default_attack_model(1);
        m.fit(&x, &y).unwrap();
        let (xt, yt) = separable(40, 2);
        let s = m.scores(&xt);
        let a = auc(&s, &yt).unwrap();
        assert!(a > 0.95, "auc {a}");
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = separable(30, 3);
        let mut m = LogisticRegression::default_attack_model(1);
        m.fit(&x, &y).unwrap();
        assert!(m.scores(&x).iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn untrained_or_mismatched_scores_are_neutral() {
        let m = LogisticRegression::new(0.1, 10, 0.0, 1);
        let x = Tensor::zeros(&[3, 4]);
        assert_eq!(m.scores(&x), vec![0.5; 3]);
    }

    #[test]
    fn constant_features_do_not_break_standardisation() {
        let mut x = Tensor::zeros(&[10, 2]);
        for i in 0..10 {
            x.data_mut()[i * 2] = if i % 2 == 0 { 1.0 } else { -1.0 };
            // Column 1 stays constant.
        }
        let y: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let mut m = LogisticRegression::default_attack_model(1);
        m.fit(&x, &y).unwrap();
        let a = auc(&m.scores(&x), &y).unwrap();
        assert!(a > 0.99);
    }

    #[test]
    fn rejects_single_class() {
        let x = Tensor::zeros(&[4, 2]);
        let mut m = LogisticRegression::default_attack_model(1);
        assert!(m.fit(&x, &[true; 4]).is_err());
    }
}
