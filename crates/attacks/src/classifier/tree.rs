//! CART decision trees (Gini impurity).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gradsec_tensor::Tensor;

use crate::classifier::{check_training_set, AttackModel};
use crate::Result;

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeConfig {
    /// Maximum tree depth.
    pub(crate) max_depth: usize,
    /// Minimum samples per leaf.
    pub(crate) min_leaf: usize,
    /// Features examined per split (`None` = all); random forests pass
    /// `Some(√D)`.
    pub(crate) features_per_split: Option<usize>,
    /// Candidate thresholds evaluated per feature (quantile midpoints).
    pub(crate) threshold_candidates: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 6,
            min_leaf: 2,
            features_per_split: None,
            threshold_candidates: 16,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prob: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A single CART tree.
#[derive(Debug, Clone)]
pub(crate) struct DecisionTree {
    cfg: TreeConfig,
    seed: u64,
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Creates an untrained tree.
    pub(crate) fn new(cfg: TreeConfig, seed: u64) -> Self {
        DecisionTree {
            cfg,
            seed,
            nodes: Vec::new(),
        }
    }

    /// Fits on a row subset (used by bagging); `rows` indexes into `x`.
    ///
    /// # Errors
    ///
    /// Propagates degenerate-set errors from the public `fit`.
    pub(crate) fn fit_rows(&mut self, x: &Tensor, labels: &[bool], rows: &[usize]) -> Result<()> {
        let d = x.dims()[1];
        self.nodes.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rows = rows.to_vec();
        self.build(x, labels, rows, d, 0, &mut rng);
        Ok(())
    }

    fn build(
        &mut self,
        x: &Tensor,
        labels: &[bool],
        rows: Vec<usize>,
        d: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = rows.len();
        let pos = rows.iter().filter(|&&i| labels[i]).count();
        let prob = if n == 0 { 0.5 } else { pos as f32 / n as f32 };
        let node_gini = gini(pos, n);
        // Stop: pure node, depth limit or too small to split.
        if depth >= self.cfg.max_depth || n < 2 * self.cfg.min_leaf || node_gini == 0.0 {
            self.nodes.push(Node::Leaf { prob });
            return self.nodes.len() - 1;
        }
        // Candidate features.
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.cfg.features_per_split {
            features.shuffle(rng);
            features.truncate(k.max(1).min(d));
        }
        let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, gain)
        for &f in &features {
            let mut vals: Vec<f32> = rows.iter().map(|&i| x.data()[i * d + f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() - 1).div_ceil(self.cfg.threshold_candidates.max(1));
            let mut k = 0;
            while k + 1 < vals.len() {
                let t = 0.5 * (vals[k] + vals[k + 1]);
                let (lp, ln, rp, rn) = split_counts(x, labels, &rows, d, f, t);
                if ln >= self.cfg.min_leaf && rn >= self.cfg.min_leaf {
                    let w = n as f32;
                    let child = (ln as f32 / w) * gini(lp, ln) + (rn as f32 / w) * gini(rp, rn);
                    let gain = node_gini - child;
                    if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-7) {
                        best = Some((f, t, gain));
                    }
                }
                k += step;
            }
        }
        match best {
            None => {
                self.nodes.push(Node::Leaf { prob });
                self.nodes.len() - 1
            }
            Some((feature, threshold, _)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
                    .into_iter()
                    .partition(|&i| x.data()[i * d + feature] <= threshold);
                // Reserve this node's slot before recursing.
                self.nodes.push(Node::Leaf { prob });
                let slot = self.nodes.len() - 1;
                let left = self.build(x, labels, left_rows, d, depth + 1, rng);
                let right = self.build(x, labels, right_rows, d, depth + 1, rng);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }

    fn score_row(&self, row: &[f32]) -> f32 {
        if self.nodes.is_empty() {
            return 0.5;
        }
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

fn gini(pos: usize, n: usize) -> f32 {
    if n == 0 {
        return 0.0;
    }
    let p = pos as f32 / n as f32;
    2.0 * p * (1.0 - p)
}

fn split_counts(
    x: &Tensor,
    labels: &[bool],
    rows: &[usize],
    d: usize,
    feature: usize,
    threshold: f32,
) -> (usize, usize, usize, usize) {
    let mut lp = 0;
    let mut ln = 0;
    let mut rp = 0;
    let mut rn = 0;
    for &i in rows {
        if x.data()[i * d + feature] <= threshold {
            ln += 1;
            lp += usize::from(labels[i]);
        } else {
            rn += 1;
            rp += usize::from(labels[i]);
        }
    }
    (lp, ln, rp, rn)
}

impl AttackModel for DecisionTree {
    fn fit(&mut self, x: &Tensor, labels: &[bool]) -> Result<()> {
        let (n, _) = check_training_set(x, labels)?;
        let rows: Vec<usize> = (0..n).collect();
        self.fit_rows(x, labels, &rows)
    }

    fn scores(&self, x: &Tensor) -> Vec<f32> {
        let d = x.dims().get(1).copied().unwrap_or(0);
        let n = x.dims().first().copied().unwrap_or(0);
        (0..n)
            .map(|i| self.score_row(&x.data()[i * d..(i + 1) * d]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use gradsec_tensor::init;

    fn axis_aligned(n: usize, seed: u64) -> (Tensor, Vec<bool>) {
        // label = feature1 > 0.3 (nonlinear in no way, but needs a split).
        let x = init::uniform(&[n, 3], 0.0, 1.0, seed);
        let labels = (0..n).map(|i| x.data()[i * 3 + 1] > 0.3).collect();
        (x, labels)
    }

    fn xor_data(n: usize, seed: u64) -> (Tensor, Vec<bool>) {
        // label = (f0 > 0.5) XOR (f1 > 0.5): not linearly separable.
        let x = init::uniform(&[n, 2], 0.0, 1.0, seed);
        let labels = (0..n)
            .map(|i| (x.data()[i * 2] > 0.5) != (x.data()[i * 2 + 1] > 0.5))
            .collect();
        (x, labels)
    }

    #[test]
    fn learns_axis_aligned_rule() {
        let (x, y) = axis_aligned(200, 1);
        let mut t = DecisionTree::new(TreeConfig::default(), 1);
        t.fit(&x, &y).unwrap();
        let (xt, yt) = axis_aligned(100, 2);
        let a = auc(&t.scores(&xt), &yt).unwrap();
        assert!(a > 0.95, "auc {a}");
    }

    #[test]
    fn learns_xor_unlike_linear_models() {
        let (x, y) = xor_data(400, 3);
        let mut t = DecisionTree::new(
            TreeConfig {
                max_depth: 4,
                ..TreeConfig::default()
            },
            1,
        );
        t.fit(&x, &y).unwrap();
        let (xt, yt) = xor_data(200, 4);
        let a = auc(&t.scores(&xt), &yt).unwrap();
        assert!(a > 0.9, "auc {a}");
    }

    #[test]
    fn depth_zero_gives_single_leaf() {
        let (x, y) = axis_aligned(50, 5);
        let mut t = DecisionTree::new(
            TreeConfig {
                max_depth: 0,
                ..TreeConfig::default()
            },
            1,
        );
        t.fit(&x, &y).unwrap();
        let s = t.scores(&x);
        assert!(s.windows(2).all(|w| w[0] == w[1]), "constant prediction");
    }

    #[test]
    fn min_leaf_is_respected() {
        let (x, y) = axis_aligned(20, 6);
        let mut t = DecisionTree::new(
            TreeConfig {
                min_leaf: 10,
                ..TreeConfig::default()
            },
            1,
        );
        t.fit(&x, &y).unwrap();
        // With min_leaf = n/2 at most one split is possible: two leaves.
        let mut scores = t.scores(&x);
        scores.sort_by(f32::total_cmp);
        scores.dedup();
        assert!(scores.len() <= 2);
    }

    #[test]
    fn untrained_scores_neutral() {
        let t = DecisionTree::new(TreeConfig::default(), 1);
        assert_eq!(t.scores(&Tensor::zeros(&[2, 2])), vec![0.5, 0.5]);
    }

    #[test]
    fn rejects_degenerate() {
        let mut t = DecisionTree::new(TreeConfig::default(), 1);
        assert!(t.fit(&Tensor::zeros(&[3, 2]), &[true; 3]).is_err());
    }
}
