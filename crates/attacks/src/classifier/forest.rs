//! Random forests (bagging + per-split feature subsampling) — the
//! paper's DPIA attack model.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gradsec_tensor::Tensor;

use crate::classifier::tree::{DecisionTree, TreeConfig};
use crate::classifier::{check_training_set, AttackModel};
use crate::Result;

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ForestConfig {
    /// Number of trees.
    pub(crate) trees: usize,
    /// Per-tree depth limit.
    pub(crate) max_depth: usize,
    /// Minimum samples per leaf.
    pub(crate) min_leaf: usize,
    /// Candidate thresholds per feature per split.
    pub(crate) threshold_candidates: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            trees: 40,
            max_depth: 6,
            min_leaf: 2,
            threshold_candidates: 12,
        }
    }
}

/// A bagged ensemble of CART trees; scores average leaf probabilities.
#[derive(Debug, Clone)]
pub(crate) struct RandomForest {
    cfg: ForestConfig,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Creates an untrained forest.
    pub(crate) fn new(cfg: ForestConfig, seed: u64) -> Self {
        RandomForest {
            cfg,
            seed,
            trees: Vec::new(),
        }
    }
}

impl AttackModel for RandomForest {
    fn fit(&mut self, x: &Tensor, labels: &[bool]) -> Result<()> {
        let (n, d) = check_training_set(x, labels)?;
        let features_per_split = (d as f32).sqrt().ceil() as usize;
        self.trees.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for t in 0..self.cfg.trees {
            // Bootstrap sample of rows.
            let rows: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            let tree_cfg = TreeConfig {
                max_depth: self.cfg.max_depth,
                min_leaf: self.cfg.min_leaf,
                features_per_split: Some(features_per_split),
                threshold_candidates: self.cfg.threshold_candidates,
            };
            let mut tree = DecisionTree::new(
                tree_cfg,
                self.seed.wrapping_add(1 + t as u64).wrapping_mul(0x9E37),
            );
            tree.fit_rows(x, labels, &rows)?;
            self.trees.push(tree);
        }
        Ok(())
    }

    fn scores(&self, x: &Tensor) -> Vec<f32> {
        let n = x.dims().first().copied().unwrap_or(0);
        if self.trees.is_empty() {
            return vec![0.5; n];
        }
        let mut acc = vec![0.0f32; n];
        for tree in &self.trees {
            for (a, s) in acc.iter_mut().zip(tree.scores(x)) {
                *a += s;
            }
        }
        for a in &mut acc {
            *a /= self.trees.len() as f32;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use gradsec_tensor::init;

    fn ring_data(n: usize, seed: u64) -> (Tensor, Vec<bool>) {
        // label = inside the ring 0.25 < r² < 1.0 in 2-D; nonlinear.
        let x = init::uniform(&[n, 2], -1.5, 1.5, seed);
        let labels = (0..n)
            .map(|i| {
                let r2 = x.data()[i * 2].powi(2) + x.data()[i * 2 + 1].powi(2);
                (0.25..1.0).contains(&r2)
            })
            .collect();
        (x, labels)
    }

    #[test]
    fn forest_beats_chance_on_nonlinear_task() {
        let (x, y) = ring_data(600, 1);
        let mut f = RandomForest::new(ForestConfig::default(), 7);
        f.fit(&x, &y).unwrap();
        let (xt, yt) = ring_data(300, 2);
        let a = auc(&f.scores(&xt), &yt).unwrap();
        assert!(a > 0.85, "auc {a}");
    }

    #[test]
    fn forest_generalizes_better_than_single_tree() {
        let (x, y) = ring_data(200, 3);
        let (xt, yt) = ring_data(300, 4);
        let mut tree = DecisionTree::new(TreeConfig::default(), 1);
        tree.fit(&x, &y).unwrap();
        let tree_auc = auc(&tree.scores(&xt), &yt).unwrap();
        let mut forest = RandomForest::new(ForestConfig::default(), 1);
        forest.fit(&x, &y).unwrap();
        let forest_auc = auc(&forest.scores(&xt), &yt).unwrap();
        assert!(
            forest_auc >= tree_auc - 0.02,
            "forest {forest_auc} vs tree {tree_auc}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = ring_data(100, 5);
        let mut a = RandomForest::new(ForestConfig::default(), 9);
        a.fit(&x, &y).unwrap();
        let mut b = RandomForest::new(ForestConfig::default(), 9);
        b.fit(&x, &y).unwrap();
        assert_eq!(a.scores(&x), b.scores(&x));
    }

    #[test]
    fn untrained_scores_neutral() {
        let f = RandomForest::new(ForestConfig::default(), 1);
        assert_eq!(f.scores(&Tensor::zeros(&[3, 2])), vec![0.5; 3]);
    }

    #[test]
    fn scores_bounded() {
        let (x, y) = ring_data(100, 6);
        let mut f = RandomForest::new(
            ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
            2,
        );
        f.fit(&x, &y).unwrap();
        assert!(f.scores(&x).iter().all(|p| (0.0..=1.0).contains(p)));
    }
}
