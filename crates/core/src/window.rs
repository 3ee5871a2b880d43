//! The moving window `MW` of dynamic GradSec (paper §7.2).
//!
//! The window covers `size_MW` successive layers; its position for each FL
//! cycle is drawn from the probability vector `V_MW`, whose length for an
//! `n`-layer network is `n − size_MW + 1` (paper Figure 4). The intuition:
//! protect *all* layers over time without ever holding them all in the
//! enclave at once, weighting positions by their sensitivity to the
//! attack.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{GradSecError, Result};

/// A validated moving-window configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingWindow {
    size: usize,
    v_mw: Vec<f64>,
    seed: u64,
}

impl MovingWindow {
    /// Creates a moving window of `size` successive layers over an
    /// `n_layers` network, with position distribution `v_mw` and a seed
    /// for the per-cycle draws.
    ///
    /// # Errors
    ///
    /// Returns [`GradSecError::BadPolicy`] when `size` is zero or exceeds
    /// the layer count, when `v_mw` has the wrong length
    /// (`n_layers − size + 1`), contains negatives, or does not sum to 1
    /// (within 1e-6).
    pub fn new(size: usize, n_layers: usize, v_mw: Vec<f64>, seed: u64) -> Result<Self> {
        if size == 0 || size > n_layers {
            return Err(GradSecError::BadPolicy {
                reason: format!("window size {size} invalid for {n_layers} layers"),
            });
        }
        let expected = n_layers - size + 1;
        if v_mw.len() != expected {
            return Err(GradSecError::BadPolicy {
                reason: format!(
                    "V_MW has {} entries; a {n_layers}-layer model with size_MW {size} needs {expected}",
                    v_mw.len()
                ),
            });
        }
        if v_mw.iter().any(|&p| p < 0.0) {
            return Err(GradSecError::BadPolicy {
                reason: "V_MW contains negative probabilities".to_owned(),
            });
        }
        let sum: f64 = v_mw.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(GradSecError::BadPolicy {
                reason: format!("V_MW sums to {sum}, expected 1"),
            });
        }
        Ok(MovingWindow { size, v_mw, seed })
    }

    /// Uniform `V_MW` over all positions.
    ///
    /// # Errors
    ///
    /// Propagates size validation.
    pub fn uniform(size: usize, n_layers: usize, seed: u64) -> Result<Self> {
        let positions = n_layers.checked_sub(size).map(|d| d + 1).unwrap_or(0);
        if positions == 0 {
            return Err(GradSecError::BadPolicy {
                reason: format!("window size {size} invalid for {n_layers} layers"),
            });
        }
        MovingWindow::new(
            size,
            n_layers,
            vec![1.0 / positions as f64; positions],
            seed,
        )
    }

    /// Window size (`size_MW`).
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// The position distribution `V_MW`.
    pub fn v_mw(&self) -> &[f64] {
        &self.v_mw
    }

    /// Number of possible positions (`n − size_MW + 1`).
    pub fn positions(&self) -> usize {
        self.v_mw.len()
    }

    /// The layers covered when the window sits at `position`.
    pub fn layers_at(&self, position: usize) -> Vec<usize> {
        (position..position + self.size).collect()
    }

    /// Draws the window position for an FL cycle. Deterministic per
    /// `(seed, round)` so every component (server schedule, client
    /// trainer, attacker simulation) agrees on the cycle's configuration.
    pub fn position_for_round(&self, round: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(round),
        );
        let draw: f64 = rng.random_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, &p) in self.v_mw.iter().enumerate() {
            acc += p;
            if draw < acc {
                return i;
            }
        }
        self.v_mw.len() - 1
    }

    /// The protected layers for an FL cycle.
    pub fn layers_for_round(&self, round: u64) -> Vec<usize> {
        self.layers_at(self.position_for_round(round))
    }

    /// Empirical position frequencies over `rounds` cycles (used by the
    /// weighted-average rows of Table 6 and by tests).
    pub fn empirical_frequencies(&self, rounds: u64) -> Vec<f64> {
        let mut counts = vec![0u64; self.positions()];
        for r in 0..rounds {
            counts[self.position_for_round(r)] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / rounds as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's best DPIA configuration: size 2, V = [.2,.1,.6,.1].
    fn paper_window() -> MovingWindow {
        MovingWindow::new(2, 5, vec![0.2, 0.1, 0.6, 0.1], 7).unwrap()
    }

    #[test]
    fn validation() {
        assert!(MovingWindow::new(0, 5, vec![1.0], 0).is_err());
        assert!(MovingWindow::new(6, 5, vec![1.0], 0).is_err());
        assert!(MovingWindow::new(2, 5, vec![0.5, 0.5], 0).is_err()); // needs 4
        assert!(MovingWindow::new(2, 5, vec![0.5, 0.5, 0.5, -0.5], 0).is_err());
        assert!(MovingWindow::new(2, 5, vec![0.3, 0.3, 0.3, 0.3], 0).is_err());
        assert!(paper_window().positions() == 4);
    }

    #[test]
    fn figure4_positions() {
        // "The number of possible locations for an MW in a neural network
        // with n layers is n − size_MW + 1" — Figure 4 shows 4 for n=5,
        // size=2.
        let w = MovingWindow::uniform(2, 5, 0).unwrap();
        assert_eq!(w.positions(), 4);
        assert_eq!(w.layers_at(0), vec![0, 1]);
        assert_eq!(w.layers_at(3), vec![3, 4]);
    }

    #[test]
    fn draws_follow_v_mw() {
        let w = paper_window();
        let freq = w.empirical_frequencies(20_000);
        for (f, p) in freq.iter().zip(w.v_mw()) {
            assert!((f - p).abs() < 0.02, "freq {f} vs target {p}");
        }
    }

    #[test]
    fn deterministic_per_round() {
        let w = paper_window();
        for r in 0..50 {
            assert_eq!(w.position_for_round(r), w.position_for_round(r));
        }
        // Different seeds give different schedules.
        let w2 = MovingWindow::new(2, 5, vec![0.2, 0.1, 0.6, 0.1], 8).unwrap();
        let a: Vec<usize> = (0..50).map(|r| w.position_for_round(r)).collect();
        let b: Vec<usize> = (0..50).map(|r| w2.position_for_round(r)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn degenerate_distribution_pins_the_window() {
        let w = MovingWindow::new(3, 5, vec![0.0, 1.0, 0.0], 1).unwrap();
        for r in 0..20 {
            assert_eq!(w.layers_for_round(r), vec![1, 2, 3]);
        }
    }

    #[test]
    fn full_coverage_window() {
        // size_MW = n: a single position covering the whole network.
        let w = MovingWindow::uniform(5, 5, 0).unwrap();
        assert_eq!(w.positions(), 1);
        assert_eq!(w.layers_for_round(3), vec![0, 1, 2, 3, 4]);
    }
}
