//! Protection policies (paper §7.1–7.2) and the DarkneTZ baseline.

use std::collections::BTreeSet;

use gradsec_fl::scheduler::ProtectionScheduler;

use crate::window::MovingWindow;
use crate::{GradSecError, Result};

/// How a client shelters layers across FL cycles.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtectionPolicy {
    /// No protection — the unprotected baseline of Table 6.
    None,
    /// Static GradSec (§7.1): a fixed layer set, **possibly
    /// non-contiguous** — the capability DarkneTZ lacks.
    Static {
        /// The sheltered layer indices (0-based, sorted, deduplicated).
        layers: Vec<usize>,
    },
    /// Dynamic GradSec (§7.2): the moving window.
    Dynamic(MovingWindow),
}

impl ProtectionPolicy {
    /// Builds a static policy from any layer set.
    ///
    /// # Errors
    ///
    /// Returns [`GradSecError::BadPolicy`] for an empty set (use
    /// [`ProtectionPolicy::None`] for that).
    pub fn static_layers(layers: &[usize]) -> Result<Self> {
        if layers.is_empty() {
            return Err(GradSecError::BadPolicy {
                reason: "static policy needs at least one layer (use None otherwise)".to_owned(),
            });
        }
        let set: BTreeSet<usize> = layers.iter().copied().collect();
        Ok(ProtectionPolicy::Static {
            layers: set.into_iter().collect(),
        })
    }

    /// Builds the dynamic policy.
    pub fn dynamic(window: MovingWindow) -> Self {
        ProtectionPolicy::Dynamic(window)
    }

    /// Validates the policy against a concrete model depth.
    ///
    /// # Errors
    ///
    /// Returns [`GradSecError::BadPolicy`] when any referenced layer is out
    /// of range.
    pub fn validate(&self, n_layers: usize) -> Result<()> {
        match self {
            ProtectionPolicy::None => Ok(()),
            ProtectionPolicy::Static { layers } => {
                if let Some(&bad) = layers.iter().find(|&&l| l >= n_layers) {
                    return Err(GradSecError::BadPolicy {
                        reason: format!("layer {bad} out of range for {n_layers}-layer model"),
                    });
                }
                Ok(())
            }
            ProtectionPolicy::Dynamic(w) => {
                if w.positions() + w.size() - 1 != n_layers {
                    return Err(GradSecError::BadPolicy {
                        reason: format!(
                            "window configured for {} layers, model has {n_layers}",
                            w.positions() + w.size() - 1
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// The layers sheltered during FL cycle `round` on a model with
    /// `n_layers` layers.
    pub fn protected_for_round(&self, round: u64, n_layers: usize) -> Vec<usize> {
        match self {
            ProtectionPolicy::None => Vec::new(),
            ProtectionPolicy::Static { layers } => {
                layers.iter().copied().filter(|&l| l < n_layers).collect()
            }
            ProtectionPolicy::Dynamic(w) => w.layers_for_round(round),
        }
    }

    /// Splits a static layer set into maximal contiguous slices — the
    /// paper's "one or two separate slices" view of static GradSec, and
    /// the enclave runs the secure trainer enters once per batch.
    pub fn slices(layers: &[usize]) -> Vec<(usize, usize)> {
        gradsec_fl::trainer::contiguous_runs(layers)
    }
}

/// Policies drive the federation directly: hand a [`ProtectionPolicy`] to
/// `FederationBuilder::scheduler` and every round's sheltered set follows
/// the policy's (deterministic, per-round) draw.
impl ProtectionScheduler for ProtectionPolicy {
    fn layers_for_round(&self, round: u64) -> Vec<usize> {
        match self {
            ProtectionPolicy::None => Vec::new(),
            ProtectionPolicy::Static { layers } => layers.clone(),
            ProtectionPolicy::Dynamic(w) => w.layers_for_round(round),
        }
    }
}

/// The DarkneTZ baseline (paper §3.4): protection restricted to **one
/// contiguous slice** of layers. Construction fails for non-successive
/// sets — exactly the limitation that forces DarkneTZ to shelter
/// `L2..L5` (four layers) where GradSec shelters only `{L2, L5}`.
#[derive(Debug, Clone, PartialEq)]
pub struct DarknetzPolicy {
    first: usize,
    last: usize,
}

impl DarknetzPolicy {
    /// Builds a DarkneTZ policy from a layer set.
    ///
    /// # Errors
    ///
    /// Returns [`GradSecError::NonContiguousSlice`] when the set has gaps
    /// and [`GradSecError::BadPolicy`] when it is empty.
    pub fn new(layers: &[usize]) -> Result<Self> {
        if layers.is_empty() {
            return Err(GradSecError::BadPolicy {
                reason: "darknetz policy needs at least one layer".to_owned(),
            });
        }
        let slices = ProtectionPolicy::slices(layers);
        if slices.len() != 1 {
            return Err(GradSecError::NonContiguousSlice {
                layers: layers.to_vec(),
            });
        }
        Ok(DarknetzPolicy {
            first: slices[0].0,
            last: slices[0].1,
        })
    }

    /// The smallest DarkneTZ policy that covers a (possibly
    /// non-contiguous) GradSec layer set — i.e. what DarkneTZ is *forced*
    /// to protect to match GradSec's coverage: the full hull including all
    /// intermediate layers (the paper's DRIA+MIA comparison, Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`GradSecError::BadPolicy`] for an empty set.
    pub fn covering(layers: &[usize]) -> Result<Self> {
        let min = layers.iter().min().ok_or_else(|| GradSecError::BadPolicy {
            reason: "cannot cover an empty layer set".to_owned(),
        })?;
        let max = layers.iter().max().expect("non-empty");
        Ok(DarknetzPolicy {
            first: *min,
            last: *max,
        })
    }

    /// The protected layers (always one contiguous run).
    pub fn layers(&self) -> Vec<usize> {
        (self.first..=self.last).collect()
    }

    /// Converts into the equivalent GradSec static policy (for running
    /// the baseline through the same trainer).
    pub fn to_policy(&self) -> ProtectionPolicy {
        ProtectionPolicy::Static {
            layers: self.layers(),
        }
    }
}

/// The baseline schedules its contiguous hull every round, so DarkneTZ
/// runs through the identical federation path as GradSec in comparisons.
impl ProtectionScheduler for DarknetzPolicy {
    fn layers_for_round(&self, _round: u64) -> Vec<usize> {
        self.layers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_sorts_and_dedups() {
        let p = ProtectionPolicy::static_layers(&[4, 1, 4]).unwrap();
        assert_eq!(p.protected_for_round(9, 5), vec![1, 4]);
        assert!(ProtectionPolicy::static_layers(&[]).is_err());
    }

    #[test]
    fn validation_against_model_depth() {
        let p = ProtectionPolicy::static_layers(&[1, 4]).unwrap();
        assert!(p.validate(5).is_ok());
        assert!(p.validate(4).is_err());
        assert!(ProtectionPolicy::None.validate(0).is_ok());
        let w = MovingWindow::uniform(2, 5, 0).unwrap();
        let d = ProtectionPolicy::dynamic(w);
        assert!(d.validate(5).is_ok());
        assert!(d.validate(6).is_err());
    }

    #[test]
    fn dynamic_policy_moves() {
        let w = MovingWindow::uniform(2, 5, 3).unwrap();
        let p = ProtectionPolicy::dynamic(w);
        let sets: Vec<Vec<usize>> = (0..30).map(|r| p.protected_for_round(r, 5)).collect();
        assert!(sets.iter().all(|s| s.len() == 2));
        assert!(
            sets.windows(2).any(|w| w[0] != w[1]),
            "window should move across rounds"
        );
    }

    #[test]
    fn slices_decomposition() {
        assert_eq!(ProtectionPolicy::slices(&[1, 4]), vec![(1, 1), (4, 4)]);
        assert_eq!(ProtectionPolicy::slices(&[1, 2, 3]), vec![(1, 3)]);
        assert_eq!(
            ProtectionPolicy::slices(&[0, 1, 3, 4]),
            vec![(0, 1), (3, 4)]
        );
        assert_eq!(ProtectionPolicy::slices(&[]), vec![]);
    }

    #[test]
    fn darknetz_rejects_non_contiguous() {
        // The paper's central comparison: {L2, L5} is fine for GradSec,
        // impossible for DarkneTZ.
        assert!(ProtectionPolicy::static_layers(&[1, 4]).is_ok());
        let err = DarknetzPolicy::new(&[1, 4]).unwrap_err();
        assert!(matches!(err, GradSecError::NonContiguousSlice { .. }));
        assert!(DarknetzPolicy::new(&[1, 2, 3]).is_ok());
        assert!(DarknetzPolicy::new(&[]).is_err());
    }

    #[test]
    fn darknetz_covering_hull() {
        // To match GradSec's {L2, L5}, DarkneTZ must take L2..L5 — four
        // layers instead of two (Table 1, line 2 vs 3).
        let hull = DarknetzPolicy::covering(&[1, 4]).unwrap();
        assert_eq!(hull.layers(), vec![1, 2, 3, 4]);
        let p = hull.to_policy();
        assert_eq!(p.protected_for_round(0, 5), vec![1, 2, 3, 4]);
    }

    #[test]
    fn none_protects_nothing() {
        assert!(ProtectionPolicy::None.protected_for_round(5, 5).is_empty());
    }

    #[test]
    fn policies_schedule_the_federation() {
        // ProtectionScheduler draws agree with protected_for_round.
        let none = ProtectionPolicy::None;
        assert!(ProtectionScheduler::layers_for_round(&none, 3).is_empty());
        let stat = ProtectionPolicy::static_layers(&[4, 1]).unwrap();
        assert_eq!(ProtectionScheduler::layers_for_round(&stat, 9), vec![1, 4]);
        let dynamic = ProtectionPolicy::dynamic(MovingWindow::uniform(2, 5, 3).unwrap());
        for round in 0..20 {
            assert_eq!(
                ProtectionScheduler::layers_for_round(&dynamic, round),
                dynamic.protected_for_round(round, 5)
            );
        }
        let hull = DarknetzPolicy::covering(&[1, 4]).unwrap();
        assert_eq!(
            ProtectionScheduler::layers_for_round(&hull, 0),
            vec![1, 2, 3, 4]
        );
    }
}
