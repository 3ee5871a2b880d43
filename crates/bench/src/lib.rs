//! # gradsec-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§8), plus shared infrastructure — the [`gate`] that
//! `repro_gates` and the integration tests judge every deployment of one
//! fleet with, the seeded deployment [`matrix`] built on it, and the
//! [`env`] parser behind the harness's `GRADSEC_*` switches.
//!
//! Every experiment honours the `GRADSEC_FULL=1` environment variable:
//! the default *quick* profile shrinks datasets/iterations so the whole
//! suite completes in minutes; the *full* profile runs the paper-scale
//! configurations.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | `repro-table1` |
//! | Figure 5 | [`experiments::fig5`] | `repro-fig5` |
//! | Figure 6 | [`experiments::fig6`] | `repro-fig6` |
//! | Table 5 | [`experiments::table5`] | `repro-table5` |
//! | Table 6 | [`experiments::table6`] | `repro-table6` |
//! | Figure 7 | [`experiments::fig7`] | `repro-fig7` |
//! | Figure 8 | [`experiments::fig8`] | `repro-fig8` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod gate;
pub mod kernels;
pub mod matrix;
pub mod table;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Minutes-scale defaults.
    Quick,
    /// Paper-scale configurations (`GRADSEC_FULL=1`).
    Full,
}

impl Profile {
    /// Reads the profile from the environment (`GRADSEC_FULL`, an
    /// [`env::flag`]).
    pub fn from_env() -> Self {
        if env::flag("GRADSEC_FULL") {
            Profile::Full
        } else {
            Profile::Quick
        }
    }

    /// `true` for the full profile.
    pub fn is_full(self) -> bool {
        matches!(self, Profile::Full)
    }
}

/// The master seed used by every experiment (override with
/// `GRADSEC_SEED`).
pub fn master_seed() -> u64 {
    env::u64("GRADSEC_SEED", 42)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_default_is_quick() {
        // The test environment does not set GRADSEC_FULL.
        if std::env::var("GRADSEC_FULL").is_err() {
            assert_eq!(Profile::from_env(), Profile::Quick);
            assert!(!Profile::from_env().is_full());
        }
    }

    #[test]
    fn seed_default() {
        if std::env::var("GRADSEC_SEED").is_err() {
            assert_eq!(master_seed(), 42);
        }
    }
}
