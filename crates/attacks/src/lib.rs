//! # gradsec-attacks
//!
//! The three state-of-the-art client-side inference attacks the paper
//! evaluates GradSec against (§3.2), plus the attack-model machinery they
//! need:
//!
//! * [`dria`] — **Data-Reconstruction Inference Attack** (Zhu et al.'s
//!   deep leakage from gradients): reconstructs a training image by
//!   matching the gradients of a dummy input to the leaked ones, via
//!   Adam or L-BFGS.
//! * [`mia`] — **Membership Inference Attack** (Nasr et al.): a binary
//!   classifier over per-sample gradient features distinguishes training
//!   members from non-members.
//! * [`dpia`] — **Data-Property Inference Attack** (Melis et al.): a
//!   random forest over *aggregated* gradients across FL cycles infers a
//!   private property of the victim's data.
//! * [`dgrad`] — the attacker's gradient dataset `D_grad`, including the
//!   paper's enclave semantics: "we simply delete from `D_grad` all the
//!   gradients columns relative to a protected layer" (§8.1), with
//!   mean-imputation of missing columns (§8.2).
//! * `classifier` — from-scratch logistic regression, CART decision
//!   trees and random forests (the paper's DPIA attack model).
//! * [`metrics`] — AUC (the paper's attack-success measure) and ImageLoss.
//!
//! Every attack takes an explicit list of *protected layers* so the
//! GradSec policies in `gradsec-core` can be evaluated directly against
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod classifier;
pub mod dgrad;
pub mod dpia;
pub mod dria;
mod error;
pub mod features;
pub mod metrics;
pub mod mia;

pub use error::AttackError;

/// Crate-wide result alias using [`AttackError`].
pub(crate) type Result<T> = std::result::Result<T, AttackError>;
