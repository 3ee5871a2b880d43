//! # gradsec-core
//!
//! GradSec itself — the paper's contribution (Middleware '22): selective,
//! enclave-backed protection of DNN layers during federated training.
//!
//! * [`policy`] — protection policies: [`ProtectionPolicy::Static`] may
//!   shelter **non-contiguous** layer sets (GradSec's key capability);
//!   [`policy::DarknetzPolicy`] reproduces the DarkneTZ baseline, which
//!   *rejects* non-contiguous sets; [`ProtectionPolicy::Dynamic`] drives
//!   the moving window.
//! * [`window`] — the moving window `MW` of §7.2: `size_MW` successive
//!   layers whose position is drawn per FL cycle from the probability
//!   vector `V_MW`.
//! * [`leakage`] — which gradients a normal-world attacker obtains under a
//!   policy, closing both flaws of §6 (weight-diff and backprop-flow).
//! * [`memory_model`] — per-layer TEE memory (`W, dW, A_{l−1}, Z_l, δ_l`)
//!   reproducing Table 6's memory column, and TCB comparisons.
//! * [`trainer`] — the secure trainer and its analytical estimator,
//!   re-exported from `gradsec-fl`, whose default trainer runs every
//!   cycle that protects a layer through it.
//! * [`search`] — the `V_MW` grid search of §8.2 (train attack instances,
//!   keep the distribution the attack handles worst).
//!
//! # Example
//!
//! ```
//! use gradsec_core::policy::ProtectionPolicy;
//!
//! // The paper's DRIA+MIA configuration: shelter L2 and L5 (1-based),
//! // i.e. layer indices 1 and 4 — non-contiguous, which DarkneTZ cannot do.
//! let policy = ProtectionPolicy::static_layers(&[1, 4]).unwrap();
//! assert_eq!(policy.protected_for_round(0, 5), vec![1, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod leakage;
pub mod memory_model;
pub mod policy;
pub mod search;
pub mod trainer;
pub mod window;

pub use error::GradSecError;
pub use policy::ProtectionPolicy;
pub use trainer::SecureTrainer;

/// Crate-wide result alias using [`GradSecError`].
pub(crate) type Result<T> = std::result::Result<T, GradSecError>;
