//! # GradSec
//!
//! Facade crate for the GradSec reproduction — *Shielding Federated
//! Learning Systems against Inference Attacks with ARM TrustZone*
//! (Ait Messaoud, Ben Mokhtar, Nitu, Schiavoni — Middleware 2022).
//!
//! This crate re-exports the workspace's building blocks under one roof:
//!
//! * [`tensor`] — dense `f32` math substrate,
//! * [`nn`] — CNN framework (LeNet-5 / AlexNet per the paper's Table 4),
//! * [`tee`] — simulated ARM TrustZone / OP-TEE (worlds, secure memory,
//!   trusted applications, attestation, cost model),
//! * [`data`] — synthetic CIFAR-100-like and LFW-like datasets,
//! * [`fl`] — federated-learning server/clients with TEE-aware selection,
//! * [`attacks`] — DRIA, MIA and DPIA client-side inference attacks,
//! * [`core`] — GradSec itself: protection policies, leakage model,
//!   moving-window scheduler and the secure trainer.
//!
//! See `README.md` for a quickstart and the architecture notes on the
//! protection scheduler, the parallel round engine and the round ledger.

pub use gradsec_attacks as attacks;
pub use gradsec_core as core;
pub use gradsec_data as data;
pub use gradsec_fl as fl;
pub use gradsec_nn as nn;
pub use gradsec_tee as tee;
pub use gradsec_tensor as tensor;
