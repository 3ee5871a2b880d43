//! # gradsec-tensor
//!
//! Dense `f32` tensor math substrate for the GradSec reproduction
//! (Middleware '22, *Shielding Federated Learning Systems against Inference
//! Attacks with ARM TrustZone*).
//!
//! The paper builds GradSec on top of DarkneTZ, which in turn builds on the
//! Darknet neural-network framework (plain C, dense float math). This crate
//! is the equivalent substrate, implemented from scratch:
//!
//! * [`Shape`] — row-major shapes with stride computation,
//! * [`Tensor`] — owned dense `f32` tensors with elementwise algebra,
//! * [`backend`] — pluggable kernel backends behind the [`TensorBackend`]
//!   trait: [`BackendKind::Reference`] (the bit-identical default) and
//!   [`BackendKind::Tiled`] (register-tiled GEMM micro-kernels with
//!   virtual-im2col convolutions and a runtime-dispatched AVX2+FMA path),
//! * [`ops::matmul`] — blocked and multi-threaded matrix products,
//! * [`ops::conv`] — im2col/col2im 2-D convolutions (forward and both
//!   backward passes), the workhorse of LeNet-5 and AlexNet,
//! * [`ops::pool`] — 2×2 max-pooling with argmax bookkeeping,
//! * [`init`] — seeded Xavier/He initialisers used by the NN crate.
//!
//! Everything is deterministic given a seed; no global RNG state is used.
//! Each backend is individually deterministic too: within one
//! [`BackendKind`], identical inputs produce bit-identical outputs on any
//! machine.
//!
//! # Example
//!
//! ```
//! use gradsec_tensor::{Tensor, ops::matmul};
//!
//! # fn main() -> Result<(), gradsec_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = matmul::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// `backend::tiled` AVX2 micro-kernel island, which opts back in with a
// scoped `#[allow(unsafe_code)]` and documents its safety contract.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod error;
pub mod init;
pub mod ops;
mod shape;
mod tensor;

pub use backend::{BackendKind, TensorBackend};
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias using [`TensorError`].
pub type Result<T> = std::result::Result<T, TensorError>;
