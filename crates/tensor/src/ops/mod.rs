//! Tensor operation dispatchers.
//!
//! Ops are grouped by family:
//!
//! * [`matmul`] — blocked and multi-threaded matrix products,
//! * [`conv`] — im2col/col2im 2-D convolution (forward + both backwards),
//! * [`pool`] — 2×2 max pooling with argmax bookkeeping,
//! * [`elementwise`] — Hadamard products, axpy, scaling,
//! * [`reduce`] — sums, means, argmax, row softmax,
//! * [`threads`] — the one thread budget banded ops and their callers share.
//!
//! Each module validates shapes, allocates outputs and handles thread
//! banding, then dispatches the innermost loops to a
//! [`TensorBackend`](crate::backend::TensorBackend): the plain functions
//! use the bit-identical-to-seed
//! [`BackendKind::Reference`](crate::backend::BackendKind) kernels, the
//! `*_with` variants take any [`crate::backend::BackendKind`].

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod pool;
pub mod reduce;
pub mod threads;
