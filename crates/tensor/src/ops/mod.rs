//! Tensor operation dispatchers.
//!
//! Ops are grouped by family:
//!
//! * [`matmul`] — blocked and multi-threaded matrix products,
//! * [`conv`] — im2col/col2im 2-D convolution (forward + both backwards),
//! * [`pool`] — 2×2 max pooling with argmax bookkeeping,
//! * [`reduce`] — row argmax and row softmax,
//! * [`threads`] — the one thread budget banded ops and their callers share.
//!
//! The kernel families (`matmul`, `conv`, `pool`) validate shapes,
//! allocate outputs and handle thread banding, then dispatch the
//! innermost loops to the [`TensorBackend`](crate::backend::TensorBackend)
//! of the [`BackendKind`](crate::backend::BackendKind) their `*_with`
//! entry points take.

pub mod conv;
pub mod matmul;
pub mod pool;
pub mod reduce;
pub mod threads;
