//! # gradsec-nn
//!
//! From-scratch convolutional neural-network framework — the Darknet
//! equivalent that the GradSec reproduction trains inside and outside the
//! simulated TrustZone enclave.
//!
//! The crate provides exactly what the paper's training pipeline needs:
//!
//! * [`layer`] — the [`Layer`](layer::Layer) trait with [`Conv2d`](layer::Conv2d)
//!   (optionally fused with 2×2 max pooling, the paper's `Conv2D+MP2`) and
//!   [`Dense`](layer::Dense) layers, each keeping the `A_{l−1}` it takes
//!   over so the backward pass can evaluate the paper's equations (3)–(4)
//!   with `f'_l` read off `A_l` — a training step holds each
//!   layer-boundary activation once,
//! * [`activation`] — ReLU/Sigmoid/Tanh/Linear with derivatives,
//! * [`loss`] — categorical cross-entropy over softmax (the paper's Loss) and
//!   MSE,
//! * [`optim`] — SGD (the FL client optimizer, eq. 1), Adam and L-BFGS (the
//!   optimizers the DRIA attacker uses),
//! * [`model`] — [`Sequential`] with per-batch training,
//!   gradient snapshots and weight import/export for federated learning,
//! * [`gradient`] — [`GradientSnapshot`](gradient::GradientSnapshot), the
//!   per-layer `(dW, db)` a training step produces,
//! * [`zoo`] — LeNet-5 and AlexNet exactly per the paper's Table 4.
//!
//! # Example
//!
//! ```
//! use gradsec_nn::zoo;
//!
//! let model = zoo::lenet5(42).unwrap();
//! assert_eq!(model.num_layers(), 5);
//! // L5 is the 768 -> 100 dense head from Table 4.
//! assert_eq!(model.layer(4).unwrap().param_count(), 768 * 100 + 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
mod error;
pub mod gradient;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod zoo;

pub use error::NnError;
pub use model::Sequential;
// Re-exported so layers-above (fl, bench) can select kernel backends
// without depending on gradsec-tensor directly.
pub use gradsec_tensor::BackendKind;

/// Crate-wide result alias using [`NnError`].
pub(crate) type Result<T> = std::result::Result<T, NnError>;
