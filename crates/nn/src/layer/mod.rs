//! Network layers.
//!
//! Each layer caches its input `A_{l−1}` and pre-activation `Z_l` during
//! [`Layer::forward`] so that [`Layer::backward`] can evaluate the paper's
//! backpropagation equations (3)–(4) and expose `dW_l`/`db_l`.
//!
//! The caches are exactly the tensors GradSec moves into the enclave when a
//! layer is protected — see the `gradsec-core` crate's memory model, which
//! calls [`Layer::input_elems`] / [`Layer::output_elems`] /
//! [`Layer::param_count`] to size the secure allocations.

mod conv2d;
mod dense;

pub use conv2d::Conv2d;
pub use dense::Dense;

use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::Result;
use gradsec_tensor::{BackendKind, Tensor};

/// Static description of a layer's type and geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution, optionally fused with 2×2/2 max pooling
    /// (the paper's `Conv2D+MP2`).
    Conv2d {
        /// Output filter count.
        filters: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Whether an `MP2` max-pool follows the activation.
        maxpool: bool,
    },
    /// Fully-connected layer.
    Dense {
        /// Input feature count.
        inputs: usize,
        /// Output feature count (neurons).
        outputs: usize,
    },
}

impl LayerKind {
    /// `true` for convolutional layers.
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerKind::Conv2d { .. })
    }

    /// `true` for dense (fully-connected) layers.
    pub fn is_dense(&self) -> bool {
        matches!(self, LayerKind::Dense { .. })
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayerKind::Conv2d {
                filters,
                kernel,
                stride,
                pad,
                maxpool,
            } => {
                write!(f, "Conv2D({filters} f, {kernel}x{kernel}/{stride}/{pad})")?;
                if *maxpool {
                    write!(f, "+MP2")?;
                }
                Ok(())
            }
            LayerKind::Dense { inputs, outputs } => write!(f, "Dense({inputs}->{outputs})"),
        }
    }
}

/// A trainable network layer.
///
/// Layers are stateful: [`Layer::forward`] caches whatever the backward pass
/// needs (`A_{l−1}`, `Z_l`, pooling argmaxes) and [`Layer::backward`]
/// produces the parameter gradients retrievable via [`Layer::grads`] while
/// returning `∂Loss/∂A_{l−1}` for the preceding layer.
pub trait Layer: Send {
    /// Static description of the layer.
    fn kind(&self) -> LayerKind;

    /// The tensor kernel backend every forward/backward pass of this
    /// layer dispatches through ([`BackendKind::Reference`] unless
    /// changed with [`Layer::set_backend`]).
    fn backend(&self) -> BackendKind;

    /// Points the layer at a different kernel backend. Weights, caches
    /// and gradients are untouched — only the kernels future passes use
    /// change. [`Layer::clone_box`] (and therefore
    /// [`crate::Sequential::replicate`]) carries the selection into every
    /// replica, which is how one federation-level choice reaches every
    /// per-client and per-worker model copy.
    fn set_backend(&mut self, backend: BackendKind);

    /// The activation function applied after the linear part.
    fn activation(&self) -> Activation;

    /// Per-sample input element count `|A_{l−1}|`.
    fn input_elems(&self) -> usize;

    /// Per-sample output element count `|A_l|` (after pooling, if fused).
    fn output_elems(&self) -> usize;

    /// Per-sample pre-activation element count `|Z_l|` (before pooling).
    fn preact_elems(&self) -> usize;

    /// Number of trainable parameters (weights + biases).
    fn param_count(&self) -> usize;

    /// Runs the forward pass over a batch, caching backward state.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape disagrees with the layer
    /// geometry.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Runs the backward pass given `∂Loss/∂A_l`, returning `∂Loss/∂A_{l−1}`
    /// and storing the parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no forward
    /// cache exists, or shape errors when `delta_out` is inconsistent.
    fn backward(&mut self, delta_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for a caller that will not read
    /// `∂Loss/∂A_{l−1}` (layer 0 of a model in training): stores the same
    /// parameter gradients, bit for bit, and fails the same way. Layers
    /// override it to skip the input-gradient arithmetic.
    fn backward_params(&mut self, delta_out: &Tensor) -> Result<()> {
        self.backward(delta_out).map(drop)
    }

    /// Returns `(W, b)`.
    fn weights(&self) -> (&Tensor, &Tensor);

    /// Returns `(W, b)` mutably (used by optimizers and FL weight loads).
    fn weights_mut(&mut self) -> (&mut Tensor, &mut Tensor);

    /// Returns `(dW, db)` if a backward pass has run since the last
    /// [`Layer::zero_grads`].
    fn grads(&self) -> Option<(&Tensor, &Tensor)>;

    /// Pairs each parameter tensor, mutably, with its stored gradient —
    /// `[(W, dW), (b, db)]` out of one borrow of the layer, so an optimizer
    /// reads the gradients in place while it updates the parameters.
    /// `None` exactly when [`Layer::grads`] is.
    fn params_with_grads(&mut self) -> Option<[(&mut Tensor, &Tensor); 2]>;

    /// Clears stored gradients.
    fn zero_grads(&mut self);

    /// Drops the forward caches (frees activation memory between cycles).
    fn clear_cache(&mut self);

    /// Deep-copies the layer into a fresh box — the mechanism behind
    /// [`crate::Sequential::replicate`], which hands every FL client /
    /// engine worker its own replica of a prototype model.
    fn clone_box(&self) -> Box<dyn Layer>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        let c = LayerKind::Conv2d {
            filters: 12,
            kernel: 5,
            stride: 2,
            pad: 2,
            maxpool: false,
        };
        assert_eq!(c.to_string(), "Conv2D(12 f, 5x5/2/2)");
        assert!(c.is_conv());
        let cm = LayerKind::Conv2d {
            filters: 64,
            kernel: 3,
            stride: 2,
            pad: 1,
            maxpool: true,
        };
        assert!(cm.to_string().ends_with("+MP2"));
        let d = LayerKind::Dense {
            inputs: 768,
            outputs: 100,
        };
        assert_eq!(d.to_string(), "Dense(768->100)");
        assert!(d.is_dense());
        assert!(!d.is_conv());
    }
}
