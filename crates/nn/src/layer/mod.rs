//! Network layers.
//!
//! A training step holds each layer-boundary activation once. A layer
//! takes its input `A_{l−1}` over in [`Layer::forward`] and keeps it; its
//! output `A_l` moves on as the next layer's input, and the last layer's
//! is the model's logits, which [`crate::Sequential`] keeps. No layer
//! keeps its pre-activation `Z_l`: [`Layer::backward`] reads `f'_l` off
//! `A_l`, which its caller passes back in
//! ([`Activation::derivative_from_output`], bit-equal to `f'_l(Z_l)`),
//! and writes `δ_l = ∂Loss/∂A_l ∗ f'_l` over the upstream error it takes
//! over, the Hadamard term of the paper's equation (4), before it stores
//! `dW_l`/`db_l` (equation (3)). A pooled convolution keeps its pre-pool
//! `A_l` and the pool's argmaxes, because its successor holds only the
//! pooled output.
//!
//! Those are this host's buffers, not the enclave's bill. A protected
//! layer's secure allocation follows the paper — `W_l`, `dW_l`,
//! `A_{l−1}`, `Z_l` and `δ_l` — and the `gradsec-core` crate's memory
//! model sizes it from [`Layer::input_elems`] / [`Layer::preact_elems`] /
//! [`Layer::param_count`], whatever this crate keeps.

mod conv2d;
mod dense;

pub use conv2d::Conv2d;
pub use dense::Dense;

use crate::activation::Activation;
use crate::Result;
use gradsec_tensor::{BackendKind, Tensor, TensorError};

/// Static description of a layer's type and geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
/// Layers are stateful: [`Layer::forward`] keeps whatever the backward
/// pass needs besides the layer's own output (`A_{l−1}`, and a pooled
/// layer's pre-pool activation and argmaxes), and [`Layer::backward`]
/// produces the parameter gradients retrievable via [`Layer::grads`]
/// while returning `∂Loss/∂A_{l−1}` for the preceding layer.
pub trait Layer: Send {
    /// Static description of the layer.
    fn kind(&self) -> LayerKind;

    /// The tensor kernel backend every forward/backward pass of this
    /// layer dispatches through ([`BackendKind::Reference`] unless
    /// changed with [`Layer::set_backend`]).
    fn backend(&self) -> BackendKind;

    /// Points the layer at a different kernel backend. Weights, caches
    /// and gradients are untouched — only the kernels future passes use
    /// change. [`Layer::replicate`] (and therefore
    /// [`crate::Sequential::replicate`]) carries the selection into every
    /// replica, which is how one federation-level choice reaches every
    /// model a client trains.
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

    /// Runs the forward pass over a batch it takes over and keeps as
    /// `A_{l−1}`, returning `A_l` — which the caller hands back to
    /// [`Layer::backward`] (a model moves it on as the next layer's
    /// input meanwhile).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape disagrees with the layer
    /// geometry.
    fn forward(&mut self, input: Tensor) -> Result<Tensor>;

    /// Runs the backward pass given `∂Loss/∂A_l`, returning
    /// `∂Loss/∂A_{l−1}` and storing the parameter gradients. `output` is
    /// the `A_l` the last [`Layer::forward`] returned, which `f'_l` is
    /// read off (a pooled convolution reads its own pre-pool activation
    /// instead); the upstream error is taken over and overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no forward
    /// cache exists, or shape errors when `delta_out` or `output` is
    /// inconsistent.
    fn backward(&mut self, delta_out: Tensor, output: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for a caller that will not read
    /// `∂Loss/∂A_{l−1}` (layer 0 of a model in training): stores the same
    /// parameter gradients, bit for bit, and fails the same way. Layers
    /// override it to skip the input-gradient arithmetic.
    fn backward_params(&mut self, delta_out: Tensor, output: &Tensor) -> Result<()> {
        self.backward(delta_out, output).map(drop)
    }

    /// The input the last [`Layer::forward`] kept, `A_{l−1}` — the
    /// preceding layer's output — or `None` before any forward pass or
    /// after [`Layer::clear_cache`].
    fn input(&self) -> Option<&Tensor>;

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

    /// A fresh boxed layer with this one's geometry, activation, backend
    /// and weights, and no caches or gradients — the mechanism behind
    /// [`crate::Sequential::replicate`], which builds the replicas of a
    /// prototype model that FL clients train.
    fn replicate(&self) -> Box<dyn Layer>;
}

/// Writes `δ_l = upstream ∗ f'(A_l)` over the upstream error a backward
/// pass owns, reading `f'` off the layer's output `A_l`: bit-equal to
/// multiplying by `f'(Z_l)` (see [`Activation::derivative_from_output`]).
///
/// # Errors
///
/// Returns a shape error when `delta` and `output` differ in shape.
fn scale_by_derivative(delta: &mut Tensor, act: Activation, output: &Tensor) -> Result<()> {
    if delta.dims() != output.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "backward",
            lhs: delta.dims().to_vec(),
            rhs: output.dims().to_vec(),
        }
        .into());
    }
    for (d, &a) in delta.data_mut().iter_mut().zip(output.data()) {
        *d *= act.derivative_from_output(a);
    }
    Ok(())
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
    }
}
