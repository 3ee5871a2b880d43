//! Activation functions `f_l` and their derivatives `f'_l`.
//!
//! The backpropagation formulas of the paper (eqs. 3–4) require each layer
//! to evaluate `f'_l(Z_l)` during the backward pass; every variant here is
//! therefore paired with its exact derivative. The layers read it off
//! their output `A_l = f_l(Z_l)` instead
//! ([`Activation::derivative_from_output`]), which every variant here
//! allows bit for bit, so no layer keeps `Z_l`.

/// An elementwise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity: `f(z) = z` (used for logits feeding the softmax loss).
    #[default]
    Linear,
    /// Rectified linear unit: `f(z) = max(0, z)`.
    Relu,
    /// Logistic sigmoid: `f(z) = 1/(1+e^{−z})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, z: f32) -> f32 {
        match self {
            Activation::Linear => z,
            Activation::Relu => z.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
            Activation::Tanh => z.tanh(),
        }
    }

    /// Evaluates the derivative `f'(z)` at a pre-activation value `z`.
    pub fn derivative(self, z: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-z).exp());
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
        }
    }

    /// Evaluates the derivative `f'(z)` from the activation's output
    /// `a = f(z)` alone: `1` (Linear), `a > 0` (ReLU), `a·(1−a)`
    /// (Sigmoid), `1 − a²` (Tanh).
    ///
    /// Bit-equal to [`Activation::derivative`] at `z` on every f32 input,
    /// NaN and infinities included, whenever `a` is [`Activation::apply`]
    /// at `z` — as every fused kernel's output is (see
    /// [`Activation::fused`]): ReLU's `z > 0` holds exactly when
    /// `max(z, 0) > 0`, and the Sigmoid and Tanh derivatives recompute
    /// `f(z)` with `apply`'s formula before the same arithmetic.
    pub fn derivative_from_output(self, a: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Tanh => 1.0 - a * a,
        }
    }

    /// The tensor-backend fused-kernel counterpart of this activation.
    ///
    /// The [`FusedActivation`](gradsec_tensor::backend::FusedActivation)
    /// formulas are kept textually identical to [`Activation::apply`],
    /// so a fused forward pass is bit-identical to `forward` followed by
    /// `apply` on every element, on backends that replay the unfused op
    /// order.
    pub fn fused(self) -> gradsec_tensor::backend::FusedActivation {
        use gradsec_tensor::backend::FusedActivation;
        match self {
            Activation::Linear => FusedActivation::Identity,
            Activation::Relu => FusedActivation::Relu,
            Activation::Sigmoid => FusedActivation::Sigmoid,
            Activation::Tanh => FusedActivation::Tanh,
        }
    }

    /// Short human-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Activation::Linear => "linear",
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 4] = [
        Activation::Linear,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Linear.apply(-3.5), -3.5);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in ACTS {
            for &z in &[-2.0f32, -0.5, 0.3, 1.7] {
                let num = (act.apply(z + eps) - act.apply(z - eps)) / (2.0 * eps);
                let ana = act.derivative(z);
                assert!(
                    (num - ana).abs() < 1e-2,
                    "{act}: f'({z}) numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_is_a_step() {
        assert_eq!(Activation::Relu.derivative(-0.1), 0.0);
        assert_eq!(Activation::Relu.derivative(0.1), 1.0);
    }

    #[test]
    fn fused_counterparts_agree_bitwise_with_scalar_apply() {
        for act in ACTS {
            let fused = act.fused();
            for &z in &[-50.0f32, -2.0, -0.5, 0.0, 0.3, 1.7, 50.0] {
                assert_eq!(
                    fused.apply(z).to_bits(),
                    act.apply(z).to_bits(),
                    "{act}: fused kernel formula drifted at z={z}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_outputs_in_unit_interval() {
        for &z in &[-50.0f32, -1.0, 0.0, 1.0, 50.0] {
            let s = Activation::Sigmoid.apply(z);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
