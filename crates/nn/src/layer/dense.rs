//! Fully-connected (dense) layer.

use gradsec_tensor::ops::matmul::{dense_forward_fused_with, matmul_tn_with, matmul_with};
use gradsec_tensor::{init, BackendKind, Tensor};

use crate::activation::Activation;
use crate::layer::{Layer, LayerKind};
use crate::{NnError, Result};

/// A dense layer `Z = A·Wᵀ + b` with weights stored `(outputs, inputs)`,
/// matching the Darknet convention.
///
/// Four-dimensional inputs (the output of a convolutional stack) are
/// flattened automatically; the backward pass restores the original shape
/// so convolutional layers below receive a correctly-shaped error tensor.
///
/// # Example
///
/// ```
/// use gradsec_nn::layer::{Dense, Layer};
/// use gradsec_nn::activation::Activation;
/// use gradsec_tensor::Tensor;
///
/// # fn main() -> Result<(), gradsec_nn::NnError> {
/// // LeNet-5 L5: 768 -> 100 (Table 4).
/// let mut l5 = Dense::new(768, 100, Activation::Linear, 1)?;
/// let x = Tensor::zeros(&[32, 12, 8, 8]); // flattens to (32, 768)
/// let y = l5.forward(&x)?;
/// assert_eq!(y.dims(), &[32, 100]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    inputs: usize,
    outputs: usize,
    act: Activation,
    backend: BackendKind,
    weights: Tensor,
    bias: Tensor,
    dw: Option<Tensor>,
    db: Option<Tensor>,
    cached_input: Option<Tensor>,
    cached_preact: Option<Tensor>,
    cached_input_dims: Option<Vec<usize>>,
}

impl Dense {
    /// Builds a dense layer with Xavier-uniform weight initialisation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when either dimension is zero.
    pub fn new(inputs: usize, outputs: usize, act: Activation, seed: u64) -> Result<Self> {
        if inputs == 0 || outputs == 0 {
            return Err(NnError::BadConfig {
                reason: format!("dense dims must be non-zero, got {inputs}->{outputs}"),
            });
        }
        let weights = init::xavier_uniform(&[outputs, inputs], inputs, outputs, seed);
        let bias = Tensor::zeros(&[outputs]);
        Ok(Dense {
            inputs,
            outputs,
            act,
            backend: BackendKind::default(),
            weights,
            bias,
            dw: None,
            db: None,
            cached_input: None,
            cached_preact: None,
            cached_input_dims: None,
        })
    }

    fn flatten_input(&self, input: &Tensor) -> Result<Tensor> {
        let n_elems = input.numel();
        if !n_elems.is_multiple_of(self.inputs) {
            return Err(NnError::BadInput {
                expected: vec![self.inputs],
                actual: input.dims().to_vec(),
            });
        }
        let batch = n_elems / self.inputs;
        // Reject inputs whose leading dim disagrees with the inferred batch
        // (e.g. (3, 5) into a 15-input layer would silently misgroup).
        if input.shape().ndim() >= 2 && input.dims()[0] != batch {
            return Err(NnError::BadInput {
                expected: vec![batch, self.inputs],
                actual: input.dims().to_vec(),
            });
        }
        Ok(input.reshape(&[batch, self.inputs])?)
    }

    /// Stores `dW_l`/`db_l` and returns `δ_l = upstream ∗ f'(Z_l)`,
    /// computed in one pass over the borrowed error.
    fn param_grads(&mut self, delta_out: &Tensor) -> Result<Tensor> {
        let (Some(input), Some(z)) = (&self.cached_input, &self.cached_preact) else {
            return Err(NnError::BackwardBeforeForward { layer: 0 });
        };
        let act = self.act;
        let delta_z = delta_out.zip_with(z, |d, z| d * act.derivative(z))?;
        // dW (out, in) = δᵀ (out, N) · A (N, in)  — eq. (3): δ_l · A_{l−1}.
        self.dw = Some(matmul_tn_with(&delta_z, input, self.backend)?);
        // db (out) = column sums of δ.
        let batch = delta_z.dims()[0];
        let mut db = Tensor::zeros(&[self.outputs]);
        for i in 0..batch {
            for j in 0..self.outputs {
                db.data_mut()[j] += delta_z.data()[i * self.outputs + j];
            }
        }
        self.db = Some(db);
        Ok(delta_z)
    }
}

impl Layer for Dense {
    fn kind(&self) -> LayerKind {
        LayerKind::Dense {
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }

    fn backend(&self) -> BackendKind {
        self.backend
    }

    fn set_backend(&mut self, backend: BackendKind) {
        self.backend = backend;
    }

    fn activation(&self) -> Activation {
        self.act
    }

    fn input_elems(&self) -> usize {
        self.inputs
    }

    fn output_elems(&self) -> usize {
        self.outputs
    }

    fn preact_elems(&self) -> usize {
        self.outputs
    }

    fn param_count(&self) -> usize {
        self.weights.numel() + self.bias.numel()
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let flat = self.flatten_input(input)?;
        // Z (N, out) = A (N, in) · Wᵀ + b and A = f(Z), in one fused
        // kernel call: Reference's default hook replays the
        // historical matmul → bias sweep → activation order
        // bit-for-bit, while Tiled seeds the bias and activates inside
        // its GEMM writeback.
        let (z, a) = dense_forward_fused_with(
            &flat,
            &self.weights,
            &self.bias,
            self.act.fused(),
            self.backend,
        )?;
        self.cached_input_dims = Some(input.dims().to_vec());
        self.cached_input = Some(flat);
        self.cached_preact = Some(z);
        Ok(a)
    }

    fn backward(&mut self, delta_out: &Tensor) -> Result<Tensor> {
        let delta_z = self.param_grads(delta_out)?;
        // dA_{l−1} (N, in) = δ (N, out) · W (out, in) — the W_{l+1}·δ_{l+1}
        // term that the *previous* layer consumes.
        let dinput = matmul_with(&delta_z, &self.weights, self.backend)?;
        // Restore the caller's original (possibly 4-D) input shape.
        match &self.cached_input_dims {
            Some(dims) if dims.len() != 2 => Ok(dinput.reshape(dims)?),
            _ => Ok(dinput),
        }
    }

    fn backward_params(&mut self, delta_out: &Tensor) -> Result<()> {
        self.param_grads(delta_out).map(drop)
    }

    fn weights(&self) -> (&Tensor, &Tensor) {
        (&self.weights, &self.bias)
    }

    fn weights_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.weights, &mut self.bias)
    }

    fn grads(&self) -> Option<(&Tensor, &Tensor)> {
        match (&self.dw, &self.db) {
            (Some(dw), Some(db)) => Some((dw, db)),
            _ => None,
        }
    }

    fn params_with_grads(&mut self) -> Option<[(&mut Tensor, &Tensor); 2]> {
        match (&self.dw, &self.db) {
            (Some(dw), Some(db)) => Some([(&mut self.weights, dw), (&mut self.bias, db)]),
            _ => None,
        }
    }

    fn zero_grads(&mut self) {
        self.dw = None;
        self.db = None;
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
        self.cached_preact = None;
        self.cached_input_dims = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_tensor::init;

    #[test]
    fn rejects_zero_dims() {
        assert!(Dense::new(0, 5, Activation::Linear, 1).is_err());
        assert!(Dense::new(5, 0, Activation::Linear, 1).is_err());
    }

    #[test]
    fn forward_shapes_and_flattening() {
        let mut l = Dense::new(12, 4, Activation::Relu, 1).unwrap();
        let x2d = init::uniform(&[3, 12], -1.0, 1.0, 2);
        assert_eq!(l.forward(&x2d).unwrap().dims(), &[3, 4]);
        let x4d = init::uniform(&[3, 3, 2, 2], -1.0, 1.0, 3);
        assert_eq!(l.forward(&x4d).unwrap().dims(), &[3, 4]);
        // Backward restores the 4-D shape.
        let delta = Tensor::ones(&[3, 4]);
        assert_eq!(l.backward(&delta).unwrap().dims(), &[3, 3, 2, 2]);
    }

    #[test]
    fn rejects_misaligned_input() {
        let mut l = Dense::new(15, 2, Activation::Linear, 1).unwrap();
        // 3*5 = 15 elements but leading dim 3 disagrees with inferred batch 1.
        let x = Tensor::zeros(&[3, 5]);
        assert!(l.forward(&x).is_err());
        // 16 elements is not a multiple of 15.
        assert!(l.forward(&Tensor::zeros(&[16])).is_err());
    }

    #[test]
    fn known_linear_map() {
        let mut l = Dense::new(2, 2, Activation::Linear, 1).unwrap();
        {
            let (w, b) = l.weights_mut();
            w.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // rows = outputs
            b.data_mut().copy_from_slice(&[10.0, 20.0]);
        }
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.data(), &[13.0, 27.0]);
    }

    #[test]
    fn gradient_check() {
        let mut l = Dense::new(6, 3, Activation::Sigmoid, 21).unwrap();
        let x = init::uniform(&[2, 6], -1.0, 1.0, 22);
        let out = l.forward(&x).unwrap();
        let delta = Tensor::ones(out.dims());
        let dinput = l.backward(&delta).unwrap();
        let dw = l.grads().unwrap().0.clone();
        let db = l.grads().unwrap().1.clone();
        let eps = 1e-3f32;
        let loss = |l: &mut Dense, x: &Tensor| -> f32 { l.forward(x).unwrap().data().iter().sum() };
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            assert!((num - dinput.data()[i]).abs() < 0.02);
        }
        for i in 0..dw.numel() {
            let orig = l.weights().0.data()[i];
            l.weights_mut().0.data_mut()[i] = orig + eps;
            let up = loss(&mut l, &x);
            l.weights_mut().0.data_mut()[i] = orig - eps;
            let down = loss(&mut l, &x);
            l.weights_mut().0.data_mut()[i] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 0.02);
        }
        for i in 0..db.numel() {
            let orig = l.weights().1.data()[i];
            l.weights_mut().1.data_mut()[i] = orig + eps;
            let up = loss(&mut l, &x);
            l.weights_mut().1.data_mut()[i] = orig - eps;
            let down = loss(&mut l, &x);
            l.weights_mut().1.data_mut()[i] = orig;
            let num = (up - down) / (2.0 * eps);
            assert!((num - db.data()[i]).abs() < 0.02);
        }
    }

    #[test]
    fn backward_params_stores_the_gradients_backward_stores() {
        for backend in BackendKind::ALL {
            let mut l = Dense::new(20, 7, Activation::Sigmoid, 21).unwrap();
            l.set_backend(backend);
            let x = init::uniform(&[5, 20], -1.0, 1.0, 22);
            let delta = init::uniform(l.forward(&x).unwrap().dims(), -1.0, 1.0, 23);
            l.backward(&delta).unwrap();
            let full = l.grads().map(|(dw, db)| (dw.clone(), db.clone())).unwrap();
            l.zero_grads();
            l.backward_params(&delta).unwrap();
            let (dw, db) = l.grads().unwrap();
            let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(dw), bits(&full.0), "{backend} dW");
            assert_eq!(bits(db), bits(&full.1), "{backend} db");
        }
    }

    #[test]
    fn footprint_accessors() {
        let l = Dense::new(768, 100, Activation::Linear, 1).unwrap();
        assert_eq!(l.input_elems(), 768);
        assert_eq!(l.output_elems(), 100);
        assert_eq!(l.preact_elems(), 100);
        assert_eq!(l.param_count(), 76_900);
        assert!(l.kind().is_dense());
    }

    #[test]
    fn backward_before_forward() {
        let mut l = Dense::new(4, 2, Activation::Linear, 1).unwrap();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }
}
