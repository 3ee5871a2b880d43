//! 2-D convolutional layer, optionally fused with `MP2` max pooling.

use gradsec_tensor::ops::conv::{
    conv2d_backward_params_with, conv2d_backward_with, conv2d_forward_fused_with, Conv2dGeometry,
};
use gradsec_tensor::ops::pool::{maxpool_backward_with, maxpool_forward_with, PoolGeometry};
use gradsec_tensor::{init, BackendKind, Tensor};

use crate::activation::Activation;
use crate::layer::{Layer, LayerKind};
use crate::{NnError, Result};

/// A convolutional layer `Z = W ⊛ A + b`, followed by an activation and an
/// optional fused 2×2/2 max pool (the paper's `Conv2D+MP2` rows in Table 4).
///
/// Weights are stored as an `(F, C·K·K)` matrix, biases as `(F)`.
///
/// # Example
///
/// ```
/// use gradsec_nn::layer::{Conv2d, Layer};
/// use gradsec_nn::activation::Activation;
/// use gradsec_tensor::Tensor;
///
/// # fn main() -> Result<(), gradsec_nn::NnError> {
/// // LeNet-5 L1: 32x32x3 -> 16x16x12 (Table 4).
/// let mut l1 = Conv2d::new(3, 32, 32, 12, 5, 2, 2, Activation::Relu, false, 1)?;
/// let x = Tensor::zeros(&[2, 3, 32, 32]);
/// let y = l1.forward(&x)?;
/// assert_eq!(y.dims(), &[2, 12, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    geo: Conv2dGeometry,
    pool: Option<PoolGeometry>,
    act: Activation,
    backend: BackendKind,
    weights: Tensor,
    bias: Tensor,
    dw: Option<Tensor>,
    db: Option<Tensor>,
    cached_input: Option<Tensor>,
    cached_preact: Option<Tensor>,
    cached_argmax: Option<Vec<u32>>,
}

impl Conv2d {
    /// Builds a convolutional layer with He-normal weight initialisation.
    ///
    /// `maxpool` fuses a 2×2/2 max pool after the activation.
    ///
    /// # Errors
    ///
    /// Returns geometry errors when the kernel/stride/pad combination is
    /// impossible for the declared input size.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        act: Activation,
        maxpool: bool,
        seed: u64,
    ) -> Result<Self> {
        let geo = Conv2dGeometry::new(in_channels, in_h, in_w, filters, kernel, stride, pad)?;
        let pool = if maxpool {
            Some(PoolGeometry::mp2(filters, geo.out_h, geo.out_w)?)
        } else {
            None
        };
        let fan_in = in_channels * kernel * kernel;
        let weights = init::he_normal(&[filters, fan_in], fan_in, seed);
        let bias = Tensor::zeros(&[filters]);
        Ok(Conv2d {
            geo,
            pool,
            act,
            backend: BackendKind::default(),
            weights,
            bias,
            dw: None,
            db: None,
            cached_input: None,
            cached_preact: None,
            cached_argmax: None,
        })
    }

    /// The convolution geometry (useful for chaining layer shapes).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    /// Per-sample output spatial dims after the optional pool: `(C, H, W)`.
    pub fn output_dims(&self) -> (usize, usize, usize) {
        match &self.pool {
            Some(p) => (self.geo.out_channels, p.out_h, p.out_w),
            None => (self.geo.out_channels, self.geo.out_h, self.geo.out_w),
        }
    }

    /// The backward pass's operands: the cached `A_{l−1}` and
    /// `δ_l = (un-pooled upstream error) ∗ f'(Z_l)` — the Hadamard term of
    /// eq. (4) — computed in one pass over the borrowed error.
    fn backward_operands(&self, delta_out: &Tensor) -> Result<(&Tensor, Tensor)> {
        let not_run = NnError::BackwardBeforeForward { layer: 0 };
        let (Some(input), Some(z)) = (&self.cached_input, &self.cached_preact) else {
            return Err(not_run);
        };
        let unpooled = match &self.pool {
            Some(p) => {
                let argmax = self.cached_argmax.as_ref().ok_or(not_run)?;
                Some(maxpool_backward_with(delta_out, argmax, p, self.backend)?)
            }
            None => None,
        };
        let act = self.act;
        let delta_z = unpooled
            .as_ref()
            .unwrap_or(delta_out)
            .zip_with(z, |d, z| d * act.derivative(z))?;
        Ok((input, delta_z))
    }
}

impl Layer for Conv2d {
    fn kind(&self) -> LayerKind {
        LayerKind::Conv2d {
            filters: self.geo.out_channels,
            kernel: self.geo.kernel,
            stride: self.geo.stride,
            pad: self.geo.pad,
            maxpool: self.pool.is_some(),
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
        self.geo.in_len()
    }

    fn output_elems(&self) -> usize {
        let (c, h, w) = self.output_dims();
        c * h * w
    }

    fn preact_elems(&self) -> usize {
        self.geo.out_len()
    }

    fn param_count(&self) -> usize {
        self.weights.numel() + self.bias.numel()
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        // One fused kernel call computes Z and A = f(Z) together: the
        // Reference/Blocked defaults replay the historical unfused op
        // order bit-for-bit, while Tiled applies the activation inside
        // its GEMM writeback instead of re-walking the output.
        let (z, a) = conv2d_forward_fused_with(
            input,
            &self.weights,
            &self.bias,
            &self.geo,
            self.act.fused(),
            self.backend,
        )?;
        self.cached_input = Some(input.clone());
        self.cached_preact = Some(z);
        match &self.pool {
            Some(p) => {
                let (pooled, argmax) = maxpool_forward_with(&a, p, self.backend)?;
                self.cached_argmax = Some(argmax);
                Ok(pooled)
            }
            None => {
                self.cached_argmax = None;
                Ok(a)
            }
        }
    }

    fn backward(&mut self, delta_out: &Tensor) -> Result<Tensor> {
        let (input, delta_z) = self.backward_operands(delta_out)?;
        let (dw, db, dinput) =
            conv2d_backward_with(input, &self.weights, &delta_z, &self.geo, self.backend)?;
        (self.dw, self.db) = (Some(dw), Some(db));
        Ok(dinput)
    }

    fn backward_params(&mut self, delta_out: &Tensor) -> Result<()> {
        let (input, delta_z) = self.backward_operands(delta_out)?;
        let (dw, db) =
            conv2d_backward_params_with(input, &self.weights, &delta_z, &self.geo, self.backend)?;
        (self.dw, self.db) = (Some(dw), Some(db));
        Ok(())
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
        self.cached_argmax = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_tensor::init;

    fn small_layer(maxpool: bool) -> Conv2d {
        Conv2d::new(2, 6, 6, 3, 3, 1, 1, Activation::Relu, maxpool, 7).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let mut plain = small_layer(false);
        let x = init::uniform(&[4, 2, 6, 6], -1.0, 1.0, 1);
        assert_eq!(plain.forward(&x).unwrap().dims(), &[4, 3, 6, 6]);
        let mut pooled = small_layer(true);
        assert_eq!(pooled.forward(&x).unwrap().dims(), &[4, 3, 3, 3]);
    }

    #[test]
    fn footprints() {
        let l = small_layer(true);
        assert_eq!(l.input_elems(), 2 * 6 * 6);
        assert_eq!(l.preact_elems(), 3 * 6 * 6);
        assert_eq!(l.output_elems(), 3 * 3 * 3);
        assert_eq!(l.param_count(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = small_layer(false);
        let delta = Tensor::zeros(&[1, 3, 6, 6]);
        assert!(matches!(
            l.backward(&delta),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn relu_masks_backward_flow() {
        // With all-negative pre-activations and ReLU, gradients must vanish.
        let mut l = Conv2d::new(1, 3, 3, 1, 1, 1, 0, Activation::Relu, false, 3).unwrap();
        {
            let (w, b) = l.weights_mut();
            w.data_mut().fill(1.0);
            b.data_mut().fill(-100.0); // force z < 0 everywhere
        }
        let x = init::uniform(&[1, 1, 3, 3], 0.0, 1.0, 5);
        let _ = l.forward(&x).unwrap();
        let delta = Tensor::ones(&[1, 1, 3, 3]);
        let dinput = l.backward(&delta).unwrap();
        assert!(dinput.data().iter().all(|&g| g == 0.0));
        let (dw, db) = l.grads().unwrap();
        assert!(dw.data().iter().all(|&g| g == 0.0));
        assert!(db.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradient_check_full_layer() {
        // End-to-end finite differences through conv + tanh (+ pool).
        for maxpool in [false, true] {
            let mut l = Conv2d::new(1, 4, 4, 2, 3, 1, 1, Activation::Tanh, maxpool, 11).unwrap();
            let x = init::uniform(&[1, 1, 4, 4], -1.0, 1.0, 12);
            let out = l.forward(&x).unwrap();
            let delta = Tensor::ones(out.dims());
            let dinput = l.backward(&delta).unwrap();
            let dw = l.grads().unwrap().0.clone();
            let eps = 1e-3f32;
            let loss =
                |l: &mut Conv2d, x: &Tensor| -> f32 { l.forward(x).unwrap().data().iter().sum() };
            for &i in &[0usize, 5, 11, 15] {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let num = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
                assert!(
                    (num - dinput.data()[i]).abs() < 0.05,
                    "maxpool={maxpool} dInput[{i}]: {num} vs {}",
                    dinput.data()[i]
                );
            }
            for &i in &[0usize, 8, 17] {
                let orig = l.weights().0.data()[i];
                l.weights_mut().0.data_mut()[i] = orig + eps;
                let up = loss(&mut l, &x);
                l.weights_mut().0.data_mut()[i] = orig - eps;
                let down = loss(&mut l, &x);
                l.weights_mut().0.data_mut()[i] = orig;
                let num = (up - down) / (2.0 * eps);
                assert!(
                    (num - dw.data()[i]).abs() < 0.05,
                    "maxpool={maxpool} dW[{i}]: {num} vs {}",
                    dw.data()[i]
                );
            }
        }
    }

    #[test]
    fn backward_params_stores_the_gradients_backward_stores() {
        for backend in BackendKind::ALL {
            for maxpool in [false, true] {
                let mut l =
                    Conv2d::new(3, 16, 16, 6, 3, 1, 1, Activation::Tanh, maxpool, 7).unwrap();
                l.set_backend(backend);
                let x = init::uniform(&[6, 3, 16, 16], -1.0, 1.0, 1); // two bands
                let y = l.forward(&x).unwrap();
                let delta = init::uniform(y.dims(), -1.0, 1.0, 2);
                let dinput = l.backward(&delta).unwrap();
                let bits = |l: &Conv2d| -> Vec<u32> {
                    let (dw, db) = l.grads().unwrap();
                    let both = dw.data().iter().chain(db.data());
                    both.map(|x| x.to_bits()).collect()
                };
                let full = bits(&l);
                l.zero_grads();
                l.backward_params(&delta).unwrap();
                assert_eq!(bits(&l), full, "{backend} maxpool={maxpool}");
                // The caches survive: the full pass still answers.
                assert_eq!(l.backward(&delta).unwrap(), dinput);
            }
        }
    }

    #[test]
    fn zero_and_clear() {
        let mut l = small_layer(false);
        let x = init::uniform(&[1, 2, 6, 6], -1.0, 1.0, 9);
        let y = l.forward(&x).unwrap();
        let _ = l.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(l.grads().is_some());
        l.zero_grads();
        assert!(l.grads().is_none());
        l.clear_cache();
        assert!(l.backward(&Tensor::ones(y.dims())).is_err());
    }

    #[test]
    fn deterministic_init() {
        let a = small_layer(false);
        let b = small_layer(false);
        assert_eq!(a.weights().0.data(), b.weights().0.data());
    }
}
