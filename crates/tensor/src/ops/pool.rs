//! Max pooling.
//!
//! The paper's AlexNet variant (Table 4) uses `MP2` — 2×2 max pooling with
//! stride 2 — fused after some convolutional layers. This module implements
//! general square max pooling with argmax bookkeeping so the backward pass
//! can route errors to the winning inputs only. As elsewhere in `ops`, the
//! functions here validate and allocate while the scan itself comes from a
//! [`TensorBackend`](crate::backend::TensorBackend) (`*_with` variants;
//! the plain entry points use [`BackendKind::Reference`]).

use crate::backend::BackendKind;
use crate::{Result, Tensor, TensorError};

/// Validated pooling geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGeometry {
    /// Channel count (unchanged by pooling).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square window edge.
    pub window: usize,
    /// Stride.
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl PoolGeometry {
    /// Computes and validates a pooling geometry (floor rule, no padding).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] for zero strides/windows or
    /// windows larger than the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if stride == 0 || window == 0 {
            return Err(TensorError::BadGeometry {
                reason: "pool stride and window must be non-zero".to_owned(),
            });
        }
        if window > in_h || window > in_w {
            return Err(TensorError::BadGeometry {
                reason: format!("pool window {window} larger than input {in_h}x{in_w}"),
            });
        }
        Ok(PoolGeometry {
            channels,
            in_h,
            in_w,
            window,
            stride,
            out_h: (in_h - window) / stride + 1,
            out_w: (in_w - window) / stride + 1,
        })
    }

    /// The standard `MP2` geometry of the paper: 2×2 window, stride 2.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError::BadGeometry`] for inputs smaller than 2×2.
    pub fn mp2(channels: usize, in_h: usize, in_w: usize) -> Result<Self> {
        PoolGeometry::new(channels, in_h, in_w, 2, 2)
    }
}

/// Forward max pooling through an explicit backend.
///
/// Returns the pooled output and a same-shaped index tensor whose entries
/// are the flat offsets (within each image) of the winning inputs, consumed
/// by [`maxpool_backward_with`].
///
/// # Errors
///
/// Returns shape errors when `input` disagrees with `geo`.
pub fn maxpool_forward_with(
    input: &Tensor,
    geo: &PoolGeometry,
    backend: BackendKind,
) -> Result<(Tensor, Vec<u32>)> {
    let d = input.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "maxpool",
            expected: 4,
            actual: d.len(),
        });
    }
    if d[1] != geo.channels || d[2] != geo.in_h || d[3] != geo.in_w {
        return Err(TensorError::ShapeMismatch {
            op: "maxpool",
            lhs: d.to_vec(),
            rhs: vec![0, geo.channels, geo.in_h, geo.in_w],
        });
    }
    let n = d[0];
    let out_img = geo.channels * geo.out_h * geo.out_w;
    let mut out = Tensor::zeros(&[n, geo.channels, geo.out_h, geo.out_w]);
    let mut argmax = vec![0u32; n * out_img];
    backend
        .kernels()
        .maxpool_forward(input.data(), out.data_mut(), &mut argmax, n, geo);
    Ok((out, argmax))
}

/// Backward max pooling through an explicit backend: routes each
/// upstream error to the input position that won the forward max.
///
/// # Errors
///
/// Returns shape errors when `delta_out` disagrees with `geo` or the argmax
/// buffer has the wrong length.
pub fn maxpool_backward_with(
    delta_out: &Tensor,
    argmax: &[u32],
    geo: &PoolGeometry,
    backend: BackendKind,
) -> Result<Tensor> {
    let d = delta_out.dims();
    if d.len() != 4 || d[1] != geo.channels || d[2] != geo.out_h || d[3] != geo.out_w {
        return Err(TensorError::ShapeMismatch {
            op: "maxpool_backward",
            lhs: d.to_vec(),
            rhs: vec![0, geo.channels, geo.out_h, geo.out_w],
        });
    }
    let n = d[0];
    let out_img = geo.channels * geo.out_h * geo.out_w;
    if argmax.len() != n * out_img {
        return Err(TensorError::LengthMismatch {
            expected: n * out_img,
            actual: argmax.len(),
        });
    }
    let mut dinput = Tensor::zeros(&[n, geo.channels, geo.in_h, geo.in_w]);
    backend
        .kernels()
        .maxpool_backward(delta_out.data(), argmax, dinput.data_mut(), n, geo);
    Ok(dinput)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maxpool_forward(input: &Tensor, geo: &PoolGeometry) -> Result<(Tensor, Vec<u32>)> {
        maxpool_forward_with(input, geo, BackendKind::Reference)
    }

    fn maxpool_backward(delta_out: &Tensor, argmax: &[u32], geo: &PoolGeometry) -> Result<Tensor> {
        maxpool_backward_with(delta_out, argmax, geo, BackendKind::Reference)
    }
    use crate::init;

    #[test]
    fn mp2_halves_spatial_dims() {
        let g = PoolGeometry::mp2(64, 16, 16).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
    }

    #[test]
    fn geometry_rejects_nonsense() {
        assert!(PoolGeometry::new(1, 4, 4, 0, 2).is_err());
        assert!(PoolGeometry::new(1, 4, 4, 2, 0).is_err());
        assert!(PoolGeometry::new(1, 1, 1, 2, 2).is_err());
    }

    #[test]
    fn forward_picks_maxima() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let geo = PoolGeometry::mp2(1, 4, 4).unwrap();
        let (out, argmax) = maxpool_forward(&input, &geo).unwrap();
        assert_eq!(out.data(), &[4.0, 8.0, -1.0, 0.75]);
        assert_eq!(argmax, vec![5, 7, 8, 15]);
    }

    #[test]
    fn backward_routes_to_winners_only() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]).unwrap();
        let geo = PoolGeometry::mp2(1, 2, 2).unwrap();
        let (_, argmax) = maxpool_forward(&input, &geo).unwrap();
        let delta = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let dinput = maxpool_backward(&delta, &argmax, &geo).unwrap();
        assert_eq!(dinput.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn pool_gradient_check() {
        let geo = PoolGeometry::mp2(2, 4, 4).unwrap();
        let input = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, 70);
        let (_, argmax) = maxpool_forward(&input, &geo).unwrap();
        let delta = Tensor::ones(&[1, 2, 2, 2]);
        let dinput = maxpool_backward(&delta, &argmax, &geo).unwrap();
        let loss =
            |inp: &Tensor| -> f32 { maxpool_forward(inp, &geo).unwrap().0.data().iter().sum() };
        let eps = 1e-3;
        for i in 0..input.numel() {
            let mut ip = input.clone();
            ip.data_mut()[i] += eps;
            let mut im = input.clone();
            im.data_mut()[i] -= eps;
            let num = (loss(&ip) - loss(&im)) / (2.0 * eps);
            // At non-max positions both are 0; at maxima both are 1 (unless
            // the epsilon flips the argmax, which the tolerance absorbs).
            assert!(
                (num - dinput.data()[i]).abs() < 0.51,
                "dInput[{i}]: numeric {num} vs analytic {}",
                dinput.data()[i]
            );
        }
    }

    #[test]
    fn backends_agree_bit_identically() {
        // Pooling is memory-bound: the tiled backend deliberately reuses
        // the reference scan, so outputs match exactly.
        let geo = PoolGeometry::mp2(2, 4, 4).unwrap();
        let input = init::uniform(&[2, 2, 4, 4], -1.0, 1.0, 71);
        let (a, am_a) = maxpool_forward_with(&input, &geo, BackendKind::Reference).unwrap();
        let (b, am_b) = maxpool_forward_with(&input, &geo, BackendKind::Tiled).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(am_a, am_b);
        let delta = init::uniform(&[2, 2, 2, 2], -1.0, 1.0, 72);
        let da = maxpool_backward_with(&delta, &am_a, &geo, BackendKind::Reference).unwrap();
        let db = maxpool_backward_with(&delta, &am_b, &geo, BackendKind::Tiled).unwrap();
        assert_eq!(da.data(), db.data());
    }

    #[test]
    fn shape_errors() {
        let geo = PoolGeometry::mp2(1, 4, 4).unwrap();
        assert!(maxpool_forward(&Tensor::zeros(&[1, 2, 4, 4]), &geo).is_err());
        assert!(maxpool_forward(&Tensor::zeros(&[2, 4, 4]), &geo).is_err());
        let delta = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(maxpool_backward(&delta, &[0; 3], &geo).is_err());
        assert!(maxpool_backward(&Tensor::zeros(&[1, 1, 3, 3]), &[0; 4], &geo).is_err());
    }
}
