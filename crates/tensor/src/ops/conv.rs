//! 2-D convolution via im2col/col2im.
//!
//! Layout conventions (matching Darknet, the substrate of DarkneTZ):
//!
//! * inputs/outputs are `NCHW` tensors,
//! * weights are `(F, C·K·K)` matrices (one row per output filter),
//! * geometry uses Darknet's floor rule
//!   `out = (in + 2·pad − k) / stride + 1` (integer division),
//!   which yields exactly the layer shapes of the paper's Table 4.
//!
//! Three passes are provided: [`conv2d_forward`], and a combined
//! [`conv2d_backward`] returning `(dW, db, dInput)` per the paper's
//! equation (4): `dW_l = δ_l ⊗ A_{l−1}`.
//!
//! The functions here are *dispatchers*: shape checks, output allocation
//! and thread banding live here, while the per-band kernels come from a
//! [`TensorBackend`](crate::backend::TensorBackend) — the default
//! [`BackendKind::Reference`] for the plain entry points or any backend
//! via the `*_with` variants. Both passes cut the batch into image bands
//! once the per-batch im2col volume crosses [`PARALLEL_THRESHOLD`] and
//! hand them to [`threads::for_each_band`]: as many threads as the
//! caller's budget allows, the caller among them, walk the bands — under
//! a federation engine worker that owns one core, inline. Each image's
//! computation is independent, so the forward pass is bit-identical to
//! the sequential loop under any banding. The backward
//! pass reduces per-band `dW`/`db` partials in band order, so — unlike
//! `matmul`, whose disjoint output rows make any band count safe — the
//! band count must **not** depend on the machine or the budget: bands are
//! a fixed [`IMAGES_PER_BAND`] images wide, making the reduction grouping
//! a pure function of the batch size.

use super::threads;
use crate::backend::{BackendKind, FusedActivation};
use crate::{Result, Tensor, TensorError};

/// Batches whose total im2col volume (elements) is below this run
/// single-threaded; spawning workers costs more than it saves.
const PARALLEL_THRESHOLD: usize = 64 * 64;

/// Fixed band width in images. Machine-independent so seeded training
/// results are reproducible across hosts with different core counts.
const IMAGES_PER_BAND: usize = 4;

/// Number of image bands for a batch of `n` images with per-image im2col
/// volume `col_len`.
fn conv_bands(n: usize, col_len: usize) -> usize {
    if n < 2 || n * col_len < PARALLEL_THRESHOLD {
        return 1;
    }
    n.div_ceil(IMAGES_PER_BAND)
}

/// Images per band for a batch of `n` (the last band may be narrower).
fn band_width(n: usize, geo: &Conv2dGeometry) -> usize {
    n.div_ceil(conv_bands(n, geo.col_len())).max(1)
}

/// Validated convolution geometry shared by the forward and backward passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count `C`.
    pub in_channels: usize,
    /// Input height `H`.
    pub in_h: usize,
    /// Input width `W`.
    pub in_w: usize,
    /// Output filter count `F`.
    pub out_channels: usize,
    /// Square kernel edge `K`.
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub pad: usize,
    /// Computed output height.
    pub out_h: usize,
    /// Computed output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes and validates a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] when the stride is zero or the
    /// kernel does not fit in the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::BadGeometry {
                reason: "stride must be non-zero".to_owned(),
            });
        }
        if kernel == 0 || out_channels == 0 || in_channels == 0 {
            return Err(TensorError::BadGeometry {
                reason: "kernel, in_channels and out_channels must be non-zero".to_owned(),
            });
        }
        if in_h + 2 * pad < kernel || in_w + 2 * pad < kernel {
            return Err(TensorError::BadGeometry {
                reason: format!(
                    "kernel {kernel} larger than padded input {}x{}",
                    in_h + 2 * pad,
                    in_w + 2 * pad
                ),
            });
        }
        let out_h = (in_h + 2 * pad - kernel) / stride + 1;
        let out_w = (in_w + 2 * pad - kernel) / stride + 1;
        Ok(Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            out_channels,
            kernel,
            stride,
            pad,
            out_h,
            out_w,
        })
    }

    /// Elements in one image's im2col matrix: `(C·K·K) × (OH·OW)`.
    pub fn col_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel * self.out_h * self.out_w
    }

    /// Number of weights (excluding bias): `F·C·K·K`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// Elements in one input image: `C·H·W`.
    pub fn in_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Elements in one output image: `F·OH·OW`.
    pub fn out_len(&self) -> usize {
        self.out_channels * self.out_h * self.out_w
    }
}

/// Expands one `C×H×W` image into its `(C·K·K) × (OH·OW)` column matrix.
///
/// Out-of-bounds taps (padding) contribute zeros. Every element of `col`
/// is written, which is what lets the backends reuse scratch buffers
/// across calls.
///
/// # Panics
///
/// Debug-asserts the buffer lengths; callers are internal and pre-size them.
pub fn im2col(input: &[f32], geo: &Conv2dGeometry, col: &mut [f32]) {
    debug_assert_eq!(input.len(), geo.in_len());
    debug_assert_eq!(col.len(), geo.col_len());
    let k = geo.kernel;
    let cols = geo.out_h * geo.out_w;
    for c in 0..geo.in_channels {
        let chan = &input[c * geo.in_h * geo.in_w..(c + 1) * geo.in_h * geo.in_w];
        for ki in 0..k {
            for kj in 0..k {
                let row = (c * k * k + ki * k + kj) * cols;
                for oh in 0..geo.out_h {
                    let ih = (oh * geo.stride + ki) as isize - geo.pad as isize;
                    let base = row + oh * geo.out_w;
                    if ih < 0 || ih as usize >= geo.in_h {
                        col[base..base + geo.out_w].fill(0.0);
                        continue;
                    }
                    let ih = ih as usize;
                    for ow in 0..geo.out_w {
                        let iw = (ow * geo.stride + kj) as isize - geo.pad as isize;
                        col[base + ow] = if iw < 0 || iw as usize >= geo.in_w {
                            0.0
                        } else {
                            chan[ih * geo.in_w + iw as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Scatters a column matrix back into image space, accumulating into
/// `input_grad` (the adjoint of [`im2col`]).
pub fn col2im(col: &[f32], geo: &Conv2dGeometry, input_grad: &mut [f32]) {
    debug_assert_eq!(input_grad.len(), geo.in_len());
    debug_assert_eq!(col.len(), geo.col_len());
    let k = geo.kernel;
    let cols = geo.out_h * geo.out_w;
    for c in 0..geo.in_channels {
        let chan = &mut input_grad[c * geo.in_h * geo.in_w..(c + 1) * geo.in_h * geo.in_w];
        for ki in 0..k {
            for kj in 0..k {
                let row = (c * k * k + ki * k + kj) * cols;
                for oh in 0..geo.out_h {
                    let ih = (oh * geo.stride + ki) as isize - geo.pad as isize;
                    if ih < 0 || ih as usize >= geo.in_h {
                        continue;
                    }
                    let ih = ih as usize;
                    let base = row + oh * geo.out_w;
                    for ow in 0..geo.out_w {
                        let iw = (ow * geo.stride + kj) as isize - geo.pad as isize;
                        if iw < 0 || iw as usize >= geo.in_w {
                            continue;
                        }
                        chan[ih * geo.in_w + iw as usize] += col[base + ow];
                    }
                }
            }
        }
    }
}

fn check_batch_input(input: &Tensor, geo: &Conv2dGeometry) -> Result<usize> {
    let d = input.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: d.len(),
        });
    }
    if d[1] != geo.in_channels || d[2] != geo.in_h || d[3] != geo.in_w {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: d.to_vec(),
            rhs: vec![0, geo.in_channels, geo.in_h, geo.in_w],
        });
    }
    Ok(d[0])
}

fn check_weights(weights: &Tensor, bias: &Tensor, geo: &Conv2dGeometry) -> Result<()> {
    let k2 = geo.in_channels * geo.kernel * geo.kernel;
    if weights.dims() != [geo.out_channels, k2] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d weights",
            lhs: weights.dims().to_vec(),
            rhs: vec![geo.out_channels, k2],
        });
    }
    if bias.dims() != [geo.out_channels] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d bias",
            lhs: bias.dims().to_vec(),
            rhs: vec![geo.out_channels],
        });
    }
    Ok(())
}

/// Convolution forward pass: `Z = W ⊛ A + b` over a batch, on the default
/// ([`BackendKind::Reference`]) backend.
///
/// `input` is `(N, C, H, W)`, `weights` is `(F, C·K·K)`, `bias` is `(F)`;
/// the result is `(N, F, OH, OW)`.
///
/// # Errors
///
/// Returns shape errors when any operand disagrees with `geo`.
pub fn conv2d_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geo: &Conv2dGeometry,
) -> Result<Tensor> {
    conv2d_forward_with(input, weights, bias, geo, BackendKind::Reference)
}

/// [`conv2d_forward`] through an explicit backend.
///
/// # Errors
///
/// Same contract as [`conv2d_forward`].
pub fn conv2d_forward_with(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geo: &Conv2dGeometry,
    backend: BackendKind,
) -> Result<Tensor> {
    let n = check_batch_input(input, geo)?;
    check_weights(weights, bias, geo)?;
    let kernels = backend.kernels();
    let mut out = Tensor::zeros(&[n, geo.out_channels, geo.out_h, geo.out_w]);
    // Contiguous image bands; every image is computed exactly as in the
    // sequential loop, so the result is bit-identical under any banding.
    let per = band_width(n, geo);
    let (wd, bd) = (weights.data(), bias.data());
    let jobs = input
        .data()
        .chunks(per * geo.in_len())
        .zip(out.data_mut().chunks_mut(per * geo.out_len()))
        .collect();
    threads::for_each_band(jobs, |(in_band, band)| {
        kernels.conv2d_forward(in_band, wd, bd, band, geo)
    });
    Ok(out)
}

/// Fused convolution + activation forward pass through an explicit
/// backend: returns `(Z, A)` where `Z = W ⊛ input + b` and
/// `A = act(Z)`, banded exactly like [`conv2d_forward_with`] (both
/// outputs split on the same image boundaries, so results are
/// bit-identical under any banding).
///
/// Backends without a fused kernel fall back to the trait's default
/// (unfused conv then an activation sweep), which reproduces the
/// historical `forward` + `apply_tensor` op order bit-for-bit; the
/// `Tiled` backend applies the activation inside its GEMM writeback.
///
/// # Errors
///
/// Same contract as [`conv2d_forward`].
pub fn conv2d_forward_fused_with(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geo: &Conv2dGeometry,
    act: FusedActivation,
    backend: BackendKind,
) -> Result<(Tensor, Tensor)> {
    let n = check_batch_input(input, geo)?;
    check_weights(weights, bias, geo)?;
    let kernels = backend.kernels();
    let mut z = Tensor::zeros(&[n, geo.out_channels, geo.out_h, geo.out_w]);
    let mut a = Tensor::zeros(&[n, geo.out_channels, geo.out_h, geo.out_w]);
    let per = band_width(n, geo);
    let (wd, bd) = (weights.data(), bias.data());
    let jobs = input
        .data()
        .chunks(per * geo.in_len())
        .zip(z.data_mut().chunks_mut(per * geo.out_len()))
        .zip(a.data_mut().chunks_mut(per * geo.out_len()))
        .collect();
    threads::for_each_band(jobs, |((in_band, z_band), a_band)| {
        kernels.conv2d_forward_fused(in_band, wd, bd, z_band, a_band, act, geo)
    });
    Ok((z, a))
}

/// Convolution backward pass on the default backend.
///
/// Given the upstream error `delta_out = ∂Loss/∂Z` of shape `(N, F, OH, OW)`,
/// returns `(dW, db, dInput)` where
///
/// * `dW = Σ_img δ · colᵀ` — shape `(F, C·K·K)` (paper eq. 4,
///   `δ_l ⊗ A_{l−1}`),
/// * `db = Σ spatial+batch δ` — shape `(F)`,
/// * `dInput = col2im(Wᵀ · δ)` — shape `(N, C, H, W)` (the `W_{l+1} ⊗ δ_{l+1}`
///   term that propagates to the previous layer).
///
/// # Errors
///
/// Returns shape errors when any operand disagrees with `geo`.
pub fn conv2d_backward(
    input: &Tensor,
    weights: &Tensor,
    delta_out: &Tensor,
    geo: &Conv2dGeometry,
) -> Result<(Tensor, Tensor, Tensor)> {
    conv2d_backward_with(input, weights, delta_out, geo, BackendKind::Reference)
}

/// [`conv2d_backward`] through an explicit backend.
///
/// # Errors
///
/// Same contract as [`conv2d_backward`].
pub fn conv2d_backward_with(
    input: &Tensor,
    weights: &Tensor,
    delta_out: &Tensor,
    geo: &Conv2dGeometry,
    backend: BackendKind,
) -> Result<(Tensor, Tensor, Tensor)> {
    let mut dinput = Tensor::zeros(input.dims());
    let (dw, db) = backward_banded(input, weights, delta_out, geo, backend, dinput.data_mut())?;
    Ok((dw, db, dinput))
}

/// The parameter half of [`conv2d_backward_with`] — `(dW, db)`, bit-equal
/// to the ones it returns, same errors — for a layer whose input gradient
/// nobody reads (the first of a model in training).
pub fn conv2d_backward_params_with(
    input: &Tensor,
    weights: &Tensor,
    delta_out: &Tensor,
    geo: &Conv2dGeometry,
    backend: BackendKind,
) -> Result<(Tensor, Tensor)> {
    backward_banded(input, weights, delta_out, geo, backend, &mut [])
}

/// Both backward passes over image bands. `dinput` is the zeroed
/// `(N, C, H, W)` buffer to receive the data gradient, or empty to skip
/// that half (the kernels' empty-`dinput` convention).
fn backward_banded(
    input: &Tensor,
    weights: &Tensor,
    delta_out: &Tensor,
    geo: &Conv2dGeometry,
    backend: BackendKind,
    dinput: &mut [f32],
) -> Result<(Tensor, Tensor)> {
    let n = check_batch_input(input, geo)?;
    let k2 = geo.in_channels * geo.kernel * geo.kernel;
    if delta_out.dims() != [n, geo.out_channels, geo.out_h, geo.out_w] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward delta",
            lhs: delta_out.dims().to_vec(),
            rhs: vec![n, geo.out_channels, geo.out_h, geo.out_w],
        });
    }
    if weights.dims() != [geo.out_channels, k2] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward weights",
            lhs: weights.dims().to_vec(),
            rhs: vec![geo.out_channels, k2],
        });
    }
    let kernels = backend.kernels();
    // Per-band workers own disjoint dInput slices and private dW/db
    // partials; partials are reduced in band order afterwards, so the
    // result depends only on the band width, never on thread timing.
    let per = band_width(n, geo);
    let wd = weights.data();
    let mut di_bands = dinput.chunks_mut(per * geo.in_len());
    let jobs = input
        .data()
        .chunks(per * geo.in_len())
        .zip(delta_out.data().chunks(per * geo.out_len()))
        .map(|(in_band, d_band)| (in_band, d_band, di_bands.next().unwrap_or_default()))
        .collect();
    let partials = threads::for_each_band(jobs, |(in_band, d_band, di_band)| {
        let mut dw_part = vec![0.0f32; geo.weight_len()];
        let mut db_part = vec![0.0f32; geo.out_channels];
        kernels.conv2d_backward(
            in_band,
            wd,
            d_band,
            &mut dw_part,
            &mut db_part,
            di_band,
            geo,
        );
        (dw_part, db_part)
    });
    let mut dw = Tensor::zeros(&[geo.out_channels, k2]);
    let mut db = Tensor::zeros(&[geo.out_channels]);
    for (dw_part, db_part) in &partials {
        for (x, y) in dw.data_mut().iter_mut().zip(dw_part) {
            *x += y;
        }
        for (x, y) in db.data_mut().iter_mut().zip(db_part) {
            *x += y;
        }
    }
    Ok((dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    /// Naive direct convolution used as an oracle.
    fn naive_forward(
        input: &Tensor,
        weights: &Tensor,
        bias: &Tensor,
        geo: &Conv2dGeometry,
    ) -> Tensor {
        let n = input.dims()[0];
        let mut out = Tensor::zeros(&[n, geo.out_channels, geo.out_h, geo.out_w]);
        for img in 0..n {
            for f in 0..geo.out_channels {
                for oh in 0..geo.out_h {
                    for ow in 0..geo.out_w {
                        let mut acc = bias.data()[f];
                        for c in 0..geo.in_channels {
                            for ki in 0..geo.kernel {
                                for kj in 0..geo.kernel {
                                    let ih = (oh * geo.stride + ki) as isize - geo.pad as isize;
                                    let iw = (ow * geo.stride + kj) as isize - geo.pad as isize;
                                    if ih < 0
                                        || iw < 0
                                        || ih as usize >= geo.in_h
                                        || iw as usize >= geo.in_w
                                    {
                                        continue;
                                    }
                                    let x = input.get(&[img, c, ih as usize, iw as usize]).unwrap();
                                    let w = weights
                                        .get(&[
                                            f,
                                            c * geo.kernel * geo.kernel + ki * geo.kernel + kj,
                                        ])
                                        .unwrap();
                                    acc += x * w;
                                }
                            }
                        }
                        out.set(&[img, f, oh, ow], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn geometry_matches_paper_table4() {
        // LeNet-5 L1: 32x32x3 -> 16x16x12 with 5x5/2 and darknet pad 2.
        let g = Conv2dGeometry::new(3, 32, 32, 12, 5, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (16, 16));
        // LeNet-5 L2: 16x16x12 -> 8x8x12 with 5x5/2/2.
        let g = Conv2dGeometry::new(12, 16, 16, 12, 5, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        // LeNet-5 L3/L4: 8x8x12 -> 8x8x12 with 5x5/1/2.
        let g = Conv2dGeometry::new(12, 8, 8, 12, 5, 1, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        // AlexNet L1 conv part: 32x32x3 -> 16x16x64 with 3x3/2/1.
        let g = Conv2dGeometry::new(3, 32, 32, 64, 3, 2, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (16, 16));
    }

    #[test]
    fn geometry_rejects_nonsense() {
        assert!(Conv2dGeometry::new(3, 8, 8, 4, 3, 0, 1).is_err());
        assert!(Conv2dGeometry::new(3, 2, 2, 4, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(0, 8, 8, 4, 3, 1, 1).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // K=1, stride 1, no pad: the col matrix equals the image.
        let geo = Conv2dGeometry::new(2, 3, 3, 1, 1, 1, 0).unwrap();
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let mut col = vec![0.0; geo.col_len()];
        im2col(&img, &geo, &mut col);
        assert_eq!(col, img);
    }

    #[test]
    fn forward_matches_naive_with_padding_and_stride() {
        for &(c, h, w, f, k, s, p) in &[
            (3usize, 8usize, 8usize, 4usize, 3usize, 1usize, 1usize),
            (2, 9, 7, 3, 3, 2, 1),
            (1, 6, 6, 2, 5, 1, 2),
            (3, 32, 32, 12, 5, 2, 2),
        ] {
            let geo = Conv2dGeometry::new(c, h, w, f, k, s, p).unwrap();
            let input = init::uniform(&[2, c, h, w], -1.0, 1.0, 40);
            let weights = init::uniform(&[f, c * k * k], -1.0, 1.0, 41);
            let bias = init::uniform(&[f], -1.0, 1.0, 42);
            let slow = naive_forward(&input, &weights, &bias, &geo);
            for backend in BackendKind::ALL {
                let fast = conv2d_forward_with(&input, &weights, &bias, &geo, backend).unwrap();
                assert!(
                    fast.approx_eq(&slow, 1e-3),
                    "{backend} mismatch for geometry {geo:?}"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y — the defining
        // property of an adjoint pair, which is what backprop relies on.
        let geo = Conv2dGeometry::new(2, 6, 5, 3, 3, 2, 1).unwrap();
        let x = init::uniform(&[geo.in_len()], -1.0, 1.0, 50);
        let y = init::uniform(&[geo.col_len()], -1.0, 1.0, 51);
        let mut colx = vec![0.0; geo.col_len()];
        im2col(x.data(), &geo, &mut colx);
        let lhs: f32 = colx.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut imy = vec![0.0; geo.in_len()];
        col2im(y.data(), &geo, &mut imy);
        let rhs: f32 = x.data().iter().zip(&imy).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} != {rhs}");
    }

    #[test]
    fn backward_gradient_check() {
        // Finite-difference check of dW, db and dInput through a scalar
        // loss L = sum(Z), on both backends.
        let geo = Conv2dGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let input = init::uniform(&[1, 2, 5, 5], -1.0, 1.0, 60);
        let weights = init::uniform(&[3, 18], -1.0, 1.0, 61);
        let bias = init::uniform(&[3], -1.0, 1.0, 62);
        let delta = Tensor::ones(&[1, 3, geo.out_h, geo.out_w]);
        for backend in BackendKind::ALL {
            let (dw, db, dinput) =
                conv2d_backward_with(&input, &weights, &delta, &geo, backend).unwrap();
            let eps = 1e-3f32;
            let loss = |inp: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
                conv2d_forward_with(inp, w, b, &geo, backend)
                    .unwrap()
                    .data()
                    .iter()
                    .sum()
            };
            // dW check (a few random positions).
            for &i in &[0usize, 7, 23, 53] {
                let mut wp = weights.clone();
                wp.data_mut()[i] += eps;
                let mut wm = weights.clone();
                wm.data_mut()[i] -= eps;
                let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
                assert!(
                    (num - dw.data()[i]).abs() < 0.05,
                    "{backend} dW[{i}]: numeric {num} vs analytic {}",
                    dw.data()[i]
                );
            }
            // db check.
            for f in 0..3 {
                let mut bp = bias.clone();
                bp.data_mut()[f] += eps;
                let mut bm = bias.clone();
                bm.data_mut()[f] -= eps;
                let num = (loss(&input, &weights, &bp) - loss(&input, &weights, &bm)) / (2.0 * eps);
                assert!((num - db.data()[f]).abs() < 0.05);
            }
            // dInput check.
            for &i in &[0usize, 13, 31, 49] {
                let mut ip = input.clone();
                ip.data_mut()[i] += eps;
                let mut im = input.clone();
                im.data_mut()[i] -= eps;
                let num = (loss(&ip, &weights, &bias) - loss(&im, &weights, &bias)) / (2.0 * eps);
                assert!(
                    (num - dinput.data()[i]).abs() < 0.05,
                    "{backend} dInput[{i}]: numeric {num} vs analytic {}",
                    dinput.data()[i]
                );
            }
        }
    }

    #[test]
    fn banded_forward_is_bit_identical_to_full_batch() {
        // Simulate the parallel band split by hand (the machine's core
        // count must not decide whether this property is exercised).
        let geo = Conv2dGeometry::new(3, 16, 16, 6, 3, 1, 1).unwrap();
        let n = 8;
        let input = init::uniform(&[n, 3, 16, 16], -1.0, 1.0, 70);
        let weights = init::uniform(&[6, 27], -0.5, 0.5, 71);
        let bias = init::uniform(&[6], -0.5, 0.5, 72);
        for backend in BackendKind::ALL {
            let kernels = backend.kernels();
            let full = conv2d_forward_with(&input, &weights, &bias, &geo, backend).unwrap();
            for split in [1usize, 3, 5] {
                let mut banded = vec![0.0f32; n * geo.out_len()];
                let (lo, hi) = banded.split_at_mut(split * geo.out_len());
                kernels.conv2d_forward(
                    &input.data()[..split * geo.in_len()],
                    weights.data(),
                    bias.data(),
                    lo,
                    &geo,
                );
                kernels.conv2d_forward(
                    &input.data()[split * geo.in_len()..],
                    weights.data(),
                    bias.data(),
                    hi,
                    &geo,
                );
                assert_eq!(
                    full.data(),
                    &banded[..],
                    "{backend} split at {split} diverged"
                );
            }
        }
    }

    #[test]
    fn banded_backward_partials_reduce_to_full_batch() {
        let geo = Conv2dGeometry::new(2, 10, 10, 4, 3, 1, 1).unwrap();
        let n = 6;
        let input = init::uniform(&[n, 2, 10, 10], -1.0, 1.0, 80);
        let weights = init::uniform(&[4, 18], -0.5, 0.5, 81);
        let delta = init::uniform(&[n, 4, geo.out_h, geo.out_w], -1.0, 1.0, 82);
        for backend in BackendKind::ALL {
            let kernels = backend.kernels();
            let (dw, db, dinput) =
                conv2d_backward_with(&input, &weights, &delta, &geo, backend).unwrap();
            // Two hand-built bands: dInput slices are disjoint (bit-identical);
            // dW/db partials reduced in band order agree to f32 rounding.
            let split = 2usize;
            let mut dw_a = vec![0.0f32; geo.weight_len()];
            let mut db_a = vec![0.0f32; 4];
            let mut di = vec![0.0f32; n * geo.in_len()];
            let (di_lo, di_hi) = di.split_at_mut(split * geo.in_len());
            kernels.conv2d_backward(
                &input.data()[..split * geo.in_len()],
                weights.data(),
                &delta.data()[..split * geo.out_len()],
                &mut dw_a,
                &mut db_a,
                di_lo,
                &geo,
            );
            let mut dw_b = vec![0.0f32; geo.weight_len()];
            let mut db_b = vec![0.0f32; 4];
            kernels.conv2d_backward(
                &input.data()[split * geo.in_len()..],
                weights.data(),
                &delta.data()[split * geo.out_len()..],
                &mut dw_b,
                &mut db_b,
                di_hi,
                &geo,
            );
            assert_eq!(dinput.data(), &di[..], "{backend} dInput diverged");
            for i in 0..dw_a.len() {
                let reduced = dw_a[i] + dw_b[i];
                assert!(
                    (reduced - dw.data()[i]).abs() <= 1e-4 * (1.0 + dw.data()[i].abs()),
                    "{backend} dW[{i}] {reduced} vs {}",
                    dw.data()[i]
                );
            }
            for f in 0..4 {
                assert!((db_a[f] + db_b[f] - db.data()[f]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn forward_shape_errors() {
        let geo = Conv2dGeometry::new(3, 8, 8, 4, 3, 1, 1).unwrap();
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let bad_input = Tensor::zeros(&[1, 2, 8, 8]);
        let weights = Tensor::zeros(&[4, 27]);
        let bias = Tensor::zeros(&[4]);
        assert!(conv2d_forward(&bad_input, &weights, &bias, &geo).is_err());
        assert!(conv2d_forward(&input, &Tensor::zeros(&[4, 26]), &bias, &geo).is_err());
        assert!(conv2d_forward(&input, &weights, &Tensor::zeros(&[5]), &geo).is_err());
        assert!(conv2d_forward(&Tensor::zeros(&[3, 8, 8]), &weights, &bias, &geo).is_err());
    }
}
