//! The original scalar kernels, extracted verbatim from `ops::*`.
//!
//! This backend is the determinism anchor of the whole reproduction: its
//! loops are exactly the seed implementation's, so every seeded training
//! run, every federation bit-identity gate and every recorded repro table
//! is reproduced bit-for-bit. Only the convolution scratch allocation
//! changed — the per-call `vec![0.0; col_len]` buffers moved to the
//! process-wide checkout/return pool in [`super::scratch`], which cannot
//! affect values because every kernel fully overwrites the region it
//! reads.

use super::{scratch, BackendKind, TensorBackend};
use crate::ops::conv::{col2im, im2col, Conv2dGeometry};
use crate::ops::pool::PoolGeometry;

/// Block edge for the cache-blocked `matmul` kernel (the seed constant).
const BLOCK: usize = 64;

/// The seed kernel set (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference;

impl TensorBackend for Reference {
    fn kind(&self) -> BackendKind {
        BackendKind::Reference
    }

    /// Cache-blocked single-threaded `C += A·B` kernel over raw slices.
    fn matmul(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for ib in (0..m).step_by(BLOCK) {
            let imax = (ib + BLOCK).min(m);
            for kb in (0..k).step_by(BLOCK) {
                let kmax = (kb + BLOCK).min(k);
                for i in ib..imax {
                    let crow = &mut c[i * n..(i + 1) * n];
                    for kk in kb..kmax {
                        let aik = a[i * k + kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..(kk + 1) * n];
                        for j in 0..n {
                            crow[j] += aik * brow[j];
                        }
                    }
                }
            }
        }
    }

    fn matmul_nt(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        // C[i][j] = Σ_k A[i][k]·B[j][k]; contiguous in k for both operands.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += arow[kk] * brow[kk];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn matmul_tn(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        // C[i][j] = Σ_k A[k][i]·B[k][j]: accumulate row-banded, k outermost
        // so both reads stream contiguously.
        for kk in 0..k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for i in 0..m {
                let aik = arow[i];
                if aik == 0.0 {
                    continue;
                }
                let orow = &mut c[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += aik * brow[j];
                }
            }
        }
    }

    fn matvec(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, k: usize) {
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            y[i] = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
    }

    /// Sequential forward kernel over one contiguous band of images.
    fn conv2d_forward(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        out: &mut [f32],
        geo: &Conv2dGeometry,
    ) {
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n = input.len() / geo.in_len();
        scratch::with_col(geo.col_len(), |col| {
            for img in 0..n {
                let inp = &input[img * geo.in_len()..(img + 1) * geo.in_len()];
                im2col(inp, geo, col);
                let out_img = &mut out[img * geo.out_len()..(img + 1) * geo.out_len()];
                // out_img (F, cols) = W (F, k2) × col (k2, cols)
                for f in 0..geo.out_channels {
                    let wrow = &weights[f * k2..(f + 1) * k2];
                    let orow = &mut out_img[f * cols..(f + 1) * cols];
                    orow.fill(bias[f]);
                    for (kk, &w) in wrow.iter().enumerate() {
                        if w == 0.0 {
                            continue;
                        }
                        let crow = &col[kk * cols..(kk + 1) * cols];
                        for j in 0..cols {
                            orow[j] += w * crow[j];
                        }
                    }
                }
            }
        });
    }

    /// Sequential backward kernel over one contiguous band of images,
    /// accumulating into the provided `dw`/`db` buffers and writing the
    /// band's `dinput` slice.
    fn conv2d_backward(
        &self,
        input: &[f32],
        weights: &[f32],
        delta_out: &[f32],
        dw: &mut [f32],
        db: &mut [f32],
        dinput: &mut [f32],
        geo: &Conv2dGeometry,
    ) {
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n = input.len() / geo.in_len();
        scratch::with_col_pair(geo.col_len(), |col, dcol| {
            for img in 0..n {
                let inp = &input[img * geo.in_len()..(img + 1) * geo.in_len()];
                let dout = &delta_out[img * geo.out_len()..(img + 1) * geo.out_len()];
                im2col(inp, geo, col);
                // dW += δ (F, cols) × colᵀ (cols, k2)
                for f in 0..geo.out_channels {
                    let drow = &dout[f * cols..(f + 1) * cols];
                    let dwrow = &mut dw[f * k2..(f + 1) * k2];
                    for kk in 0..k2 {
                        let crow = &col[kk * cols..(kk + 1) * cols];
                        let mut acc = 0.0f32;
                        for j in 0..cols {
                            acc += drow[j] * crow[j];
                        }
                        dwrow[kk] += acc;
                    }
                }
                // db += Σ spatial δ
                for f in 0..geo.out_channels {
                    db[f] += dout[f * cols..(f + 1) * cols].iter().sum::<f32>();
                }
                if dinput.is_empty() {
                    continue; // the caller wants the parameter gradients only
                }
                // dcol = Wᵀ (k2, F) × δ (F, cols); then scatter to image space.
                dcol.fill(0.0);
                for f in 0..geo.out_channels {
                    let wrow = &weights[f * k2..(f + 1) * k2];
                    let drow = &dout[f * cols..(f + 1) * cols];
                    for kk in 0..k2 {
                        let w = wrow[kk];
                        if w == 0.0 {
                            continue;
                        }
                        let dcrow = &mut dcol[kk * cols..(kk + 1) * cols];
                        for j in 0..cols {
                            dcrow[j] += w * drow[j];
                        }
                    }
                }
                let dinp = &mut dinput[img * geo.in_len()..(img + 1) * geo.in_len()];
                col2im(dcol, geo, dinp);
            }
        });
    }

    fn maxpool_forward(
        &self,
        input: &[f32],
        out: &mut [f32],
        argmax: &mut [u32],
        n: usize,
        geo: &PoolGeometry,
    ) {
        let in_img = geo.channels * geo.in_h * geo.in_w;
        let out_img = geo.channels * geo.out_h * geo.out_w;
        for img in 0..n {
            let inp = &input[img * in_img..(img + 1) * in_img];
            let od = &mut out[img * out_img..(img + 1) * out_img];
            let am = &mut argmax[img * out_img..(img + 1) * out_img];
            for c in 0..geo.channels {
                for oh in 0..geo.out_h {
                    for ow in 0..geo.out_w {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for wi in 0..geo.window {
                            for wj in 0..geo.window {
                                let ih = oh * geo.stride + wi;
                                let iw = ow * geo.stride + wj;
                                let idx = c * geo.in_h * geo.in_w + ih * geo.in_w + iw;
                                if inp[idx] > best {
                                    best = inp[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = c * geo.out_h * geo.out_w + oh * geo.out_w + ow;
                        od[o] = best;
                        am[o] = best_idx as u32;
                    }
                }
            }
        }
    }

    fn maxpool_backward(
        &self,
        delta_out: &[f32],
        argmax: &[u32],
        dinput: &mut [f32],
        n: usize,
        geo: &PoolGeometry,
    ) {
        let in_img = geo.channels * geo.in_h * geo.in_w;
        let out_img = geo.channels * geo.out_h * geo.out_w;
        for img in 0..n {
            let dout = &delta_out[img * out_img..(img + 1) * out_img];
            let am = &argmax[img * out_img..(img + 1) * out_img];
            let dinp = &mut dinput[img * in_img..(img + 1) * in_img];
            for (o, &src) in am.iter().enumerate() {
                dinp[src as usize] += dout[o];
            }
        }
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn hadamard(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((&x, &y), o) in a.iter().zip(b).zip(out.iter_mut()) {
            *o = x * y;
        }
    }

    fn scale(&self, s: f32, a: &[f32], out: &mut [f32]) {
        for (&x, o) in a.iter().zip(out.iter_mut()) {
            *o = x * s;
        }
    }

    fn sum(&self, xs: &[f32]) -> f32 {
        xs.iter().sum()
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }
}
