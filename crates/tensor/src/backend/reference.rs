//! The original scalar kernels, extracted from `ops::*`.
//!
//! This backend is the determinism anchor of the whole reproduction: each
//! output's chain of float operations is exactly the seed
//! implementation's — the same terms, in the same order, a multiply then
//! an add, no fused multiply-add — so every seeded training run, every
//! federation bit-identity gate and every recorded repro table is
//! reproduced bit-for-bit. The loops are the seed's verbatim, down to the
//! convolutions' per-call `vec![0.0; col_len]` im2col/col2im buffers,
//! except `matmul_nt`'s, which advances the chains of two rows and eight
//! columns side by side instead of one after another.

use super::{activate, sums_and_kept, BackendKind, FusedActivation, TensorBackend};
use crate::ops::conv::{col2im, im2col, Conv2dGeometry};
use crate::ops::pool::PoolGeometry;

/// Block edge for the cache-blocked `matmul` kernel (the seed constant).
const BLOCK: usize = 64;

/// Output columns `matmul_nt` carries side by side.
const NT_LANES: usize = 8;

/// Rows `i .. i + R` of `matmul_nt`'s output, [`NT_LANES`] columns at a
/// time and the rest one at a time.
#[inline(always)]
fn nt_rows<const R: usize>(a: &[f32], b: &[f32], c: &mut [f32], i: usize, k: usize, n: usize) {
    let lanes = n - n % NT_LANES;
    for j in (0..lanes).step_by(NT_LANES) {
        nt_block::<R, NT_LANES>(a, b, c, (i, j), k, n);
    }
    for j in lanes..n {
        nt_block::<R, 1>(a, b, c, (i, j), k, n);
    }
}

/// Outputs `C[i + r][j + l]` for `r < R`, `l < W`, with `(i, j) = at`:
/// each its own chain `acc += A[i + r][kk]·B[j + l][kk]` for `kk` from 0,
/// all `R·W` chains advancing one `kk` at a time.
#[inline(always)]
fn nt_block<const R: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    at: (usize, usize),
    k: usize,
    n: usize,
) {
    let (i, j) = at;
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let brows: [&[f32]; W] = std::array::from_fn(|l| &b[(j + l) * k..(j + l + 1) * k]);
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let bs: [f32; W] = std::array::from_fn(|l| brows[l][kk]);
        for (accs, arow) in acc.iter_mut().zip(arows) {
            let x = arow[kk];
            for (acc, &y) in accs.iter_mut().zip(&bs) {
                *acc += x * y;
            }
        }
    }
    for (r, accs) in acc.iter().enumerate() {
        c[(i + r) * n + j..(i + r) * n + j + W].copy_from_slice(accs);
    }
}

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
        // C[i][j] = Σ_k A[i][k]·B[j][k], each output one `acc += a·b`
        // chain over k from 0.0, as the seed wrote it. Pairs of rows and
        // runs of `NT_LANES` columns advance their chains side by side, so
        // the kernel waits on no add but its own output's.
        for i in (0..m - m % 2).step_by(2) {
            nt_rows::<2>(a, b, c, i, k, n);
        }
        if m % 2 == 1 {
            nt_rows::<1>(a, b, c, m - 1, k, n);
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

    /// Sequential forward kernel over one contiguous band of images, into
    /// `z` (or `a`, `z` empty), then an activation sweep: the layers'
    /// historical op order.
    fn conv2d_forward_fused(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        z: &mut [f32],
        a: &mut [f32],
        act: FusedActivation,
        geo: &Conv2dGeometry,
    ) {
        let (sums, kept) = sums_and_kept(z, a);
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n = input.len() / geo.in_len();
        let mut col = vec![0.0; geo.col_len()];
        for img in 0..n {
            let inp = &input[img * geo.in_len()..(img + 1) * geo.in_len()];
            im2col(inp, geo, &mut col);
            let out_img = &mut sums[img * geo.out_len()..(img + 1) * geo.out_len()];
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
        activate(act, sums, kept);
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
        let mut col = vec![0.0; geo.col_len()];
        let mut dcol = vec![0.0; geo.col_len()];
        for img in 0..n {
            let inp = &input[img * geo.in_len()..(img + 1) * geo.in_len()];
            let dout = &delta_out[img * geo.out_len()..(img + 1) * geo.out_len()];
            im2col(inp, geo, &mut col);
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
            col2im(&dcol, geo, dinp);
        }
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
}
