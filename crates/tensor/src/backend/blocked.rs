//! Cache-blocked, unrolled kernels tuned for autovectorization.
//!
//! Safe Rust only (the crate keeps `#![forbid(unsafe_code)]`): the speed
//! comes from classic loop restructuring, not intrinsics —
//!
//! * **fused-k passes** — accumulation-style products ([`gemm_kfused`],
//!   `matmul_tn`, the conv `Wᵀ·δ` pass) fold [`KU`] steps of the shared
//!   dimension into one pass over each output row, quartering the
//!   load/store traffic on C that dominates the reference's one-step
//!   axpy loops and giving the vector units independent multiplies to
//!   overlap;
//! * **k-blocking** — [`gemm_kfused`] additionally tiles the shared
//!   dimension in [`KB`]-row panels so a B panel stays cache-hot while
//!   every output row consumes it (AlexNet's 4096×4096 dense products
//!   re-stream B from memory per row without this); `matmul_tn` keeps
//!   the reference's k-outermost walk, where each B row is consumed in
//!   one pass anyway;
//! * **multi-lane reductions** — dot products and sums accumulate in
//!   [`LANES`] independent chains (`chunks_exact`), breaking the serial
//!   FP dependency the reference kernels carry so the loop vectorizes.
//!
//! Reassociating reductions changes rounding: this backend is fully
//! deterministic (pure functions of its inputs, no host-dependent
//! decisions) but agrees with [`super::Reference`] only to ~1e-5 relative
//! error. Max pooling and the elementwise maps are memory-bound with
//! nothing to block or reorder, so they delegate to the reference
//! kernels and stay bit-identical.

use super::{scratch, BackendKind, Reference, TensorBackend};
use crate::ops::conv::{col2im, im2col, Conv2dGeometry};
use crate::ops::pool::PoolGeometry;

/// Fused steps along the shared (`k`) dimension per output pass.
const KU: usize = 4;

/// Shared-dimension block edge: a `KB`-row panel of B stays hot in cache
/// while every output row consumes it (the reference kernel's blocking,
/// kept here so large products don't re-stream B from memory per row).
const KB: usize = 64;

/// B-rows fused per A-row pass in the `nt` product.
const MR: usize = 4;

/// Independent accumulator chains for reductions.
const LANES: usize = 8;

/// The blocked kernel set (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

/// Multi-lane inner product over equal-length slices.
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let mut tail = 0.0f32;
    for (xv, yv) in xc.remainder().iter().zip(yc.remainder()) {
        tail += xv * yv;
    }
    for (xs, ys) in xc.zip(yc) {
        for l in 0..LANES {
            lanes[l] += xs[l] * ys[l];
        }
    }
    lanes.iter().sum::<f32>() + tail
}

/// Multi-lane sum.
fn sum_lanes(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let chunks = xs.chunks_exact(LANES);
    let mut tail = 0.0f32;
    for &x in chunks.remainder() {
        tail += x;
    }
    for c in chunks {
        for l in 0..LANES {
            lanes[l] += c[l];
        }
    }
    lanes.iter().sum::<f32>() + tail
}

/// `C (m×n) += A (m×k) · B (k×n)` — [`KB`]-blocked along the shared
/// dimension with [`KU`] steps fused per pass over each output row. The
/// reference kernel streams the C row (load + store) once *per* `k`
/// step; fusing four steps quarters that traffic and gives the inner
/// loop four independent multiplies per element for the vector units to
/// overlap, while the k-blocking keeps each B panel cache-hot across all
/// `m` output rows. Both `matmul` and the convolution forward GEMM
/// bottom out here: `matmul` accumulates into the caller's buffer
/// (`bias: None`, matching the reference kernel's contract exactly), the
/// conv forward seeds each output row `i` with `bias[i]` first.
fn gemm_kfused(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    if let Some(bias) = bias {
        for i in 0..m {
            c[i * n..(i + 1) * n].fill(bias[i]);
        }
    }
    for kb in (0..k).step_by(KB) {
        let kmax = (kb + KB).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            let mut kk = kb;
            while kk + KU <= kmax {
                let (v0, v1, v2, v3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
                let b0 = &b[kk * n..(kk + 1) * n];
                let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                for j in 0..n {
                    crow[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
                }
                kk += KU;
            }
            while kk < kmax {
                let v = arow[kk];
                let brow = &b[kk * n..(kk + 1) * n];
                for j in 0..n {
                    crow[j] += v * brow[j];
                }
                kk += 1;
            }
        }
    }
}

impl TensorBackend for Blocked {
    fn kind(&self) -> BackendKind {
        BackendKind::Blocked
    }

    fn matmul(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        gemm_kfused(a, b, c, m, k, n, None);
    }

    fn matmul_nt(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        // C[i][j] = ⟨A row i, B row j⟩ — both contiguous; the win is the
        // multi-lane dot plus processing 4 B-rows per A-row pass so the
        // A-row stays hot.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            let mut j = 0;
            while j + MR <= n {
                // Distinct B rows: the 4 dots share the streamed A row.
                crow[j] = dot_lanes(arow, &b[j * k..(j + 1) * k]);
                crow[j + 1] = dot_lanes(arow, &b[(j + 1) * k..(j + 2) * k]);
                crow[j + 2] = dot_lanes(arow, &b[(j + 2) * k..(j + 3) * k]);
                crow[j + 3] = dot_lanes(arow, &b[(j + 3) * k..(j + 4) * k]);
                j += MR;
            }
            while j < n {
                crow[j] = dot_lanes(arow, &b[j * k..(j + 1) * k]);
                j += 1;
            }
        }
    }

    fn matmul_tn(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        // C[i][j] += A[k][i]·B[k][j], k outermost as in the reference but
        // 4 k-steps fused per pass over C, quartering the C traffic.
        let mut kk = 0;
        while kk + MR <= k {
            let a0 = &a[kk * m..(kk + 1) * m];
            let a1 = &a[(kk + 1) * m..(kk + 2) * m];
            let a2 = &a[(kk + 2) * m..(kk + 3) * m];
            let a3 = &a[(kk + 3) * m..(kk + 4) * m];
            let b0 = &b[kk * n..(kk + 1) * n];
            let b1 = &b[(kk + 1) * n..(kk + 2) * n];
            let b2 = &b[(kk + 2) * n..(kk + 3) * n];
            let b3 = &b[(kk + 3) * n..(kk + 4) * n];
            for i in 0..m {
                let (v0, v1, v2, v3) = (a0[i], a1[i], a2[i], a3[i]);
                let orow = &mut c[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
                }
            }
            kk += MR;
        }
        while kk < k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for i in 0..m {
                let av = arow[i];
                let orow = &mut c[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += av * brow[j];
                }
            }
            kk += 1;
        }
    }

    fn matvec(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, k: usize) {
        for (i, yi) in y.iter_mut().enumerate().take(m) {
            *yi = dot_lanes(&a[i * k..(i + 1) * k], x);
        }
    }

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
                // out_img (F, cols) = W (F, k2) × col (k2, cols) + bias
                gemm_kfused(
                    weights,
                    col,
                    out_img,
                    geo.out_channels,
                    k2,
                    cols,
                    Some(bias),
                );
            }
        });
    }

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
                // dW += δ (F, cols) × colᵀ — contiguous multi-lane dots.
                for f in 0..geo.out_channels {
                    let drow = &dout[f * cols..(f + 1) * cols];
                    let dwrow = &mut dw[f * k2..(f + 1) * k2];
                    for (kk, dwk) in dwrow.iter_mut().enumerate() {
                        *dwk += dot_lanes(drow, &col[kk * cols..(kk + 1) * cols]);
                    }
                    // db += Σ spatial δ (fused with the dW filter walk).
                    db[f] += sum_lanes(drow);
                }
                if dinput.is_empty() {
                    continue; // the caller wants the parameter gradients only
                }
                // dcol = Wᵀ (k2, F) × δ (F, cols): 4 filters fused per
                // pass over dcol, then scatter to image space.
                dcol.fill(0.0);
                let mut f = 0;
                while f + MR <= geo.out_channels {
                    let w0 = &weights[f * k2..(f + 1) * k2];
                    let w1 = &weights[(f + 1) * k2..(f + 2) * k2];
                    let w2 = &weights[(f + 2) * k2..(f + 3) * k2];
                    let w3 = &weights[(f + 3) * k2..(f + 4) * k2];
                    let d0 = &dout[f * cols..(f + 1) * cols];
                    let d1 = &dout[(f + 1) * cols..(f + 2) * cols];
                    let d2 = &dout[(f + 2) * cols..(f + 3) * cols];
                    let d3 = &dout[(f + 3) * cols..(f + 4) * cols];
                    for kk in 0..k2 {
                        let (v0, v1, v2, v3) = (w0[kk], w1[kk], w2[kk], w3[kk]);
                        let dcrow = &mut dcol[kk * cols..(kk + 1) * cols];
                        for j in 0..cols {
                            dcrow[j] += v0 * d0[j] + v1 * d1[j] + v2 * d2[j] + v3 * d3[j];
                        }
                    }
                    f += MR;
                }
                while f < geo.out_channels {
                    let wrow = &weights[f * k2..(f + 1) * k2];
                    let drow = &dout[f * cols..(f + 1) * cols];
                    for (kk, &w) in wrow.iter().enumerate() {
                        if w == 0.0 {
                            continue;
                        }
                        let dcrow = &mut dcol[kk * cols..(kk + 1) * cols];
                        for j in 0..cols {
                            dcrow[j] += w * drow[j];
                        }
                    }
                    f += 1;
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
        // Memory-bound argmax scan: nothing to block, identical to the
        // reference (bit-for-bit).
        Reference.maxpool_forward(input, out, argmax, n, geo);
    }

    fn maxpool_backward(
        &self,
        delta_out: &[f32],
        argmax: &[u32],
        dinput: &mut [f32],
        n: usize,
        geo: &PoolGeometry,
    ) {
        Reference.maxpool_backward(delta_out, argmax, dinput, n, geo);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        // No reduction to reassociate — identical to the reference.
        Reference.axpy(alpha, x, y);
    }

    fn hadamard(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        Reference.hadamard(a, b, out);
    }

    fn scale(&self, s: f32, a: &[f32], out: &mut [f32]) {
        Reference.scale(s, a, out);
    }

    fn sum(&self, xs: &[f32]) -> f32 {
        sum_lanes(xs)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot_lanes(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_reductions_match_serial_on_small_inputs() {
        let xs: Vec<f32> = (0..37).map(|i| (i as f32) * 0.25 - 4.0).collect();
        let ys: Vec<f32> = (0..37).map(|i| 1.0 - (i as f32) * 0.125).collect();
        let serial_sum: f32 = xs.iter().sum();
        let serial_dot: f32 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert!((sum_lanes(&xs) - serial_sum).abs() < 1e-4);
        assert!((dot_lanes(&xs, &ys) - serial_dot).abs() < 1e-4);
    }

    #[test]
    fn gemm_handles_remainder_rows_and_columns() {
        // m, k chosen to exercise the fused-k remainder path; the bias
        // seeds each row, and a second bias-less call must *accumulate*
        // (the reference matmul contract).
        let (m, k, n) = (KU + 3, 5, 71);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_kfused(&a, &b, &mut c, m, k, n, Some(&bias));
        gemm_kfused(&a, &b, &mut c, m, k, n, None);
        for i in 0..m {
            for j in 0..n {
                let mut acc = i as f32;
                for kk in 0..k {
                    acc += 2.0 * a[i * k + kk] * b[kk * n + j];
                }
                assert!(
                    (c[i * n + j] - acc).abs() < 1e-3,
                    "c[{i}][{j}] = {} vs {acc}",
                    c[i * n + j]
                );
            }
        }
    }
}
