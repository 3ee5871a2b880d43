//! Backend parity properties.
//!
//! Three guarantees, each proptested over arbitrary shapes:
//!
//! 1. **Reference ≡ seed** — the `Reference` backend (and therefore every
//!    plain `ops::*` entry point) is *bit-identical* to the pre-backend
//!    seed kernels. The oracles below are verbatim copies of those seed
//!    loops — including the machine-independent conv banding/reduction
//!    schedule — so any reordering regression shows up as a bit diff.
//! 2. **Each backend is deterministic** — running any op twice on the
//!    same inputs yields bit-identical results, including the
//!    thread-banded paths.
//! 3. **Tiled ≈ Reference on every ISA** — the `Tiled` backend agrees
//!    with `Reference` on every op (forward *and* backward) within 1e-5
//!    relative error (scaled by the largest output magnitude, since f32
//!    reassociation error is absolute per accumulation), on the portable
//!    kernel *and* on the AVX2 kernel when the host has one; each ISA
//!    path is individually bit-deterministic, its pooling and
//!    elementwise hooks are `Reference`'s bit for bit, and the fused
//!    conv/dense forward hooks agree with their unfused op sequences
//!    (bit-identically on `Reference`, which runs the default unfused
//!    replay).

use gradsec_tensor::backend::{
    thread_scratch_checkouts, BackendKind, FusedActivation, TensorBackend, Tiled, TiledIsa,
};
use gradsec_tensor::ops::conv::{
    col2im, conv2d_backward_with, conv2d_forward_fused_with, conv2d_forward_with, im2col,
    Conv2dGeometry,
};
use gradsec_tensor::ops::elementwise::{axpy_with, hadamard_with, scale_with};
use gradsec_tensor::ops::matmul::{
    dense_forward_fused_with, matmul_nt_with, matmul_tn_with, matmul_with, matvec_with,
};
use gradsec_tensor::ops::pool::{maxpool_backward_with, maxpool_forward_with, PoolGeometry};
use gradsec_tensor::ops::reduce::{dot_with, sum_with};
use gradsec_tensor::{init, Tensor};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Seed-kernel oracles (verbatim copies of the pre-backend `ops` loops).
// ---------------------------------------------------------------------

/// The seed `matmul_block` kernel: cache-blocked i-k-j with BLOCK = 64.
/// The seed's threaded path splits disjoint row bands through this same
/// kernel, so its output is bit-identical to one full-matrix call.
fn seed_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    const BLOCK: usize = 64;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    let (a, b, c) = (a.data(), b.data(), out.data_mut());
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
    out
}

fn seed_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    let mut out = Tensor::zeros(&[m, n]);
    let (a, b, c) = (a.data(), b.data(), out.data_mut());
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
    out
}

fn seed_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    let (a, b, c) = (a.data(), b.data(), out.data_mut());
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
    out
}

fn seed_matvec(a: &Tensor, x: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let mut out = Tensor::zeros(&[m]);
    for i in 0..m {
        let row = &a.data()[i * k..(i + 1) * k];
        out.data_mut()[i] = row.iter().zip(x.data()).map(|(&a, &b)| a * b).sum();
    }
    out
}

/// The seed banding schedule: machine-independent, a pure function of
/// the batch size and per-image im2col volume.
fn seed_conv_bands(n: usize, col_len: usize) -> usize {
    const PARALLEL_THRESHOLD: usize = 64 * 64;
    const IMAGES_PER_BAND: usize = 4;
    if n < 2 || n * col_len < PARALLEL_THRESHOLD {
        return 1;
    }
    n.div_ceil(IMAGES_PER_BAND)
}

/// The seed `forward_band` kernel over one contiguous image band.
fn seed_forward_band(input: &[f32], wd: &[f32], bd: &[f32], out: &mut [f32], geo: &Conv2dGeometry) {
    let k2 = geo.in_channels * geo.kernel * geo.kernel;
    let cols = geo.out_h * geo.out_w;
    let n = input.len() / geo.in_len();
    let mut col = vec![0.0f32; geo.col_len()];
    for img in 0..n {
        let inp = &input[img * geo.in_len()..(img + 1) * geo.in_len()];
        im2col(inp, geo, &mut col);
        let out_img = &mut out[img * geo.out_len()..(img + 1) * geo.out_len()];
        for f in 0..geo.out_channels {
            let wrow = &wd[f * k2..(f + 1) * k2];
            let orow = &mut out_img[f * cols..(f + 1) * cols];
            orow.fill(bd[f]);
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
}

/// The seed `backward_band` kernel.
fn seed_backward_band(
    input: &[f32],
    wd: &[f32],
    delta_out: &[f32],
    dwd: &mut [f32],
    dbd: &mut [f32],
    dinput: &mut [f32],
    geo: &Conv2dGeometry,
) {
    let k2 = geo.in_channels * geo.kernel * geo.kernel;
    let cols = geo.out_h * geo.out_w;
    let n = input.len() / geo.in_len();
    let mut col = vec![0.0f32; geo.col_len()];
    let mut dcol = vec![0.0f32; geo.col_len()];
    for img in 0..n {
        let inp = &input[img * geo.in_len()..(img + 1) * geo.in_len()];
        let dout = &delta_out[img * geo.out_len()..(img + 1) * geo.out_len()];
        im2col(inp, geo, &mut col);
        for f in 0..geo.out_channels {
            let drow = &dout[f * cols..(f + 1) * cols];
            let dwrow = &mut dwd[f * k2..(f + 1) * k2];
            for kk in 0..k2 {
                let crow = &col[kk * cols..(kk + 1) * cols];
                let mut acc = 0.0f32;
                for j in 0..cols {
                    acc += drow[j] * crow[j];
                }
                dwrow[kk] += acc;
            }
        }
        for f in 0..geo.out_channels {
            dbd[f] += dout[f * cols..(f + 1) * cols].iter().sum::<f32>();
        }
        dcol.fill(0.0);
        for f in 0..geo.out_channels {
            let wrow = &wd[f * k2..(f + 1) * k2];
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

/// Whole-batch seed forward: every image computes identically whatever
/// the banding, so one sequential pass is the bit-exact oracle.
fn seed_conv2d_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geo: &Conv2dGeometry,
) -> Tensor {
    let n = input.dims()[0];
    let mut out = Tensor::zeros(&[n, geo.out_channels, geo.out_h, geo.out_w]);
    seed_forward_band(
        input.data(),
        weights.data(),
        bias.data(),
        out.data_mut(),
        geo,
    );
    out
}

/// Whole-batch seed backward, replicating the band-ordered partial
/// reduction the seed's threaded path performs.
fn seed_conv2d_backward(
    input: &Tensor,
    weights: &Tensor,
    delta_out: &Tensor,
    geo: &Conv2dGeometry,
) -> (Tensor, Tensor, Tensor) {
    let n = input.dims()[0];
    let k2 = geo.in_channels * geo.kernel * geo.kernel;
    let mut dw = Tensor::zeros(&[geo.out_channels, k2]);
    let mut db = Tensor::zeros(&[geo.out_channels]);
    let mut dinput = Tensor::zeros(input.dims());
    let bands = seed_conv_bands(n, geo.col_len());
    if bands == 1 {
        seed_backward_band(
            input.data(),
            weights.data(),
            delta_out.data(),
            dw.data_mut(),
            db.data_mut(),
            dinput.data_mut(),
            geo,
        );
        return (dw, db, dinput);
    }
    let per = n.div_ceil(bands);
    let mut row = 0usize;
    while row < n {
        let take = per.min(n - row);
        let mut dw_part = vec![0.0f32; geo.weight_len()];
        let mut db_part = vec![0.0f32; geo.out_channels];
        seed_backward_band(
            &input.data()[row * geo.in_len()..(row + take) * geo.in_len()],
            weights.data(),
            &delta_out.data()[row * geo.out_len()..(row + take) * geo.out_len()],
            &mut dw_part,
            &mut db_part,
            &mut dinput.data_mut()[row * geo.in_len()..(row + take) * geo.in_len()],
            geo,
        );
        for (x, y) in dw.data_mut().iter_mut().zip(&dw_part) {
            *x += y;
        }
        for (x, y) in db.data_mut().iter_mut().zip(&db_part) {
            *x += y;
        }
        row += take;
    }
    (dw, db, dinput)
}

fn seed_maxpool_forward(input: &Tensor, geo: &PoolGeometry) -> (Tensor, Vec<u32>) {
    let n = input.dims()[0];
    let in_img = geo.channels * geo.in_h * geo.in_w;
    let out_img = geo.channels * geo.out_h * geo.out_w;
    let mut out = Tensor::zeros(&[n, geo.channels, geo.out_h, geo.out_w]);
    let mut argmax = vec![0u32; n * out_img];
    for img in 0..n {
        let inp = &input.data()[img * in_img..(img + 1) * in_img];
        let od = &mut out.data_mut()[img * out_img..(img + 1) * out_img];
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
    (out, argmax)
}

// ---------------------------------------------------------------------
// Tolerances.
// ---------------------------------------------------------------------

/// Asserts `got` agrees with `want` within 1e-5 relative error, scaled by
/// the largest output magnitude (reassociation error is absolute per
/// accumulation, so a near-cancelled element must be judged against the
/// magnitude of the terms that produced it, not its own).
fn assert_rel_close(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length mismatch");
    let scale = want
        .iter()
        .chain(got.iter())
        .fold(1.0f32, |m, x| m.max(x.abs()));
    let tol = 1e-5 * scale;
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!((w - g).abs() <= tol, "{what}[{i}]: {w} vs {g} (tol {tol})");
    }
}

fn t(dims: &[usize], seed: u64) -> Tensor {
    init::uniform(dims, -1.0, 1.0, seed)
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reference matmul family is bit-identical to the seed kernels for
    /// arbitrary shapes (including ones that cross the parallel-banding
    /// threshold), and Tiled agrees within relative tolerance. Both
    /// backends are deterministic.
    #[test]
    fn matmul_family_parity(m in 1usize..72, k in 1usize..48, n in 1usize..72, seed in 0u64..1000) {
        let a = t(&[m, k], seed);
        let b = t(&[k, n], seed + 1);
        let bt = t(&[n, k], seed + 2);
        let x = t(&[k], seed + 3);
        let at = t(&[k, m], seed + 4);

        let reference = matmul_with(&a, &b, BackendKind::Reference).unwrap();
        prop_assert_eq!(reference.data(), seed_matmul(&a, &b).data());
        let ref_nt = matmul_nt_with(&a, &bt, BackendKind::Reference).unwrap();
        prop_assert_eq!(ref_nt.data(), seed_matmul_nt(&a, &bt).data());
        let ref_tn = matmul_tn_with(&at, &b, BackendKind::Reference).unwrap();
        prop_assert_eq!(ref_tn.data(), seed_matmul_tn(&at, &b).data());
        let ref_mv = matvec_with(&a, &x, BackendKind::Reference).unwrap();
        prop_assert_eq!(ref_mv.data(), seed_matvec(&a, &x).data());

        assert_rel_close(
            reference.data(),
            matmul_with(&a, &b, BackendKind::Tiled).unwrap().data(),
            "tiled matmul",
        );
        assert_rel_close(
            ref_nt.data(),
            matmul_nt_with(&a, &bt, BackendKind::Tiled).unwrap().data(),
            "tiled matmul_nt",
        );
        assert_rel_close(
            ref_tn.data(),
            matmul_tn_with(&at, &b, BackendKind::Tiled).unwrap().data(),
            "tiled matmul_tn",
        );
        assert_rel_close(
            ref_mv.data(),
            matvec_with(&a, &x, BackendKind::Tiled).unwrap().data(),
            "tiled matvec",
        );

        for backend in BackendKind::ALL {
            let once = matmul_with(&a, &b, backend).unwrap();
            let twice = matmul_with(&a, &b, backend).unwrap();
            prop_assert_eq!(once.data(), twice.data(), "{} matmul nondeterministic", backend);
        }
    }

    /// Conv forward + both backward passes: Reference bit-identical to the
    /// seed kernels (including the band-ordered dW/db reduction), Tiled
    /// within relative tolerance, both deterministic.
    #[test]
    fn conv2d_parity(
        n in 1usize..6,
        c in 1usize..4,
        h in 3usize..12,
        w in 3usize..12,
        f in 1usize..7,
        kern in 1usize..5,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Clamp the kernel so it fits the padded input (geometry is
        // otherwise rejected, which is covered by the unit tests).
        let kern = kern.min(h + 2 * pad).min(w + 2 * pad);
        let geo = Conv2dGeometry::new(c, h, w, f, kern, stride, pad).unwrap();
        let input = t(&[n, c, h, w], seed);
        let weights = t(&[f, c * kern * kern], seed + 1);
        let bias = t(&[f], seed + 2);
        let delta = t(&[n, f, geo.out_h, geo.out_w], seed + 3);

        let fwd_ref = conv2d_forward_with(&input, &weights, &bias, &geo, BackendKind::Reference).unwrap();
        prop_assert_eq!(
            fwd_ref.data(),
            seed_conv2d_forward(&input, &weights, &bias, &geo).data()
        );
        let (dw_ref, db_ref, di_ref) =
            conv2d_backward_with(&input, &weights, &delta, &geo, BackendKind::Reference).unwrap();
        let (dw_seed, db_seed, di_seed) = seed_conv2d_backward(&input, &weights, &delta, &geo);
        prop_assert_eq!(dw_ref.data(), dw_seed.data());
        prop_assert_eq!(db_ref.data(), db_seed.data());
        prop_assert_eq!(di_ref.data(), di_seed.data());

        let fwd_tld = conv2d_forward_with(&input, &weights, &bias, &geo, BackendKind::Tiled).unwrap();
        assert_rel_close(fwd_ref.data(), fwd_tld.data(), "tiled conv2d_forward");
        let (dw_tld, db_tld, di_tld) =
            conv2d_backward_with(&input, &weights, &delta, &geo, BackendKind::Tiled).unwrap();
        assert_rel_close(dw_ref.data(), dw_tld.data(), "tiled conv2d dW");
        assert_rel_close(db_ref.data(), db_tld.data(), "tiled conv2d db");
        assert_rel_close(di_ref.data(), di_tld.data(), "tiled conv2d dInput");

        for backend in BackendKind::ALL {
            let f1 = conv2d_forward_with(&input, &weights, &bias, &geo, backend).unwrap();
            let f2 = conv2d_forward_with(&input, &weights, &bias, &geo, backend).unwrap();
            prop_assert_eq!(f1.data(), f2.data(), "{} conv fwd nondeterministic", backend);
            let (w1, b1, i1) = conv2d_backward_with(&input, &weights, &delta, &geo, backend).unwrap();
            let (w2, b2, i2) = conv2d_backward_with(&input, &weights, &delta, &geo, backend).unwrap();
            prop_assert_eq!(w1.data(), w2.data(), "{} conv dW nondeterministic", backend);
            prop_assert_eq!(b1.data(), b2.data(), "{} conv db nondeterministic", backend);
            prop_assert_eq!(i1.data(), i2.data(), "{} conv dI nondeterministic", backend);
        }
    }

    /// Pooling: bit-identical to the seed scan on every backend (the
    /// tiled backend deliberately shares the reference kernel).
    #[test]
    fn maxpool_parity(
        n in 1usize..5,
        c in 1usize..4,
        h in 2usize..10,
        w in 2usize..10,
        window in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        // Clamp the window so it fits the input.
        let window = window.min(h).min(w);
        let geo = PoolGeometry::new(c, h, w, window, stride).unwrap();
        let input = t(&[n, c, h, w], seed);
        let (out_seed, am_seed) = seed_maxpool_forward(&input, &geo);
        let delta = t(&[n, c, geo.out_h, geo.out_w], seed + 1);
        for backend in BackendKind::ALL {
            let (out, am) = maxpool_forward_with(&input, &geo, backend).unwrap();
            prop_assert_eq!(out.data(), out_seed.data(), "{} pool fwd diverged", backend);
            prop_assert_eq!(&am, &am_seed, "{} pool argmax diverged", backend);
            let di = maxpool_backward_with(&delta, &am, &geo, backend).unwrap();
            let di_again = maxpool_backward_with(&delta, &am, &geo, backend).unwrap();
            prop_assert_eq!(di.data(), di_again.data(), "{} pool bwd nondeterministic", backend);
        }
        // Backward routes identically whatever the backend: same argmax,
        // same scatter.
        let di_ref = maxpool_backward_with(&delta, &am_seed, &geo, BackendKind::Reference).unwrap();
        let di_tld = maxpool_backward_with(&delta, &am_seed, &geo, BackendKind::Tiled).unwrap();
        prop_assert_eq!(di_ref.data(), di_tld.data());
    }

    /// Elementwise hooks are bit-identical across backends (no
    /// reductions); the reduce hooks agree within relative tolerance and
    /// are deterministic.
    #[test]
    fn elementwise_and_reduce_parity(len in 1usize..300, seed in 0u64..1000, alpha in -2.0f32..2.0) {
        let a = t(&[len], seed);
        let b = t(&[len], seed + 1);
        let had_ref = hadamard_with(&a, &b, BackendKind::Reference).unwrap();
        let had_tld = hadamard_with(&a, &b, BackendKind::Tiled).unwrap();
        prop_assert_eq!(had_ref.data(), had_tld.data());
        prop_assert_eq!(
            scale_with(&a, alpha, BackendKind::Reference).data(),
            scale_with(&a, alpha, BackendKind::Tiled).data()
        );
        let mut y_ref = b.clone();
        axpy_with(alpha, &a, &mut y_ref, BackendKind::Reference).unwrap();
        let mut y_tld = b.clone();
        axpy_with(alpha, &a, &mut y_tld, BackendKind::Tiled).unwrap();
        prop_assert_eq!(y_ref.data(), y_tld.data());

        // Scalar reductions can cancel to near zero, so judge the
        // reassociation error against the L1 mass of the terms summed.
        let sum_ref = sum_with(&a, BackendKind::Reference);
        let sum_tld = sum_with(&a, BackendKind::Tiled);
        let l1: f32 = a.data().iter().map(|x| x.abs()).sum();
        prop_assert!((sum_ref - sum_tld).abs() <= 1e-5 * (1.0 + l1));
        let dot_ref = dot_with(&a, &b, BackendKind::Reference).unwrap();
        let dot_tld = dot_with(&a, &b, BackendKind::Tiled).unwrap();
        let l1d: f32 = a.data().iter().zip(b.data()).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!((dot_ref - dot_tld).abs() <= 1e-5 * (1.0 + l1d));
        for backend in BackendKind::ALL {
            prop_assert_eq!(sum_with(&a, backend), sum_with(&a, backend));
            prop_assert_eq!(dot_with(&a, &b, backend).unwrap(), dot_with(&a, &b, backend).unwrap());
        }
    }

    /// Every micro-kernel ISA the host can run (portable always; AVX2
    /// when detected) agrees with Reference within the relative bound on
    /// GEMM and conv (forward and backward), and each ISA path is
    /// individually bit-deterministic. Portable and AVX2 need not agree
    /// bitwise with *each other* (FMA contraction), only with the bound.
    #[test]
    fn tiled_isa_paths_agree(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..40,
        imgs in 1usize..4,
        seed in 0u64..1000,
    ) {
        let a = t(&[m, k], seed);
        let b = t(&[k, n], seed + 1);
        let reference = matmul_with(&a, &b, BackendKind::Reference).unwrap();

        let geo = Conv2dGeometry::new(2, 7, 7, 5, 3, 1, 1).unwrap();
        let input = t(&[imgs, 2, 7, 7], seed + 2);
        let weights = t(&[5, 2 * 9], seed + 3);
        let bias = t(&[5], seed + 4);
        let delta = t(&[imgs, 5, geo.out_h, geo.out_w], seed + 5);
        let fwd_ref =
            conv2d_forward_with(&input, &weights, &bias, &geo, BackendKind::Reference).unwrap();
        let (dw_ref, db_ref, di_ref) =
            conv2d_backward_with(&input, &weights, &delta, &geo, BackendKind::Reference).unwrap();

        for isa in TiledIsa::available_on_host() {
            let tiled = Tiled::with_isa(isa);
            prop_assert_eq!(tiled.isa(), isa);

            let mut c1 = vec![0.0f32; m * n];
            tiled.matmul(a.data(), b.data(), &mut c1, m, k, n);
            assert_rel_close(reference.data(), &c1, &format!("{isa} matmul"));
            let mut c2 = vec![0.0f32; m * n];
            tiled.matmul(a.data(), b.data(), &mut c2, m, k, n);
            prop_assert_eq!(&c1, &c2, "{} matmul nondeterministic", isa);

            let mut f1 = vec![0.0f32; imgs * geo.out_len()];
            tiled.conv2d_forward(input.data(), weights.data(), bias.data(), &mut f1, &geo);
            assert_rel_close(fwd_ref.data(), &f1, &format!("{isa} conv fwd"));
            let mut f2 = vec![0.0f32; imgs * geo.out_len()];
            tiled.conv2d_forward(input.data(), weights.data(), bias.data(), &mut f2, &geo);
            prop_assert_eq!(&f1, &f2, "{} conv fwd nondeterministic", isa);

            let mut dw = vec![0.0f32; geo.weight_len()];
            let mut db = vec![0.0f32; geo.out_channels];
            let mut di = vec![0.0f32; imgs * geo.in_len()];
            tiled.conv2d_backward(
                input.data(), weights.data(), delta.data(), &mut dw, &mut db, &mut di, &geo,
            );
            assert_rel_close(dw_ref.data(), &dw, &format!("{isa} conv dW"));
            assert_rel_close(db_ref.data(), &db, &format!("{isa} conv db"));
            assert_rel_close(di_ref.data(), &di, &format!("{isa} conv dInput"));
            let mut dw2 = vec![0.0f32; geo.weight_len()];
            let mut db2 = vec![0.0f32; geo.out_channels];
            let mut di2 = vec![0.0f32; imgs * geo.in_len()];
            tiled.conv2d_backward(
                input.data(), weights.data(), delta.data(), &mut dw2, &mut db2, &mut di2, &geo,
            );
            prop_assert_eq!(&dw, &dw2, "{} conv dW nondeterministic", isa);
            prop_assert_eq!(&db, &db2, "{} conv db nondeterministic", isa);
            prop_assert_eq!(&di, &di2, "{} conv dI nondeterministic", isa);
        }
    }

    /// The fused conv/dense forward hooks agree with the unfused op
    /// sequence they replace: bit-identically on Reference (whose
    /// default impls replay the exact historical op order) and
    /// within the relative bound on Tiled (which seeds bias and applies
    /// the activation inside its GEMM writeback).
    #[test]
    fn fused_forward_agrees_with_unfused(
        m in 1usize..20,
        k in 1usize..48,
        n in 1usize..20,
        imgs in 1usize..4,
        act_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let act = [
            FusedActivation::Identity,
            FusedActivation::Relu,
            FusedActivation::Sigmoid,
            FusedActivation::Tanh,
        ][act_idx];

        // Dense: Z = A·Wᵀ + b (bias broadcast row-wise), A = act(Z).
        let input = t(&[m, k], seed);
        let weights = t(&[n, k], seed + 1);
        let bias = t(&[n], seed + 2);
        let geo = Conv2dGeometry::new(2, 6, 6, 4, 3, 1, 1).unwrap();
        let cin = t(&[imgs, 2, 6, 6], seed + 3);
        let cw = t(&[4, 2 * 9], seed + 4);
        let cb = t(&[4], seed + 5);
        for backend in BackendKind::ALL {
            let mut z_want = matmul_nt_with(&input, &weights, backend).unwrap();
            for row in z_want.data_mut().chunks_mut(n) {
                for (zj, &bj) in row.iter_mut().zip(bias.data()) {
                    *zj += bj;
                }
            }
            let a_want: Vec<f32> = z_want.data().iter().map(|&z| act.apply(z)).collect();
            let (z_got, a_got) =
                dense_forward_fused_with(&input, &weights, &bias, act, backend).unwrap();
            if backend == BackendKind::Tiled {
                assert_rel_close(z_want.data(), z_got.data(), "tiled fused dense Z");
                assert_rel_close(&a_want, a_got.data(), "tiled fused dense A");
            } else {
                prop_assert_eq!(z_want.data(), z_got.data(), "{} fused dense Z drifted", backend);
                prop_assert_eq!(&a_want, a_got.data(), "{} fused dense A drifted", backend);
            }

            let z_cwant = conv2d_forward_with(&cin, &cw, &cb, &geo, backend).unwrap();
            let a_cwant: Vec<f32> = z_cwant.data().iter().map(|&z| act.apply(z)).collect();
            let (z_cgot, a_cgot) =
                conv2d_forward_fused_with(&cin, &cw, &cb, &geo, act, backend).unwrap();
            if backend == BackendKind::Tiled {
                assert_rel_close(z_cwant.data(), z_cgot.data(), "tiled fused conv Z");
                assert_rel_close(&a_cwant, a_cgot.data(), "tiled fused conv A");
            } else {
                prop_assert_eq!(z_cwant.data(), z_cgot.data(), "{} fused conv Z drifted", backend);
                prop_assert_eq!(&a_cwant, a_cgot.data(), "{} fused conv A drifted", backend);
            }
        }
    }
}

/// The `Tiled` conv path gathers patch taps straight into GEMM panels
/// (virtual im2col), so it must perform **zero** column-scratch
/// checkouts — while `Reference` on the same shapes materialises its
/// im2col/col2im buffers through the pool. Shapes are single-band
/// (`n = 1`), so the kernels run on the calling thread and the
/// thread-local counter observes exactly this op's traffic.
#[test]
fn tiled_conv_makes_no_scratch_checkouts() {
    let geo = Conv2dGeometry::new(3, 8, 8, 6, 3, 1, 1).unwrap();
    let input = t(&[1, 3, 8, 8], 1);
    let weights = t(&[6, 3 * 9], 2);
    let bias = t(&[6], 3);
    let delta = t(&[1, 6, geo.out_h, geo.out_w], 4);

    let before = thread_scratch_checkouts();
    let _ = conv2d_forward_with(&input, &weights, &bias, &geo, BackendKind::Tiled).unwrap();
    let _ = conv2d_forward_fused_with(
        &input,
        &weights,
        &bias,
        &geo,
        FusedActivation::Relu,
        BackendKind::Tiled,
    )
    .unwrap();
    let _ = conv2d_backward_with(&input, &weights, &delta, &geo, BackendKind::Tiled).unwrap();
    assert_eq!(
        thread_scratch_checkouts() - before,
        0,
        "tiled conv path touched the scratch pool"
    );

    // Sanity: the counter is live — Reference's im2col path does check
    // buffers out on the very same shapes.
    let before = thread_scratch_checkouts();
    let _ = conv2d_forward_with(&input, &weights, &bias, &geo, BackendKind::Reference).unwrap();
    let _ = conv2d_backward_with(&input, &weights, &delta, &geo, BackendKind::Reference).unwrap();
    assert!(
        thread_scratch_checkouts() - before >= 3,
        "reference conv path no longer exercises the scratch pool"
    );
}
