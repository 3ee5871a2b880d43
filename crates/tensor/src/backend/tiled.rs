//! Register-tiled GEMM kernels with virtual-im2col convolutions.
//!
//! Every op here is lowered onto one GEMM core: a 6×16 (`MR`×`NR`)
//! register tile marched over packed operand panels, with the shared
//! dimension blocked in [`KC`]-wide slabs so the active B panel
//! (`KC×NR`, 16 KiB) stays L1-resident and the packed A slab
//! (`m×KC`) streams from L2/L3. The innermost micro-kernel exists
//! twice:
//!
//! * a **portable** safe-Rust kernel written so the autovectorizer can
//!   lift it to whatever SIMD the target baseline has, and
//! * an **x86-64 AVX2+FMA** kernel — the crate's only `unsafe` island —
//!   holding the whole 6×16 tile in twelve YMM accumulators.
//!
//! A [`Tiled::with_isa`] instance is pinned; every other instance runs on
//! the ISA the process resolves once, at first use: the
//! `GRADSEC_TILED_ISA` environment variable (`portable`/`avx2`; any other
//! value panics naming the variable) when set, otherwise AVX2 when
//! `is_x86_feature_detected!` finds it. `avx2` silently falls back to
//! portable on hosts without the features, so CI recipes are portable.
//!
//! `matvec`, `sum` and `dot` are lane reductions ([`LANES`] independent
//! chains, so the loop vectorizes); max pooling and the elementwise maps
//! are memory-bound with nothing to tile, so they are the `Reference`
//! kernels, bit for bit.
//!
//! Convolutions never materialise an im2col buffer (*virtual im2col*).
//! Each kernel call copies its band of images once into zero-padded
//! frames, so every tap of every output position is in bounds, and the
//! packers then move *runs*, not elements: a strip of batched columns
//! `(image, oh, ow)` splits once into its output-row runs, and each tap of
//! the forward B panel is one (strided) row-segment copy per run; error
//! panels and writebacks walk per-image runs as contiguous slices; only
//! dW's transposed panel still gathers, through a tap-offset table with
//! no compare. The backward data pass lands `Wᵀ·Δ` in a column buffer and
//! folds it through a padded gradient frame in canonical `col2im` order.
//! Frames and buffers are plain per-call `Vec`s: the conv path performs
//! **zero** `backend::scratch` checkouts. Forward batches all images of a
//! band into one GEMM whose writeback also applies the fused activation
//! on the final `KC` slab.
//!
//! # Determinism
//!
//! Each output element accumulates in pure ascending-k order, rounded
//! only at fixed `KC` boundaries — independent of the element's position
//! within a tile, of its neighbours, and of how a dispatcher bands rows,
//! columns or images. Both micro-kernels are therefore bit-deterministic
//! run-to-run and under any banding; the AVX2 kernel's FMA contractions
//! mean portable and AVX2 outputs may differ in the last bits (each stays
//! within the ~1e-5 relative parity bound of `Reference`).

use std::borrow::Cow;

use std::sync::OnceLock;

use super::{BackendKind, FusedActivation, Reference, TensorBackend};
use crate::ops::conv::Conv2dGeometry;
use crate::ops::pool::PoolGeometry;

/// Micro-tile rows (register-resident output rows per kernel call).
const MR: usize = 6;
/// Micro-tile columns — two 8-lane AVX2 vectors.
const NR: usize = 16;
/// Shared-dimension slab width: the active B panel is `KC×NR` floats
/// (16 KiB), sized to sit in L1 while it is reused by every row panel.
const KC: usize = 256;

/// One micro-tile of output accumulators.
type Acc = [[f32; NR]; MR];

/// Independent accumulator chains for the `matvec`, `sum` and `dot`
/// reductions.
const LANES: usize = 8;

/// The instruction set the micro-kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TiledIsa {
    /// Safe-Rust autovectorization-friendly kernel; runs anywhere.
    Portable,
    /// x86-64 AVX2+FMA intrinsics kernel.
    Avx2,
}

impl TiledIsa {
    /// Whether the host can execute this ISA's micro-kernel.
    pub fn available(self) -> bool {
        match self {
            TiledIsa::Portable => true,
            TiledIsa::Avx2 => avx2_available(),
        }
    }

    /// Every ISA the host can execute, portable first.
    pub fn available_on_host() -> Vec<TiledIsa> {
        let mut isas = vec![TiledIsa::Portable];
        if TiledIsa::Avx2.available() {
            isas.push(TiledIsa::Avx2);
        }
        isas
    }

    /// Canonical lowercase name (what `GRADSEC_TILED_ISA` matches).
    pub fn name(self) -> &'static str {
        match self {
            TiledIsa::Portable => "portable",
            TiledIsa::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for TiledIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The register-tiled kernel set (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tiled {
    pinned: Option<TiledIsa>,
}

impl Tiled {
    /// The auto-selecting instance `BackendKind::Tiled` resolves to: the
    /// ISA the process resolved once (`GRADSEC_TILED_ISA`, otherwise the
    /// best the host has).
    pub const fn auto() -> Self {
        Tiled { pinned: None }
    }

    /// An instance pinned to one ISA (used by the parity tests to
    /// compare the portable and AVX2 paths in-process). A pinned ISA the
    /// host cannot execute still falls back to portable.
    pub fn with_isa(isa: TiledIsa) -> Self {
        Tiled { pinned: Some(isa) }
    }

    /// The ISA this instance's kernels will actually run on, resolving
    /// pin → the process's ISA, and degrading any unavailable choice to
    /// portable.
    pub fn isa(&self) -> TiledIsa {
        let wanted = self.pinned.unwrap_or_else(process_isa);
        if wanted.available() {
            wanted
        } else {
            TiledIsa::Portable
        }
    }
}

/// What a `GRADSEC_TILED_ISA` value selects: nothing when unset, an ISA
/// for `portable` / `avx2` (case and surrounding whitespace ignored),
/// and an error naming the variable for anything else — a typo in a CI
/// leg must not silently gate the other ISA.
fn parse_isa(value: Option<&str>) -> Result<Option<TiledIsa>, String> {
    let Some(value) = value else { return Ok(None) };
    match value.trim().to_ascii_lowercase().as_str() {
        "portable" => Ok(Some(TiledIsa::Portable)),
        "avx2" => Ok(Some(TiledIsa::Avx2)),
        _ => Err(format!(
            "GRADSEC_TILED_ISA must be unset, `portable` or `avx2`, got {value:?}"
        )),
    }
}

/// The ISA every unpinned instance runs on, resolved once per process:
/// the `GRADSEC_TILED_ISA` override, otherwise AVX2 (which [`Tiled::isa`]
/// degrades to portable on a host without it). A malformed override
/// panics naming the variable, at first use.
fn process_isa() -> TiledIsa {
    static ISA: OnceLock<TiledIsa> = OnceLock::new();
    *ISA.get_or_init(|| {
        let value = std::env::var_os("GRADSEC_TILED_ISA").map(|v| v.to_string_lossy().into_owned());
        let wanted = parse_isa(value.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        wanted.unwrap_or(TiledIsa::Avx2)
    })
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

/// Portable 6×16 micro-kernel: `acc += A_panel · B_panel` over `kc`
/// steps, with `A` packed `kc×MR` (one tile row per element) and `B`
/// packed `kc×NR`. The fixed-width inner loops over `NR` are what the
/// autovectorizer needs to emit full-width SIMD for the baseline target.
fn kernel_portable(kc: usize, a: &[f32], b: &[f32], acc: &mut Acc) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    for kk in 0..kc {
        let ap = &a[kk * MR..kk * MR + MR];
        let bp = &b[kk * NR..kk * NR + NR];
        for (row, &aik) in acc.iter_mut().zip(ap) {
            for (c, &bkj) in row.iter_mut().zip(bp) {
                *c += aik * bkj;
            }
        }
    }
}

/// The crate's single `unsafe` island: the AVX2+FMA micro-kernel.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{Acc, MR, NR};
    use std::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// AVX2+FMA 6×16 micro-kernel: the whole tile lives in twelve YMM
    /// accumulators; each k step broadcasts one packed A element per row
    /// and issues two FMAs against the packed B row.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the host supports AVX2 and FMA, and
    /// that `a.len() >= kc * MR` and `b.len() >= kc * NR` (both also
    /// debug-asserted).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn kernel_6x16(kc: usize, a: &[f32], b: &[f32], acc: &mut Acc) {
        debug_assert!(a.len() >= kc * MR);
        debug_assert!(b.len() >= kc * NR);
        // SAFETY: every pointer below stays inside `a`, `b` or `acc`:
        // the k loop advances `ap` by MR and `bp` by NR exactly `kc`
        // times, within the lengths asserted above, and each acc row is
        // a [f32; NR] giving the two loads/stores 8+8 in-bounds lanes.
        unsafe {
            let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
            for (cr, ar) in c.iter_mut().zip(acc.iter()) {
                cr[0] = _mm256_loadu_ps(ar.as_ptr());
                cr[1] = _mm256_loadu_ps(ar.as_ptr().add(8));
            }
            let mut ap = a.as_ptr();
            let mut bp = b.as_ptr();
            for _ in 0..kc {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (i, cr) in c.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(i));
                    cr[0] = _mm256_fmadd_ps(av, b0, cr[0]);
                    cr[1] = _mm256_fmadd_ps(av, b1, cr[1]);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            for (cr, ar) in c.iter().zip(acc.iter_mut()) {
                _mm256_storeu_ps(ar.as_mut_ptr(), cr[0]);
                _mm256_storeu_ps(ar.as_mut_ptr().add(8), cr[1]);
            }
        }
    }
}

/// Runs one micro-tile on the resolved ISA.
#[inline]
fn run_kernel(isa: TiledIsa, kc: usize, a: &[f32], b: &[f32], acc: &mut Acc) {
    match isa {
        TiledIsa::Portable => kernel_portable(kc, a, b, acc),
        TiledIsa::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `TiledIsa::Avx2` is only ever resolved by
            // `Tiled::isa()` when `is_x86_feature_detected!` confirmed
            // AVX2+FMA on this host; panel lengths are upheld by the
            // driver, which sizes them `kc*MR`/`kc*NR` exactly.
            #[allow(unsafe_code)]
            unsafe {
                avx2::kernel_6x16(kc, a, b, acc)
            }
            #[cfg(not(target_arch = "x86_64"))]
            kernel_portable(kc, a, b, acc)
        }
    }
}

// ---------------------------------------------------------------------------
// Lane reductions
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// GEMM driver
// ---------------------------------------------------------------------------

/// The shared tile driver: `C (m×n) ⊕= A (m×k) · B (k×n)` where all
/// three operands are *virtual* — `pack_a`/`pack_b` gather panel slabs
/// from whatever layout the op has (strided matrices, conv patch taps)
/// and `writeback` lands each finished tile wherever the op's output
/// lives (dense rows, `NCHW` feature maps, scattered `dinput` taps).
///
/// Loop order is `KC` slab → column strip → row panel, so each B panel
/// is packed once and reused by every row panel while L1-resident, and
/// the packed A slab is built once per `KC` slab. `writeback` receives
/// `(i0, rows, j0, cols, acc, first, last)`: `first`/`last` flag the
/// `KC` slab so overwrite-style ops can seed on the first partial and
/// fused activations can fire on the last.
///
/// Packers must fill `dst[step * MR + r]` (A) / `dst[step * NR + c]`
/// (B) for every in-range row/column; the driver pre-zeroes panels with
/// out-of-range padding lanes.
#[allow(clippy::too_many_arguments)]
fn gemm<PA, PB, WB>(
    isa: TiledIsa,
    m: usize,
    k: usize,
    n: usize,
    mut pack_a: PA,
    mut pack_b: PB,
    mut writeback: WB,
) where
    PA: FnMut(usize, usize, usize, usize, &mut [f32]),
    PB: FnMut(usize, usize, usize, usize, &mut [f32]),
    WB: FnMut(usize, usize, usize, usize, &Acc, bool, bool),
{
    if m == 0 || n == 0 {
        return;
    }
    let row_panels = m.div_ceil(MR);
    let slabs = k.div_ceil(KC).max(1);
    let mut packed_a = vec![0.0f32; row_panels * MR * KC.min(k.max(1))];
    let mut b_panel = [0.0f32; KC * NR];
    for slab in 0..slabs {
        let kc0 = slab * KC;
        let kc_len = KC.min(k - kc0);
        let first = slab == 0;
        let last = slab == slabs - 1;
        for pi in 0..row_panels {
            let i0 = pi * MR;
            let rows = MR.min(m - i0);
            let dst = &mut packed_a[pi * MR * kc_len..(pi + 1) * MR * kc_len];
            if rows < MR {
                dst.fill(0.0);
            }
            pack_a(i0, rows, kc0, kc_len, dst);
        }
        let mut j0 = 0;
        while j0 < n {
            let cols = NR.min(n - j0);
            let bp = &mut b_panel[..kc_len * NR];
            if cols < NR {
                bp.fill(0.0);
            }
            pack_b(j0, cols, kc0, kc_len, bp);
            for pi in 0..row_panels {
                let i0 = pi * MR;
                let rows = MR.min(m - i0);
                let ap = &packed_a[pi * MR * kc_len..(pi + 1) * MR * kc_len];
                let mut acc = [[0.0f32; NR]; MR];
                run_kernel(isa, kc_len, ap, bp, &mut acc);
                writeback(i0, rows, j0, cols, &acc, first, last);
            }
            j0 += cols;
        }
    }
}

/// A-panel packer for a strided matrix: element `(i, kk)` lives at
/// `src[i*rs + kk*cs]` (`rs`=row stride, `cs`=k stride), so one closure
/// covers row-major A (`rs=k, cs=1`) and transposed A (`rs=1, cs=m`).
fn pack_a_strided(
    src: &[f32],
    rs: usize,
    cs: usize,
) -> impl FnMut(usize, usize, usize, usize, &mut [f32]) + '_ {
    move |i0, rows, kc0, kc_len, dst: &mut [f32]| {
        for r in 0..rows {
            let base = (i0 + r) * rs + kc0 * cs;
            for kk in 0..kc_len {
                dst[kk * MR + r] = src[base + kk * cs];
            }
        }
    }
}

/// B-panel packer for a strided matrix: element `(kk, j)` lives at
/// `src[kk*rs + j*cs]`.
fn pack_b_strided(
    src: &[f32],
    rs: usize,
    cs: usize,
) -> impl FnMut(usize, usize, usize, usize, &mut [f32]) + '_ {
    move |j0, cols, kc0, kc_len, dst: &mut [f32]| {
        for kk in 0..kc_len {
            let base = (kc0 + kk) * rs + j0 * cs;
            let row = &mut dst[kk * NR..kk * NR + cols];
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = src[base + c * cs];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Convolution layout: a padded band, walked by runs
// ---------------------------------------------------------------------------

/// Splits `len` consecutive indices from `start` into maximal runs inside
/// one `period`-long block: `(offset into the range, block, position in
/// the block, run length)`. Over batched columns `gc = img·(OH·OW) +
/// oh·OW + ow`, period `OW` yields *row runs* (block `img·OH + oh`,
/// position `ow`) and period `OH·OW` *image runs* (block `img`).
fn runs(
    start: usize,
    len: usize,
    period: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        if at == len {
            return None;
        }
        let (block, pos) = ((start + at) / period, (start + at) % period);
        let take = (period - pos).min(len - at);
        at += take;
        Some((at - take, block, pos, take))
    })
}

/// One band of images in zero-padded frames — `(H+2p)×(W+2p)` per
/// channel, image after image — so every tap of every output position is
/// in bounds: the virtual im2col element `(kk, gc)` is
/// `frame[base(gc) + tap_off[kk]]`, no compare.
struct PaddedBand<'a> {
    /// The padded copy, or the input itself when there is no padding.
    frame: Cow<'a, [f32]>,
    /// Per patch row `kk = (c, ki, kj)`: `c·PH·PW + ki·PW + kj`.
    tap_off: Vec<usize>,
    /// Elements per padded image, `C·PH·PW`.
    image_len: usize,
    /// Padded row length `W + 2p`.
    pw: usize,
}

/// `(offset in a padded image, offset in the dense image)` of every
/// `in_w`-long input row, in `(c, ih)` order.
fn interior_rows(geo: &Conv2dGeometry) -> impl Iterator<Item = (usize, usize)> + '_ {
    let (ph, pw) = (geo.in_h + 2 * geo.pad, geo.in_w + 2 * geo.pad);
    (0..geo.in_channels * geo.in_h).map(move |row| {
        let (c, ih) = (row / geo.in_h, row % geo.in_h);
        ((c * ph + ih + geo.pad) * pw + geo.pad, row * geo.in_w)
    })
}

impl<'a> PaddedBand<'a> {
    fn new(input: &'a [f32], geo: &Conv2dGeometry) -> Self {
        let (ph, pw) = (geo.in_h + 2 * geo.pad, geo.in_w + 2 * geo.pad);
        let image_len = geo.in_channels * ph * pw;
        let frame = if geo.pad == 0 {
            Cow::Borrowed(input)
        } else {
            let mut frame = vec![0.0f32; input.len() / geo.in_len() * image_len];
            for (padded, image) in frame.chunks_mut(image_len).zip(input.chunks(geo.in_len())) {
                for (to, from) in interior_rows(geo) {
                    padded[to..to + geo.in_w].copy_from_slice(&image[from..from + geo.in_w]);
                }
            }
            Cow::Owned(frame)
        };
        let k = geo.kernel;
        let tap_off = (0..geo.in_channels * k * k)
            .map(|kk| (kk / (k * k) * ph + kk / k % k) * pw + kk % k)
            .collect();
        PaddedBand {
            frame,
            tap_off,
            image_len,
            pw,
        }
    }

    /// Frame offset of the patch origin of output position `ow` in output
    /// row `grow = img·OH + oh`.
    fn base(&self, grow: usize, ow: usize, geo: &Conv2dGeometry) -> usize {
        (grow / geo.out_h) * self.image_len
            + (grow % geo.out_h) * geo.stride * self.pw
            + ow * geo.stride
    }
}

/// One image's `col2im` scatter, in [`crate::ops::conv::col2im`]'s `(c,
/// ki, kj, oh, ow)` order, into a zeroed padded `frame` — no tap needs a
/// bounds test — whose interior is then added to `dinput`.
fn col2im_padded(
    dcol: &[f32],
    geo: &Conv2dGeometry,
    band: &PaddedBand<'_>,
    frame: &mut [f32],
    dinput: &mut [f32],
) {
    let cols = geo.out_h * geo.out_w;
    frame.fill(0.0);
    for (kk, &off) in band.tap_off.iter().enumerate() {
        for oh in 0..geo.out_h {
            let src = &dcol[kk * cols + oh * geo.out_w..][..geo.out_w];
            let dst = &mut frame[off + oh * geo.stride * band.pw..];
            for (slot, &v) in dst.iter_mut().step_by(geo.stride).zip(src) {
                *slot += v;
            }
        }
    }
    for (from, to) in interior_rows(geo) {
        for (d, &g) in dinput[to..to + geo.in_w].iter_mut().zip(&frame[from..]) {
            *d += g;
        }
    }
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

impl Tiled {
    /// Band-batched forward convolution through the virtual-im2col GEMM:
    /// `Z (F × N·OH·OW) = W · col(input) + b`, with `act(Z)` written to
    /// `a_out` during the final slab writeback when `a_out` is non-empty
    /// (the fused path; the unfused path passes an empty slice).
    #[allow(clippy::too_many_arguments)] // mirrors the TensorBackend fused-hook signature
    fn conv_forward_core(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        z: &mut [f32],
        a_out: &mut [f32],
        act: FusedActivation,
        geo: &Conv2dGeometry,
    ) {
        let isa = self.isa();
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n_imgs = input.len() / geo.in_len();
        let out_len = geo.out_len();
        let fused = !a_out.is_empty();
        let band = PaddedBand::new(input, geo);
        gemm(
            isa,
            geo.out_channels,
            k2,
            n_imgs * cols,
            pack_a_strided(weights, k2, 1),
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                // The strip splits once into its row runs; each tap is
                // then one strided row-segment copy per run.
                let mut row_runs = [(0usize, 0usize, 0usize); NR];
                let mut n_runs = 0;
                for (at, grow, ow, take) in runs(j0, cols_take, geo.out_w) {
                    row_runs[n_runs] = (at, take, band.base(grow, ow, geo));
                    n_runs += 1;
                }
                for (step, &off) in band.tap_off[kc0..kc0 + kc_len].iter().enumerate() {
                    let row = &mut dst[step * NR..step * NR + cols_take];
                    for &(at, take, base) in &row_runs[..n_runs] {
                        let (seg, src) = (&mut row[at..at + take], &band.frame[base + off..]);
                        if geo.stride == 1 {
                            seg.copy_from_slice(&src[..take]);
                        } else {
                            for (slot, &v) in seg.iter_mut().zip(src.iter().step_by(geo.stride)) {
                                *slot = v;
                            }
                        }
                    }
                }
            },
            |i0, rows, j0, cols_take, acc: &Acc, slab_first, slab_last| {
                for (at, img, pos, take) in runs(j0, cols_take, cols) {
                    for (r, arow) in acc.iter().enumerate().take(rows) {
                        let f = i0 + r;
                        let zi = img * out_len + f * cols + pos;
                        let zrow = &mut z[zi..zi + take];
                        for (zv, &av) in zrow.iter_mut().zip(&arow[at..at + take]) {
                            *zv = if slab_first { bias[f] + av } else { *zv + av };
                        }
                        if fused && slab_last {
                            for (a, &zv) in a_out[zi..zi + take].iter_mut().zip(zrow.iter()) {
                                *a = act.apply(zv);
                            }
                        }
                    }
                }
            },
        );
    }
}

impl TensorBackend for Tiled {
    fn kind(&self) -> BackendKind {
        BackendKind::Tiled
    }

    fn matmul(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let isa = self.isa();
        gemm(
            isa,
            m,
            k,
            n,
            pack_a_strided(a, k, 1),
            pack_b_strided(b, n, 1),
            |i0, rows, j0, cols, acc: &Acc, _, _| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + cols];
                    for (cj, &av) in crow.iter_mut().zip(arow) {
                        *cj += av;
                    }
                }
            },
        );
    }

    fn matmul_nt(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let isa = self.isa();
        gemm(
            isa,
            m,
            k,
            n,
            pack_a_strided(a, k, 1),
            pack_b_strided(b, 1, k),
            |i0, rows, j0, cols, acc: &Acc, first, _| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + cols];
                    for (cj, &av) in crow.iter_mut().zip(arow) {
                        *cj = if first { av } else { *cj + av };
                    }
                }
            },
        );
    }

    fn matmul_tn(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let isa = self.isa();
        gemm(
            isa,
            m,
            k,
            n,
            pack_a_strided(a, 1, m),
            pack_b_strided(b, n, 1),
            |i0, rows, j0, cols, acc: &Acc, _, _| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + cols];
                    for (cj, &av) in crow.iter_mut().zip(arow) {
                        *cj += av;
                    }
                }
            },
        );
    }

    fn matvec(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, k: usize) {
        // A single output column wastes 15/16 of the tile; a lane
        // reduction per row is the right kernel for matvec.
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
        self.conv_forward_core(
            input,
            weights,
            bias,
            out,
            &mut [],
            FusedActivation::Identity,
            geo,
        );
    }

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
        self.conv_forward_core(input, weights, bias, z, a, act, geo);
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
        let isa = self.isa();
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n_imgs = input.len() / geo.in_len();
        let gc_total = n_imgs * cols;
        let in_len = geo.in_len();
        let out_len = geo.out_len();
        let band = PaddedBand::new(input, geo);

        // dW (F × k2) += Δ (F × gc) · colᵀ (gc × k2): the batched error
        // matrix is read image run by image run, the transposed virtual
        // im2col through the tap-offset table — still no materialised
        // column buffer.
        gemm(
            isa,
            geo.out_channels,
            gc_total,
            k2,
            |i0, rows, kc0, kc_len, dst: &mut [f32]| {
                for (at, img, pos, take) in runs(kc0, kc_len, cols) {
                    for r in 0..rows {
                        let src = &delta_out[img * out_len + (i0 + r) * cols + pos..][..take];
                        for (step, &d) in src.iter().enumerate() {
                            dst[(at + step) * MR + r] = d;
                        }
                    }
                }
            },
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                // One batched column per panel row: the position is fixed
                // along a row and the taps vary instead.
                let offs = &band.tap_off[j0..j0 + cols_take];
                for (at, grow, ow, take) in runs(kc0, kc_len, geo.out_w) {
                    let base = band.base(grow, ow, geo);
                    for i in 0..take {
                        let src = &band.frame[base + i * geo.stride..];
                        let row = &mut dst[(at + i) * NR..(at + i) * NR + cols_take];
                        for (slot, &off) in row.iter_mut().zip(offs) {
                            *slot = src[off];
                        }
                    }
                }
            },
            |i0, rows, j0, cols_take, acc: &Acc, _, _| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let dwrow = &mut dw[(i0 + r) * k2 + j0..(i0 + r) * k2 + j0 + cols_take];
                    for (dj, &av) in dwrow.iter_mut().zip(arow) {
                        *dj += av;
                    }
                }
            },
        );

        // db (F) += Σ batch+spatial Δ.
        for (f, dbf) in db.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for img in 0..n_imgs {
                let drow = &delta_out[img * out_len + f * cols..img * out_len + (f + 1) * cols];
                for &d in drow {
                    acc += d;
                }
            }
            *dbf += acc;
        }
        if dinput.is_empty() {
            return; // the caller wants the parameter gradients only
        }

        // dInput: dcol (k2 × gc) = Wᵀ · Δ in one band-batched GEMM (the
        // transposed weights pack once for all images), landed in a
        // plain per-call `Vec` blocked per image — deliberately *not* a
        // `backend::scratch` checkout — then folded into image space by
        // the canonical `col2im` scatter. Scattering per image in
        // canonical tap order (rather than per GEMM tile) keeps `dinput`
        // bit-identical under any batch banding: overlapping taps always
        // accumulate in the same order.
        let col_len = k2 * cols;
        let mut dcol = vec![0.0f32; n_imgs * col_len];
        gemm(
            isa,
            k2,
            geo.out_channels,
            gc_total,
            pack_a_strided(weights, 1, k2),
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                for (at, img, pos, take) in runs(j0, cols_take, cols) {
                    for step in 0..kc_len {
                        let src = &delta_out[img * out_len + (kc0 + step) * cols + pos..];
                        dst[step * NR + at..step * NR + at + take].copy_from_slice(&src[..take]);
                    }
                }
            },
            |i0, rows, j0, cols_take, acc: &Acc, first, _| {
                for (at, img, pos, take) in runs(j0, cols_take, cols) {
                    for (r, arow) in acc.iter().enumerate().take(rows) {
                        let drow = &mut dcol[img * col_len + (i0 + r) * cols + pos..][..take];
                        for (d, &av) in drow.iter_mut().zip(&arow[at..at + take]) {
                            *d = if first { av } else { *d + av };
                        }
                    }
                }
            },
        );
        let mut grad_frame = vec![0.0f32; band.image_len];
        for (dcol, dinput) in dcol.chunks(col_len).zip(dinput.chunks_mut(in_len)) {
            col2im_padded(dcol, geo, &band, &mut grad_frame, dinput);
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

    fn dense_forward_fused(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        z: &mut [f32],
        a: &mut [f32],
        act: FusedActivation,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let isa = self.isa();
        let fused = !a.is_empty();
        gemm(
            isa,
            m,
            k,
            n,
            pack_a_strided(input, k, 1),
            pack_b_strided(weights, 1, k),
            |i0, rows, j0, cols, acc: &Acc, first, last| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let base = (i0 + r) * n + j0;
                    for (c, &av) in arow.iter().enumerate().take(cols) {
                        let v = if first {
                            bias[j0 + c] + av
                        } else {
                            z[base + c] + av
                        };
                        z[base + c] = v;
                        if fused && last {
                            a[base + c] = act.apply(v);
                        }
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_resolution_prefers_pin_then_env_then_detect() {
        assert_eq!(
            Tiled::with_isa(TiledIsa::Portable).isa(),
            TiledIsa::Portable
        );
        let auto = Tiled::auto().isa();
        assert!(auto.available());
        let isas = TiledIsa::available_on_host();
        assert_eq!(isas[0], TiledIsa::Portable);
        assert!(isas.contains(&auto));
        // Pinning AVX2 either gets AVX2 (host has it) or degrades.
        let pinned = Tiled::with_isa(TiledIsa::Avx2).isa();
        if TiledIsa::Avx2.available() {
            assert_eq!(pinned, TiledIsa::Avx2);
        } else {
            assert_eq!(pinned, TiledIsa::Portable);
        }
    }

    #[test]
    fn parse_isa_accepts_two_names_and_refuses_the_rest_by_name() {
        assert_eq!(parse_isa(None), Ok(None));
        assert_eq!(parse_isa(Some("portable")), Ok(Some(TiledIsa::Portable)));
        assert_eq!(parse_isa(Some(" AVX2\n")), Ok(Some(TiledIsa::Avx2)));
        for isa in [TiledIsa::Portable, TiledIsa::Avx2] {
            assert_eq!(parse_isa(Some(isa.name())), Ok(Some(isa)));
        }
        for bad in ["portabel", "", "avx512"] {
            let err = parse_isa(Some(bad)).unwrap_err();
            assert!(
                err.contains("GRADSEC_TILED_ISA") && err.contains("`portable`"),
                "{err}"
            );
        }
    }

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
    fn isa_names_roundtrip_display() {
        assert_eq!(TiledIsa::Portable.to_string(), "portable");
        assert_eq!(TiledIsa::Avx2.to_string(), "avx2");
    }

    /// The micro-kernels must agree with a plain triple loop on exact
    /// dyadic inputs (no rounding differences possible), tile padding
    /// included.
    #[test]
    fn microkernels_match_naive_on_dyadic_inputs() {
        let kc = 37;
        let a: Vec<f32> = (0..kc * MR).map(|i| ((i % 7) as f32) * 0.5).collect();
        let b: Vec<f32> = (0..kc * NR)
            .map(|i| ((i % 5) as f32) * 0.25 - 0.5)
            .collect();
        let mut want = [[0.0f32; NR]; MR];
        for kk in 0..kc {
            for (i, row) in want.iter_mut().enumerate() {
                for (j, c) in row.iter_mut().enumerate() {
                    *c += a[kk * MR + i] * b[kk * NR + j];
                }
            }
        }
        for isa in TiledIsa::available_on_host() {
            let mut acc = [[0.0f32; NR]; MR];
            run_kernel(isa, kc, &a, &b, &mut acc);
            assert_eq!(acc, want, "{isa} kernel diverged");
        }
    }

    /// The same GEMM sliced into different row/column bands must be
    /// bit-identical — the property the dispatchers' machine-dependent
    /// banding relies on.
    #[test]
    fn tile_position_does_not_change_results() {
        let (m, k, n) = (13, 300, 23); // crosses a KC slab boundary
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) / 8.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 13 % 19) as f32 - 9.0) / 9.0)
            .collect();
        for isa in TiledIsa::available_on_host() {
            let t = Tiled::with_isa(isa);
            let mut full = vec![0.0f32; m * n];
            t.matmul(&a, &b, &mut full, m, k, n);
            for split in [1usize, 5, 7] {
                let mut banded = vec![0.0f32; m * n];
                let (lo, hi) = banded.split_at_mut(split * n);
                t.matmul(&a[..split * k], &b, lo, split, k, n);
                t.matmul(&a[split * k..], &b, hi, m - split, k, n);
                assert_eq!(full, banded, "{isa} row split {split} diverged");
            }
        }
    }

    // -----------------------------------------------------------------
    // The per-element packers this backend shipped with, kept as the
    // oracle for the run-based ones: same `gemm`, same accumulation
    // order, every im2col element fetched through `tap()`.
    // -----------------------------------------------------------------

    /// Walks the virtual batched column index `gc = img·(OH·OW) + oh·OW + ow`.
    #[derive(Clone, Copy)]
    struct ColCursor {
        img: usize,
        oh: usize,
        ow: usize,
    }

    impl ColCursor {
        fn at(gc: usize, geo: &Conv2dGeometry) -> Self {
            let cols = geo.out_h * geo.out_w;
            ColCursor {
                img: gc / cols,
                oh: (gc % cols) / geo.out_w,
                ow: gc % geo.out_w,
            }
        }

        #[inline]
        fn advance(&mut self, geo: &Conv2dGeometry) {
            self.ow += 1;
            if self.ow == geo.out_w {
                self.ow = 0;
                self.oh += 1;
                if self.oh == geo.out_h {
                    self.oh = 0;
                    self.img += 1;
                }
            }
        }
    }

    /// Per-`kk` patch coordinates: the channel base offset into one image
    /// plus the kernel tap `(ki, kj)` — precomputed once per backward call
    /// so the transposed gathers avoid divisions in their inner loops.
    fn tap_table(geo: &Conv2dGeometry) -> Vec<(usize, usize, usize)> {
        let k = geo.kernel;
        let mut taps = Vec::with_capacity(geo.in_channels * k * k);
        for c in 0..geo.in_channels {
            for ki in 0..k {
                for kj in 0..k {
                    taps.push((c * geo.in_h * geo.in_w, ki, kj));
                }
            }
        }
        taps
    }

    /// The input tap for patch row `kk` at output position `(oh, ow)`, or
    /// zero when the tap lands in the padding ring.
    #[inline]
    fn tap(
        image: &[f32],
        geo: &Conv2dGeometry,
        chan_base: usize,
        ki: usize,
        kj: usize,
        oh: usize,
        ow: usize,
    ) -> f32 {
        let ih = (oh * geo.stride + ki) as isize - geo.pad as isize;
        let iw = (ow * geo.stride + kj) as isize - geo.pad as isize;
        if ih < 0 || ih as usize >= geo.in_h || iw < 0 || iw as usize >= geo.in_w {
            0.0
        } else {
            image[chan_base + ih as usize * geo.in_w + iw as usize]
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn oracle_forward(
        isa: TiledIsa,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        z: &mut [f32],
        a_out: &mut [f32],
        act: FusedActivation,
        geo: &Conv2dGeometry,
    ) {
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n_imgs = input.len() / geo.in_len();
        let in_len = geo.in_len();
        let out_len = geo.out_len();
        let fused = !a_out.is_empty();
        let k = geo.kernel;
        let kk2 = k * k;
        gemm(
            isa,
            geo.out_channels,
            k2,
            n_imgs * cols,
            pack_a_strided(weights, k2, 1),
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                // Virtual im2col: gather the patch taps for `cols_take`
                // consecutive batched columns straight into the panel.
                for step in 0..kc_len {
                    let kk = kc0 + step;
                    let chan_base = (kk / kk2) * geo.in_h * geo.in_w;
                    let ki = (kk % kk2) / k;
                    let kj = kk % k;
                    let mut cur = ColCursor::at(j0, geo);
                    let row = &mut dst[step * NR..step * NR + cols_take];
                    for slot in row.iter_mut() {
                        let image = &input[cur.img * in_len..(cur.img + 1) * in_len];
                        *slot = tap(image, geo, chan_base, ki, kj, cur.oh, cur.ow);
                        cur.advance(geo);
                    }
                }
            },
            |i0, rows, j0, cols_take, acc: &Acc, slab_first, slab_last| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let f = i0 + r;
                    let b = bias[f];
                    let mut cur = ColCursor::at(j0, geo);
                    for &av in arow.iter().take(cols_take) {
                        let zi = cur.img * out_len + f * cols + cur.oh * geo.out_w + cur.ow;
                        let v = if slab_first { b + av } else { z[zi] + av };
                        z[zi] = v;
                        if fused && slab_last {
                            a_out[zi] = act.apply(v);
                        }
                        cur.advance(geo);
                    }
                }
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn oracle_backward(
        isa: TiledIsa,
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
        let n_imgs = input.len() / geo.in_len();
        let gc_total = n_imgs * cols;
        let in_len = geo.in_len();
        let out_len = geo.out_len();
        let taps = tap_table(geo);

        // dW (F × k2) += Δ (F × gc) · colᵀ (gc × k2): the batched error
        // matrix is gathered by geometry, the transposed virtual im2col
        // by the tap table — still no materialised column buffer.
        gemm(
            isa,
            geo.out_channels,
            gc_total,
            k2,
            |i0, rows, kc0, kc_len, dst: &mut [f32]| {
                for r in 0..rows {
                    let f = i0 + r;
                    let mut cur = ColCursor::at(kc0, geo);
                    for step in 0..kc_len {
                        dst[step * MR + r] =
                            delta_out[cur.img * out_len + f * cols + cur.oh * geo.out_w + cur.ow];
                        cur.advance(geo);
                    }
                }
            },
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                for step in 0..kc_len {
                    let mut cur = ColCursor::at(kc0 + step, geo);
                    // One batched column per panel row; `cur` is fixed
                    // here and the taps vary instead.
                    let image = &input[cur.img * in_len..(cur.img + 1) * in_len];
                    let row = &mut dst[step * NR..step * NR + cols_take];
                    for (c, slot) in row.iter_mut().enumerate() {
                        let (chan_base, ki, kj) = taps[j0 + c];
                        *slot = tap(image, geo, chan_base, ki, kj, cur.oh, cur.ow);
                    }
                    let _ = &mut cur;
                }
            },
            |i0, rows, j0, cols_take, acc: &Acc, _, _| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let dwrow = &mut dw[(i0 + r) * k2 + j0..(i0 + r) * k2 + j0 + cols_take];
                    for (dj, &av) in dwrow.iter_mut().zip(arow) {
                        *dj += av;
                    }
                }
            },
        );

        // db (F) += Σ batch+spatial Δ.
        for (f, dbf) in db.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for img in 0..n_imgs {
                let drow = &delta_out[img * out_len + f * cols..img * out_len + (f + 1) * cols];
                for &d in drow {
                    acc += d;
                }
            }
            *dbf += acc;
        }

        // dInput: dcol (k2 × gc) = Wᵀ · Δ in one band-batched GEMM (the
        // transposed weights pack once for all images), landed in a
        // plain per-call `Vec` blocked per image — deliberately *not* a
        // `backend::scratch` checkout — then folded into image space by
        // the canonical `col2im` scatter. Scattering per image in
        // canonical tap order (rather than per GEMM tile) keeps `dinput`
        // bit-identical under any batch banding: overlapping taps always
        // accumulate in the same order.
        let col_len = k2 * cols;
        let mut dcol = vec![0.0f32; n_imgs * col_len];
        gemm(
            isa,
            k2,
            geo.out_channels,
            gc_total,
            pack_a_strided(weights, 1, k2),
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                for step in 0..kc_len {
                    let f = kc0 + step;
                    let mut cur = ColCursor::at(j0, geo);
                    let row = &mut dst[step * NR..step * NR + cols_take];
                    for slot in row.iter_mut() {
                        *slot =
                            delta_out[cur.img * out_len + f * cols + cur.oh * geo.out_w + cur.ow];
                        cur.advance(geo);
                    }
                }
            },
            |i0, rows, j0, cols_take, acc: &Acc, first, _| {
                for (r, arow) in acc.iter().enumerate().take(rows) {
                    let kk2 = i0 + r;
                    let mut cur = ColCursor::at(j0, geo);
                    for &av in arow.iter().take(cols_take) {
                        let di = cur.img * col_len + kk2 * cols + cur.oh * geo.out_w + cur.ow;
                        dcol[di] = if first { av } else { dcol[di] + av };
                        cur.advance(geo);
                    }
                }
            },
        );
        for img in 0..n_imgs {
            crate::ops::conv::col2im(
                &dcol[img * col_len..(img + 1) * col_len],
                geo,
                &mut dinput[img * in_len..(img + 1) * in_len],
            );
        }
    }

    fn signal(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 + seed * 101) % 257) as f32 / 128.0 - 1.0)
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward `z`/`a`, `dW`, `db` and `dInput` of the run-based packers
    /// against the per-element oracle, bit for bit, on every ISA the
    /// host can execute; also the parameters-only backward.
    fn assert_matches_oracle(geo: &Conv2dGeometry, n: usize) {
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let input = signal(n * geo.in_len(), 1);
        let weights = signal(geo.out_channels * k2, 2);
        let bias = signal(geo.out_channels, 3);
        let delta = signal(n * geo.out_len(), 4);
        for isa in TiledIsa::available_on_host() {
            let tiled = Tiled::with_isa(isa);
            let what = format!("{isa} {geo:?} x{n}");
            let (mut z, mut a) = (vec![0.0; delta.len()], vec![0.0; delta.len()]);
            let (mut z0, mut a0) = (z.clone(), a.clone());
            let act = FusedActivation::Tanh;
            tiled.conv2d_forward_fused(&input, &weights, &bias, &mut z, &mut a, act, geo);
            oracle_forward(isa, &input, &weights, &bias, &mut z0, &mut a0, act, geo);
            assert_eq!(bits(&z), bits(&z0), "z {what}");
            assert_eq!(bits(&a), bits(&a0), "a {what}");
            let mut plain = vec![0.0; delta.len()];
            tiled.conv2d_forward(&input, &weights, &bias, &mut plain, geo);
            assert_eq!(bits(&plain), bits(&z0), "unfused z {what}");

            let zeros = |len: usize| (vec![0.0f32; len], vec![0.0f32; len]);
            let ((mut dw, mut dw0), (mut db, mut db0), (mut di, mut di0)) =
                (zeros(weights.len()), zeros(bias.len()), zeros(input.len()));
            tiled.conv2d_backward(&input, &weights, &delta, &mut dw, &mut db, &mut di, geo);
            oracle_backward(
                isa, &input, &weights, &delta, &mut dw0, &mut db0, &mut di0, geo,
            );
            assert_eq!(bits(&dw), bits(&dw0), "dW {what}");
            assert_eq!(bits(&db), bits(&db0), "db {what}");
            assert_eq!(bits(&di), bits(&di0), "dInput {what}");
            let (mut dw, mut db) = (vec![0.0; dw.len()], vec![0.0; db.len()]);
            tiled.conv2d_backward(&input, &weights, &delta, &mut dw, &mut db, &mut [], geo);
            assert_eq!(bits(&dw), bits(&dw0), "params-only dW {what}");
            assert_eq!(bits(&db), bits(&db0), "params-only db {what}");
        }
    }

    /// The shapes the run-splitting has to get right, one by one.
    #[test]
    fn packers_match_the_per_element_oracle_on_named_geometries() {
        // (C, H, W, F, K, stride, pad, images)
        for (c, h, w, f, k, s, p, n) in [
            (3, 32, 32, 12, 5, 2, 2, 4),  // LeNet L1: out_w = NR, one run per strip
            (12, 16, 16, 12, 5, 2, 2, 3), // LeNet L2: k2 = 300 > KC, out_w = 8
            (12, 8, 8, 12, 5, 1, 2, 5),   // LeNet L3/L4: stride 1, five images
            (3, 32, 32, 64, 3, 2, 1, 2),  // AlexNet L1: pad 1, F spans 11 row panels
            (2, 9, 7, 5, 3, 1, 0, 3),     // pad 0 (frame borrowed), in_h != in_w, out_w = 5
            (1, 6, 11, 7, 3, 2, 1, 5), // out_w = 6 does not divide NR; 18 columns an image, so strips cross images
            (2, 5, 40, 3, 3, 1, 1, 2), // out_w = 40 > NR: a strip inside one row
            (1, 4, 4, 2, 5, 1, 2, 1),  // kernel wider than the unpadded input
            (2, 3, 3, 13, 1, 1, 0, 5), // 1x1 kernel, 9 columns an image
            (3, 7, 5, 4, 3, 2, 2, 4),  // pad 2 with stride 2 on a 3x-wide ring
        ] {
            let geo = Conv2dGeometry::new(c, h, w, f, k, s, p).unwrap();
            assert_matches_oracle(&geo, n);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn packers_match_the_per_element_oracle(
            (c, h, w) in (1usize..5, 1usize..13, 1usize..21),
            (f, k, s, p) in (1usize..15, 1usize..6, 1usize..3, 0usize..3),
            n in 1usize..6,
        ) {
            let Ok(geo) = Conv2dGeometry::new(c, h, w, f, k, s, p) else {
                continue; // kernel larger than the padded input
            };
            assert_matches_oracle(&geo, n);
        }
    }
}
