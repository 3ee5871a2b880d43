//! Register-tiled GEMM kernels with virtual-im2col convolutions.
//!
//! Every op here is lowered onto one GEMM core — the convolution's
//! forward, dW and dInput passes included: a 6×16 (`MR`×`NR`) register
//! tile marched over packed operand panels, with the shared dimension
//! blocked in [`KC`]-wide slabs so the active B panel (`KC×NR`, 16 KiB)
//! stays L1-resident and the packed A slab (`m×KC`) streams from L2/L3.
//! The innermost micro-kernel and its band variant (dW's, which
//! broadcasts its A operand straight from a convolution's padded band
//! instead of a packed panel) exist twice:
//!
//! * a **portable** safe-Rust kernel fusing each multiply-add with
//!   `f32::mul_add` (one `fmadd` on aarch64, a libm `fmaf` call on
//!   baseline x86-64), and
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
//! Max pooling is memory-bound with nothing to tile, so it is the
//! `Reference` kernel, bit for bit.
//!
//! Convolutions never materialise an im2col buffer (*virtual im2col*).
//! Each pass reads its B operand out of one band of zero-padded frames
//! through a [`FrameLayout`] — a tap offset per shared index, a row step
//! and an output shape — so every element it reads is in bounds, and the
//! positions one tap reaches along one output row are one contiguous run.
//! Nothing then moves element by element: a strip of batched columns
//! `(image, oh, ow)` splits once into its output-row runs, and each tap of
//! a B panel is one fixed-width vector copy per run. The forward pass and
//! dW read the input band, whose padded rows are stored by stride phase —
//! columns `x ≡ 0 (mod stride)` first, then `x ≡ 1`, and so on; dW is
//! computed as its transpose `col·Δᵀ`, so the band is the band kernel's
//! broadcast operand, read in place, and only the `F`-wide `Δᵀ` panel is
//! packed. dInput is the full correlation of `Δ` with the weights,
//! transposed in `(F, C)` and flipped in `(ki, kj)`: split by the phase
//! `(y mod stride, x mod stride)` of the input position into one GEMM per
//! phase over only the taps that reach it, each reading one padded frame
//! of the error band, and landing its tiles in `dinput` at the phase's
//! strided positions.
//! Frames and buffers are plain per-call `Vec`s, and no column matrix
//! is ever materialised. Forward batches all images of a band into one
//! GEMM whose writeback also applies the fused activation on the final
//! `KC` slab — in place, when the caller keeps no `Z`.
//!
//! # Determinism
//!
//! Each output element accumulates in pure ascending-k order, rounded
//! only at fixed `KC` boundaries — independent of the element's position
//! within a tile, of its neighbours, of which operand a tile broadcasts
//! (products commute exactly, fused or not), and of how a dispatcher
//! bands rows, columns or images. Each step is one fused multiply-add
//! on both kernel sets, so `Tiled` has one answer: portable and AVX2
//! outputs are bit-identical, run-to-run and under any banding (and stay
//! within the ~1e-5 relative parity bound of `Reference`).

use std::borrow::Cow;

use std::sync::OnceLock;

use super::{activate, sums_and_kept, BackendKind, FusedActivation, Reference, TensorBackend};
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
/// packed `kc×NR`, each step fused as the AVX2 kernel's lanes are.
fn kernel_portable(kc: usize, a: &[f32], b: &[f32], acc: &mut Acc) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    for kk in 0..kc {
        let ap = &a[kk * MR..kk * MR + MR];
        let bp = &b[kk * NR..kk * NR + NR];
        for (row, &aik) in acc.iter_mut().zip(ap) {
            for (c, &bkj) in row.iter_mut().zip(bp) {
                *c = aik.mul_add(bkj, *c);
            }
        }
    }
}

/// The crate's single `unsafe` island: the AVX2+FMA kernels.
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
    pub(crate) unsafe fn kernel_6x16(kc: usize, a: &[f32], b: &[f32], acc: &mut Acc) {
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

    /// AVX2+FMA band kernel: [`super::band_panels_portable`]'s contract,
    /// each panel in [`kernel_6x16`]'s twelve accumulators, broadcasting
    /// its `A` elements straight from the frame. Safe to call: it checks
    /// that every element it reads lies inside `frame` and `b`, so no
    /// caller outside this module writes `unsafe`.
    ///
    /// # Panics
    ///
    /// On a host without AVX2 and FMA, when `b` holds fewer than
    /// `pos.len()` rows of `NR`, or when some `offs[i] + pos[kk]` lies
    /// outside `frame`.
    pub(crate) fn band_panels(
        frame: &[f32],
        offs: &[usize],
        pos: &[usize],
        b: &[f32],
        mut emit: impl FnMut(usize, usize, &Acc),
    ) {
        assert!(
            super::avx2_available(),
            "the AVX2 band kernel needs AVX2 and FMA"
        );
        assert!(b.len() >= pos.len() * NR, "one B row per step");
        let reach = offs.iter().max().zip(pos.iter().max());
        assert!(
            reach.is_none_or(|(&o, &p)| o.checked_add(p).is_some_and(|r| r < frame.len())),
            "the band kernel would read past its {}-element frame",
            frame.len()
        );
        for (pi, offs) in offs.chunks(MR).enumerate() {
            // A tail panel repeats its first row: in bounds, and never
            // emitted.
            let mut rows = [offs[0]; MR];
            rows[..offs.len()].copy_from_slice(offs);
            let mut acc = [[0.0f32; NR]; MR];
            // SAFETY: AVX2 and FMA are asserted above, and so is
            // `frame.len() > max(offs) + max(pos) >= rows[i] + pos[kk]`
            // for every row and step; `b` holds `pos.len()` rows of NR.
            unsafe { band_fma(frame, &rows, pos, b, &mut acc) };
            emit(pi * MR, offs.len(), &acc);
        }
    }

    /// [`band_panels`]' kernel for one panel: per step `kk`, row `i`
    /// broadcasts `frame[rows[i] + pos[kk]]` and issues two FMAs against
    /// the packed B row, exactly as [`kernel_6x16`] does with a packed
    /// A element.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the host supports AVX2 and FMA, that
    /// `rows[i] + pos[kk] < frame.len()` for every `i` and `kk`, and that
    /// `b.len() >= pos.len() * NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn band_fma(frame: &[f32], rows: &[usize; MR], pos: &[usize], b: &[f32], acc: &mut Acc) {
        // `wrapping_add`: with no step, a row offset need not be in
        // bounds, and nothing is read through it.
        let from = rows.map(|o| frame.as_ptr().wrapping_add(o));
        // SAFETY: `rows[i] + p` is inside `frame` for every step `p` (the
        // caller's bound; `from[i]`, at `rows[i]`, is then too), `bp`
        // advances by NR exactly `pos.len()` times within `b`, and each
        // acc row is a [f32; NR] giving the two stores 8+8 in-bounds
        // lanes.
        unsafe {
            let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
            let mut bp = b.as_ptr();
            for &p in pos {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (cr, row) in c.iter_mut().zip(&from) {
                    let av = _mm256_set1_ps(*row.add(p));
                    cr[0] = _mm256_fmadd_ps(av, b0, cr[0]);
                    cr[1] = _mm256_fmadd_ps(av, b1, cr[1]);
                }
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

/// Portable band kernel: every `MR`-row panel of `A (m × kc) · B (kc × NR)`
/// for an `A` that is never packed — `A[i][kk] = frame[offs[i] + pos[kk]]`,
/// `m = offs.len()` — with `B` packed `kc×NR` as for [`kernel_portable`],
/// whose lanes' sums it repeats. `emit(i0, rows, acc)` receives each
/// finished panel; rows past `rows` are not computed.
fn band_panels_portable(
    frame: &[f32],
    offs: &[usize],
    pos: &[usize],
    b: &[f32],
    mut emit: impl FnMut(usize, usize, &Acc),
) {
    for (pi, offs) in offs.chunks(MR).enumerate() {
        let mut acc = [[0.0f32; NR]; MR];
        for (&p, bp) in pos.iter().zip(b.chunks_exact(NR)) {
            for (row, &off) in acc.iter_mut().zip(offs) {
                let aik = frame[off + p];
                for (c, &bkj) in row.iter_mut().zip(bp) {
                    *c = aik.mul_add(bkj, *c);
                }
            }
        }
        emit(pi * MR, offs.len(), &acc);
    }
}

/// The band kernel on the resolved ISA (see [`band_panels_portable`]).
fn band_panels(
    isa: TiledIsa,
    frame: &[f32],
    offs: &[usize],
    pos: &[usize],
    b: &[f32],
    emit: impl FnMut(usize, usize, &Acc),
) {
    match isa {
        TiledIsa::Portable => band_panels_portable(frame, offs, pos, b, emit),
        #[cfg(target_arch = "x86_64")]
        TiledIsa::Avx2 => avx2::band_panels(frame, offs, pos, b, emit),
        #[cfg(not(target_arch = "x86_64"))]
        TiledIsa::Avx2 => band_panels_portable(frame, offs, pos, b, emit),
    }
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
        // The last slab is the `KC` tail: never empty (`k = 0` is one
        // slab of zero steps, which packs and multiplies nothing).
        debug_assert!(kc_len <= KC && (kc_len > 0 || k == 0));
        for pi in 0..row_panels {
            let i0 = pi * MR;
            let rows = MR.min(m - i0);
            let dst = &mut packed_a[pi * MR * kc_len..(pi + 1) * MR * kc_len];
            if rows < MR {
                dst.fill(0.0);
            }
            pack_a(i0, rows, kc0, kc_len, dst);
            debug_assert!(
                rows == MR || dst.chunks(MR).all(|s| s[rows..].iter().all(|&x| x == 0.0)),
                "the packer wrote past the {rows}-row `MR` tail"
            );
        }
        let mut j0 = 0;
        while j0 < n {
            let cols = NR.min(n - j0);
            let bp = &mut b_panel[..kc_len * NR];
            if cols < NR {
                bp.fill(0.0);
            }
            pack_b(j0, cols, kc0, kc_len, bp);
            debug_assert!(
                cols == NR || bp.chunks(NR).all(|s| s[cols..].iter().all(|&x| x == 0.0)),
                "the packer wrote past the {cols}-column `NR` tail"
            );
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
// Convolution layout: zero-padded frames, read by runs
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

/// Where a convolution GEMM's B operand lies in a band of zero-padded
/// frames, `image_len` elements an image. Over the batched columns `gc =
/// img·(OH·OW) + oh·OW + ow` of the output shape `(OH, OW)`, element
/// `(kk, gc)` is `frame[base(img·OH + oh, ow) + tap_off[kk]]`: the
/// positions of one output row are one element apart, so a tap of a row
/// run is one contiguous run of the frame, and no read needs a bounds
/// test. The forward pass and dW read the input band through one; dInput
/// reads the error band through one per phase of the input position.
struct FrameLayout {
    /// Per shared index `kk`: where its element of output `(0, 0)` lies.
    tap_off: Vec<usize>,
    /// Frame elements from one output row to the next.
    row_step: usize,
    /// Elements per image frame.
    image_len: usize,
    /// Output rows per image.
    out_h: usize,
    /// Output columns per row.
    out_w: usize,
}

impl FrameLayout {
    /// Frame offset of output position `ow` in output row `grow = img·OH +
    /// oh`: tap `kk` of the positions `ow ..` of that row lies at `base +
    /// tap_off[kk] ..`, one element apart.
    fn base(&self, grow: usize, ow: usize) -> usize {
        debug_assert!(ow < self.out_w, "output column {ow} of {}", self.out_w);
        (grow / self.out_h) * self.image_len + (grow % self.out_h) * self.row_step + ow
    }
}

/// Copies a band of `chans × h × w` images into zeroed `chans × ph × pw`
/// frames: element `(c, y, x)` lands at `(c·ph + top + y)·pw + slot[x]` of
/// its image's frame. When that is the identity the band is its own frame.
fn pad_frames<'a>(
    images: &'a [f32],
    (chans, h, w): (usize, usize, usize),
    (ph, pw, top): (usize, usize, usize),
    slot: &[usize],
) -> Cow<'a, [f32]> {
    let image_len = chans * h * w;
    debug_assert!(
        images.len().is_multiple_of(image_len),
        "a band is whole images"
    );
    if (ph, pw) == (h, w) && slot.iter().enumerate().all(|(x, &at)| at == x) {
        return Cow::Borrowed(images);
    }
    let mut frame = vec![0.0f32; images.len() / image_len * chans * ph * pw];
    for (padded, image) in frame
        .chunks_mut(chans * ph * pw)
        .zip(images.chunks(image_len))
    {
        for (row, from) in image.chunks(w).enumerate() {
            let to = &mut padded[(row / h * ph + top + row % h) * pw..][..pw];
            for (&x, &v) in slot.iter().zip(from) {
                to[x] = v;
            }
        }
    }
    Cow::Owned(frame)
}

/// One band of images in zero-padded frames whose rows are stored by
/// stride phase — columns `x ≡ 0 (mod stride)` first, then `x ≡ 1`, and so
/// on — so the `OW` columns one tap reaches in one output row, `stride`
/// apart in the image, are one contiguous run. At stride 1 the order is
/// the plain one. The forward pass and dW read it.
struct PaddedBand<'a> {
    /// The frames, or the input itself when it is already laid out so
    /// (no padding, stride 1).
    frame: Cow<'a, [f32]>,
    layout: FrameLayout,
}

impl<'a> PaddedBand<'a> {
    fn new(input: &'a [f32], geo: &Conv2dGeometry) -> Self {
        let (ph, pw, k) = (geo.in_h + 2 * geo.pad, geo.in_w + 2 * geo.pad, geo.kernel);
        let mut slot = vec![0; pw];
        let phases = (0..geo.stride).flat_map(|q| (q..pw).step_by(geo.stride));
        for (at, x) in phases.enumerate() {
            slot[x] = at;
        }
        let layout = FrameLayout {
            tap_off: (0..geo.in_channels * k * k)
                .map(|kk| (kk / (k * k) * ph + kk / k % k) * pw + slot[kk % k])
                .collect(),
            row_step: geo.stride * pw,
            image_len: geo.in_channels * ph * pw,
            out_h: geo.out_h,
            out_w: geo.out_w,
        };
        let frame = pad_frames(
            input,
            (geo.in_channels, geo.in_h, geo.in_w),
            (ph, pw, geo.pad),
            &slot[geo.pad..geo.pad + geo.in_w],
        );
        PaddedBand { frame, layout }
    }
}

/// The B panel of the strip `j0 .. j0 + cols` over the shared rows `kc0 ..
/// kc0 + kc_len`, for the forward pass and dInput alike: the strip splits
/// once into its output-row runs, and each run of each shared row is one
/// contiguous copy out of the frame. A run of 16 or 8 positions — all
/// that LeNet's layers cut — is a fixed-width vector move, run by run, not
/// a `memcpy` call.
fn pack_cols(
    frame: &[f32],
    layout: &FrameLayout,
    (j0, cols): (usize, usize),
    (kc0, kc_len): (usize, usize),
    dst: &mut [f32],
) {
    let taps = &layout.tap_off[kc0..kc0 + kc_len];
    for (at, grow, ow, take) in runs(j0, cols, layout.out_w) {
        let from = &frame[layout.base(grow, ow)..];
        match take {
            NR => copy_runs::<NR>(dst, from, taps, at),
            8 => copy_runs::<8>(dst, from, taps, at),
            _ => {
                for (row, &off) in dst.chunks_exact_mut(NR).zip(taps) {
                    row[at..at + take].copy_from_slice(&from[off..][..take]);
                }
            }
        }
    }
}

/// Copies the `W` positions from `from[taps[kk]]` on into columns `at ..`
/// of every B-panel row `kk`.
fn copy_runs<const W: usize>(dst: &mut [f32], from: &[f32], taps: &[usize], at: usize) {
    for (row, &off) in dst.chunks_exact_mut(NR).zip(taps) {
        let run = row[at..]
            .first_chunk_mut::<W>()
            .expect("a run inside its strip");
        *run = *from[off..]
            .first_chunk::<W>()
            .expect("a run inside the frame");
    }
}

/// The filter gradient `dW (F × k2) += Δ (F × gc) · colᵀ`, computed as its
/// transpose `dWᵀ = col · Δᵀ` so that the band is the micro-kernel's
/// broadcast operand, read in place: patch row `kk` at batched column `gc`
/// is `frame[tap_off[kk] + pos[gc]]`, with `pos` the band offsets of one
/// `KC` slab of columns. Only `Δᵀ` is packed, `F` wide, and the writeback
/// transposes each tile into `dw`. Every element is the chain `Δ · colᵀ`
/// sums — ascending columns, cut at the same `KC` slabs — and products
/// commute exactly, so the bits are the same.
fn conv_backward_filters(
    isa: TiledIsa,
    band: &PaddedBand,
    delta_out: &[f32],
    dw: &mut [f32],
    geo: &Conv2dGeometry,
) {
    let (k2, filters) = (geo.in_channels * geo.kernel * geo.kernel, geo.out_channels);
    let cols = geo.out_h * geo.out_w;
    let gc_total = band.frame.len() / band.layout.image_len * cols;
    let mut pos = Vec::with_capacity(KC.min(gc_total));
    let mut b_panel = [0.0f32; KC * NR];
    for kc0 in (0..gc_total).step_by(KC) {
        let kc_len = KC.min(gc_total - kc0);
        pos.clear();
        for (_, grow, ow, take) in runs(kc0, kc_len, geo.out_w) {
            let base = band.layout.base(grow, ow);
            pos.extend(base..base + take);
        }
        for j0 in (0..filters).step_by(NR) {
            let fs = NR.min(filters - j0);
            let bp = &mut b_panel[..kc_len * NR];
            if fs < NR {
                bp.fill(0.0);
            }
            for (at, img, p0, take) in runs(kc0, kc_len, cols) {
                let delta = &delta_out[img * geo.out_len() + j0 * cols + p0..];
                for (c, drow) in delta.chunks(cols).take(fs).enumerate() {
                    for (i, &d) in drow[..take].iter().enumerate() {
                        bp[(at + i) * NR + c] = d;
                    }
                }
            }
            band_panels(
                isa,
                &band.frame,
                &band.layout.tap_off,
                &pos,
                bp,
                |i0, rows, acc| {
                    for (r, arow) in acc.iter().enumerate().take(rows) {
                        for (c, &av) in arow.iter().enumerate().take(fs) {
                            dw[(j0 + c) * k2 + i0 + r] += av;
                        }
                    }
                },
            );
        }
    }
}

/// One axis of a dInput phase: the input coordinates `r, r +
/// stride, …` (`count` of them) and the kernel taps `ki ≡ r + pad (mod
/// stride)` that reach them, ascending, each with its shift: input `r +
/// stride·q` takes tap `ki`'s term from output `q + shift`.
struct AxisPhase {
    r: usize,
    count: usize,
    taps: Vec<(usize, isize)>,
}

/// The phases of one axis of `len` inputs and `out` outputs that some tap
/// reaches, with the zero padding `(before, after)` an error row needs so
/// that every shift of every phase reads inside it.
fn axis_phases(len: usize, out: usize, geo: &Conv2dGeometry) -> (Vec<AxisPhase>, usize, usize) {
    let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
    let phases: Vec<AxisPhase> = (0..s.min(len))
        .map(|r| AxisPhase {
            r,
            count: (len - r).div_ceil(s),
            taps: ((r + p) % s..k)
                .step_by(s)
                .map(|ki| (ki, (r + p) as isize / s as isize - (ki / s) as isize))
                .collect(),
        })
        .filter(|phase| !phase.taps.is_empty())
        .collect();
    let shifts = || {
        phases
            .iter()
            .flat_map(|ph| ph.taps.iter().map(move |&(_, sh)| (ph, sh)))
    };
    let before = shifts().map(|(_, sh)| -sh).max().unwrap_or(0).max(0);
    let last = shifts()
        .map(|(ph, sh)| ph.count as isize - 1 + sh)
        .max()
        .unwrap_or(0);
    let after = (last - (out as isize - 1)).max(0);
    (phases, before as usize, after as usize)
}

/// The backward data pass `dinput += ∂L/∂input` on the GEMM core. dX is
/// the full correlation of `Δ` with the weights, transposed in `(F, C)`
/// and flipped in `(ki, kj)`. Split by the phase `(y mod s, x mod s)` of
/// the dX element, phase φ is one GEMM
/// `dXφ (C × N·posφ) = Wφ (C × F·|tapsφ|) · Bφ` over only the taps that
/// reach it — no FMA meets a zero of a dilated `Δ` — with `Bφ` read by
/// [`pack_cols`] out of one zero-padded frame of the error band, padded
/// as far as the farthest tap shift reaches. Each dX element is one chain
/// over its phase's `(f, ki, kj)` terms in that order, cut at `KC`, added
/// into `dinput` slab by slab at the phase's strided positions: it
/// depends on its own image alone, so any banding lands the same bits.
fn conv_backward_data(
    isa: TiledIsa,
    weights: &[f32],
    delta_out: &[f32],
    dinput: &mut [f32],
    geo: &Conv2dGeometry,
) {
    let n = dinput.len() / geo.in_len();
    // `TensorBackend` callers size `delta_out` themselves.
    assert!(
        dinput.len() == n * geo.in_len() && delta_out.len() == n * geo.out_len(),
        "one error row per filter"
    );
    let (k, s, filters) = (geo.kernel, geo.stride, geo.out_channels);
    let (k2, plane) = (geo.in_channels * k * k, geo.in_h * geo.in_w);
    let (rows, top, bottom) = axis_phases(geo.in_h, geo.out_h, geo);
    let (cols, left, right) = axis_phases(geo.in_w, geo.out_w, geo);
    let (ph, pw) = (top + geo.out_h + bottom, left + geo.out_w + right);
    let slot: Vec<usize> = (left..left + geo.out_w).collect();
    let frame = pad_frames(
        delta_out,
        (filters, geo.out_h, geo.out_w),
        (ph, pw, top),
        &slot,
    );
    for (py, px) in rows
        .iter()
        .flat_map(|py| cols.iter().map(move |px| (py, px)))
    {
        // Shared index `kk` walks `(f, ki, kj)`: where its weight of
        // channel 0 lies, and its frame offset. `Wφ` is packed straight
        // from `weights`, so no copy of it is held.
        let (mut w_off, mut tap_off) = (Vec::new(), Vec::new());
        for f in 0..filters {
            for &(ki, sy) in &py.taps {
                for &(kj, sx) in &px.taps {
                    w_off.push(f * k2 + ki * k + kj);
                    let (y, x) = (top as isize + sy, left as isize + sx);
                    tap_off.push((f * ph + y as usize) * pw + x as usize);
                }
            }
        }
        let layout = FrameLayout {
            tap_off,
            row_step: pw,
            image_len: filters * ph * pw,
            out_h: py.count,
            out_w: px.count,
        };
        gemm(
            isa,
            geo.in_channels,
            w_off.len(),
            n * py.count * px.count,
            |i0, rows, kc0, kc_len, dst: &mut [f32]| {
                for (kk, &o) in w_off[kc0..kc0 + kc_len].iter().enumerate() {
                    for r in 0..rows {
                        dst[kk * MR + r] = weights[o + (i0 + r) * k * k];
                    }
                }
            },
            |j0, take, kc0, kc_len, dst: &mut [f32]| {
                pack_cols(&frame, &layout, (j0, take), (kc0, kc_len), dst)
            },
            |i0, rows, j0, take, acc: &Acc, _, _| {
                for (at, grow, qx, run) in runs(j0, take, px.count) {
                    let (img, qy) = (grow / py.count, grow % py.count);
                    let base = img * geo.in_len() + (py.r + s * qy) * geo.in_w + px.r + s * qx;
                    for (r, arow) in acc.iter().enumerate().take(rows) {
                        let to = dinput[base + (i0 + r) * plane..].iter_mut().step_by(s);
                        for (d, &v) in to.zip(&arow[at..at + run]) {
                            *d += v;
                        }
                    }
                }
            },
        );
    }
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

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

    /// Band-batched forward convolution through the virtual-im2col GEMM:
    /// `Z (F × N·OH·OW) = W · col(input) + b`, whose final slab writeback
    /// lands `act(Z)` — beside `z`, or in place when `z` is empty and the
    /// slabs were summed in `a` itself.
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
        let isa = self.isa();
        let k2 = geo.in_channels * geo.kernel * geo.kernel;
        let cols = geo.out_h * geo.out_w;
        let n_imgs = input.len() / geo.in_len();
        let out_len = geo.out_len();
        let (sums, mut kept) = sums_and_kept(z, a);
        let band = PaddedBand::new(input, geo);
        gemm(
            isa,
            geo.out_channels,
            k2,
            n_imgs * cols,
            pack_a_strided(weights, k2, 1),
            |j0, cols_take, kc0, kc_len, dst: &mut [f32]| {
                pack_cols(
                    &band.frame,
                    &band.layout,
                    (j0, cols_take),
                    (kc0, kc_len),
                    dst,
                )
            },
            |i0, rows, j0, cols_take, acc: &Acc, slab_first, slab_last| {
                for (at, img, pos, take) in runs(j0, cols_take, cols) {
                    for (r, arow) in acc.iter().enumerate().take(rows) {
                        let f = i0 + r;
                        let zi = img * out_len + f * cols + pos;
                        let zrow = &mut sums[zi..zi + take];
                        for (zv, &av) in zrow.iter_mut().zip(&arow[at..at + take]) {
                            *zv = if slab_first { bias[f] + av } else { *zv + av };
                        }
                        if slab_last {
                            let kept = kept.as_deref_mut().map(|a| &mut a[zi..zi + take]);
                            activate(act, zrow, kept);
                        }
                    }
                }
            },
        );
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
        let cols = geo.out_h * geo.out_w;
        let n_imgs = input.len() / geo.in_len();
        let out_len = geo.out_len();
        conv_backward_filters(isa, &PaddedBand::new(input, geo), delta_out, dw, geo);

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

        conv_backward_data(isa, weights, delta_out, dinput, geo);
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
        let (sums, mut kept) = sums_and_kept(z, a);
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
                    let zrow = &mut sums[base..base + cols];
                    for ((zv, &av), &b) in zrow.iter_mut().zip(arow).zip(&bias[j0..]) {
                        *zv = if first { b + av } else { *zv + av };
                    }
                    if last {
                        let kept = kept.as_deref_mut().map(|a| &mut a[base..base + cols]);
                        activate(act, zrow, kept);
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
            TiledIsa::Portable,
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
            TiledIsa::Portable,
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

        oracle_dinput(weights, delta_out, dinput, geo);
    }

    /// The backward data pass element by element, with no frame and no
    /// packer: each dX element `(c, y, x)` walks its phase's terms in the
    /// GEMM's shared order — filters ascending, then the taps `ki ≡ y +
    /// pad` and `kj ≡ x + pad (mod stride)` ascending — reading each error
    /// value by bounds test (zero outside the error map), summed from +0.0
    /// as a micro-kernel lane sums them (fused), and added into `dinput`
    /// one `KC` slab at a time.
    fn oracle_dinput(weights: &[f32], delta_out: &[f32], dinput: &mut [f32], geo: &Conv2dGeometry) {
        let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
        let k2 = geo.in_channels * k * k;
        let taps = |at: usize| (0..k).filter(move |ki| ki % s == (at + p) % s);
        let error = |delta: &[f32], f: usize, oy: usize, ox: usize| {
            let (oh, ow) = (oy / s, ox / s);
            if oh < geo.out_h && ow < geo.out_w {
                delta[(f * geo.out_h + oh) * geo.out_w + ow]
            } else {
                0.0
            }
        };
        for (delta, image) in delta_out
            .chunks(geo.out_len())
            .zip(dinput.chunks_mut(geo.in_len()))
        {
            for (at, slot) in image.iter_mut().enumerate() {
                let (c, y, x) = (
                    at / geo.in_w / geo.in_h,
                    at / geo.in_w % geo.in_h,
                    at % geo.in_w,
                );
                let mut terms = Vec::new();
                for f in 0..geo.out_channels {
                    for ki in taps(y) {
                        for kj in taps(x) {
                            let w = weights[f * k2 + (c * k + ki) * k + kj];
                            // A tap past the input's edge reads padding.
                            let d = match ((y + p).checked_sub(ki), (x + p).checked_sub(kj)) {
                                (Some(oy), Some(ox)) => error(delta, f, oy, ox),
                                _ => 0.0,
                            };
                            terms.push((w, d));
                        }
                    }
                }
                for slab in terms.chunks(KC) {
                    *slot += slab.iter().fold(0.0f32, |acc, &(w, d)| w.mul_add(d, acc));
                }
            }
        }
    }

    /// Values in [-1, 1) whose products and sums round: on dyadic
    /// inputs every chain would be exact, and no summation order could
    /// show.
    fn signal(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 + seed * 101) % 257) as f32 / 128.3 - 1.0)
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
        let act = FusedActivation::Tanh;
        let zero = |len: usize| vec![0.0f32; len];
        let (mut z0, mut a0) = (zero(delta.len()), zero(delta.len()));
        oracle_forward(&input, &weights, &bias, &mut z0, &mut a0, act, geo);
        let (mut dw0, mut db0, mut di0) =
            (zero(weights.len()), zero(bias.len()), zero(input.len()));
        oracle_backward(&input, &weights, &delta, &mut dw0, &mut db0, &mut di0, geo);
        for isa in TiledIsa::available_on_host() {
            let tiled = Tiled::with_isa(isa);
            let what = format!("{isa} {geo:?} x{n}");
            let (mut z, mut a) = (zero(delta.len()), zero(delta.len()));
            tiled.conv2d_forward_fused(&input, &weights, &bias, &mut z, &mut a, act, geo);
            assert_eq!(bits(&z), bits(&z0), "z {what}");
            assert_eq!(bits(&a), bits(&a0), "a {what}");
            let mut plain = zero(delta.len());
            let identity = FusedActivation::Identity;
            tiled.conv2d_forward_fused(&input, &weights, &bias, &mut [], &mut plain, identity, geo);
            assert_eq!(bits(&plain), bits(&z0), "unfused z {what}");

            let (mut dw, mut db, mut di) = (zero(dw0.len()), zero(db0.len()), zero(di0.len()));
            tiled.conv2d_backward(&input, &weights, &delta, &mut dw, &mut db, &mut di, geo);
            assert_eq!(bits(&dw), bits(&dw0), "dW {what}");
            assert_eq!(bits(&db), bits(&db0), "db {what}");
            assert_eq!(bits(&di), bits(&di0), "dInput {what}");
            let (mut dw, mut db) = (zero(dw.len()), zero(db.len()));
            tiled.conv2d_backward(&input, &weights, &delta, &mut dw, &mut db, &mut [], geo);
            assert_eq!(bits(&dw), bits(&dw0), "params-only dW {what}");
            assert_eq!(bits(&db), bits(&db0), "params-only db {what}");
        }
    }

    /// Error rows that stop short of a whole image panic in dInput's
    /// entry check, before a phase GEMM packs its error frame from them.
    #[test]
    #[should_panic(expected = "one error row per filter")]
    fn a_short_trailing_error_image_panics() {
        let geo = Conv2dGeometry::new(1, 4, 4, 2, 3, 1, 1).unwrap();
        let (input, weights) = (signal(geo.in_len(), 1), signal(2 * 9, 2));
        let delta = signal(geo.out_len() + 5, 4);
        let (mut dw, mut db) = (vec![0.0; weights.len()], vec![0.0; 2]);
        let mut dinput = vec![0.0; 2 * geo.in_len()];
        let tiled = Tiled::auto();
        tiled.conv2d_backward(
            &input,
            &weights,
            &delta,
            &mut dw,
            &mut db,
            &mut dinput,
            &geo,
        );
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
            (4, 8, 8, 16, 3, 1, 1, 3), // F = 16: dInput's chains 16 × 9 terms long
            (3, 9, 9, 17, 3, 2, 1, 2), // F = 17, stride 2: dInput phases of 4, 2, 2 and 1 taps
            (2, 4, 4, 300, 3, 1, 1, 2), // F = 300 > KC: dInput's chains split at KC ten times
            (2, 11, 10, 5, 4, 3, 1, 2), // stride 3: dInput phases of unequal size
            (2, 5, 7, 3, 2, 2, 3, 2),  // pad 3 > k − 1: dInput's taps reach past the error map
            (1, 8, 7, 2, 2, 3, 0, 2),  // k < stride: one dInput phase per axis no tap reaches
            // Pad 0, and the last output's last tap is the input's final
            // element: the frame is the input itself at stride 1 and
            // phase-ordered to its last slot at strides 2 and 3.
            (2, 4, 6, 3, 3, 1, 0, 2),  // stride 1, out_w = 4
            (1, 3, 18, 2, 3, 1, 0, 2), // stride 1, out_w = NR: one 16-wide run a strip
            (1, 5, 5, 2, 3, 2, 0, 1),  // stride 2, out 2×2
            (1, 5, 19, 2, 3, 2, 0, 2), // stride 2, out_w = 9: an 8-wide piece and a tail
            (2, 7, 10, 3, 4, 3, 0, 2), // stride 3, out 2×3
        ] {
            let geo = Conv2dGeometry::new(c, h, w, f, k, s, p).unwrap();
            assert_matches_oracle(&geo, n);
        }
    }

    /// dInput on the GEMM core: LeNet L2 splits into phases of 9, 6, 6 and
    /// 4 taps, and on every ISA each band lands the per-element oracle's
    /// bits — at strides 1 to 3, with pad ≥ kernel, with a phase no tap
    /// reaches, and with chains past `KC` — and the bits of its images
    /// taken one at a time.
    #[test]
    fn dinput_phases_land_the_per_element_bits() {
        let l2 = Conv2dGeometry::new(12, 16, 16, 12, 5, 2, 2).unwrap();
        let (phases, ..) = axis_phases(l2.in_h, l2.out_h, &l2);
        let taps: Vec<usize> = (phases.iter())
            .flat_map(|py| phases.iter().map(|px| py.taps.len() * px.taps.len()))
            .collect();
        assert_eq!(taps, [9, 6, 6, 4]);
        // (C, H, W, F, K, stride, pad, images)
        for (c, h, w, f, k, s, p, n) in [
            (12, 16, 16, 12, 5, 2, 2, 4), // LeNet L2
            (12, 8, 8, 12, 5, 1, 2, 3),   // LeNet L3: 300 terms, cut at KC
            (3, 7, 8, 40, 3, 3, 1, 2),    // stride 3: 40 × 9 terms in the middle phase
            (2, 3, 4, 5, 1, 1, 2, 2),     // pad 2 > k − 1
            (2, 6, 5, 3, 2, 2, 3, 3),     // pad 3, stride 2
            (1, 9, 9, 2, 1, 2, 0, 2),     // 1×1 at stride 2: three phases get nothing
        ] {
            let geo = Conv2dGeometry::new(c, h, w, f, k, s, p).unwrap();
            let weights = signal(f * c * k * k, 2);
            let delta = signal(n * geo.out_len(), 4);
            let mut want = vec![0.0f32; n * geo.in_len()];
            oracle_dinput(&weights, &delta, &mut want, &geo);
            for isa in TiledIsa::available_on_host() {
                let what = format!("{isa} {geo:?} x{n}");
                let mut got = vec![0.0f32; want.len()];
                conv_backward_data(isa, &weights, &delta, &mut got, &geo);
                assert_eq!(bits(&got), bits(&want), "dInput {what}");
                let one_by_one: Vec<f32> = (delta.chunks(geo.out_len()))
                    .flat_map(|d| {
                        let mut di = vec![0.0f32; geo.in_len()];
                        conv_backward_data(isa, &weights, d, &mut di, &geo);
                        di
                    })
                    .collect();
                assert_eq!(bits(&one_by_one), bits(&got), "banded dInput {what}");
            }
        }
    }

    /// Element `(kk, gc)` of the batched virtual im2col matrix, fetched
    /// through `tap()`.
    fn col_at(input: &[f32], geo: &Conv2dGeometry, kk: usize, gc: usize) -> f32 {
        let (k, cur) = (geo.kernel, ColCursor::at(gc, geo));
        let image = &input[cur.img * geo.in_len()..][..geo.in_len()];
        let chan_base = kk / (k * k) * geo.in_h * geo.in_w;
        tap(image, geo, chan_base, kk / k % k, kk % k, cur.oh, cur.ow)
    }

    /// The operands the convolutions no longer gather element by element
    /// equal the per-element ones: every forward B panel built by runs
    /// is the panel `tap()` fills, and the band kernel reading dW's col
    /// operand in place lands each tile's bits as the micro-kernel does
    /// on that operand packed from `tap()`, on every ISA.
    #[test]
    fn run_built_and_direct_read_operands_equal_the_per_element_panels() {
        // (C, H, W, F, K, stride, pad, images)
        for (c, h, w, f, k, s, p, n) in [
            (3, 32, 32, 12, 5, 2, 2, 2),  // LeNet L1
            (12, 16, 16, 12, 5, 2, 2, 5), // LeNet L2: k2 = 300 > KC, 320 columns > KC
            (1, 6, 11, 7, 3, 2, 1, 5),    // strips cross images
            (1, 5, 19, 2, 3, 2, 0, 2),    // pad 0, stride 2, the input's last element read
            (2, 7, 10, 3, 4, 3, 0, 2),    // pad 0, stride 3
            (2, 4, 6, 3, 3, 1, 0, 2),     // pad 0, stride 1: the input itself
        ] {
            let geo = Conv2dGeometry::new(c, h, w, f, k, s, p).unwrap();
            let input = signal(n * geo.in_len(), 1);
            let band = PaddedBand::new(&input, &geo);
            let k2 = c * k * k;
            let gc_total = n * geo.out_h * geo.out_w;
            for kc0 in (0..k2).step_by(KC) {
                let kc_len = KC.min(k2 - kc0);
                for j0 in (0..gc_total).step_by(NR) {
                    let cols = NR.min(gc_total - j0);
                    let mut got = vec![0.0f32; kc_len * NR];
                    pack_cols(
                        &band.frame,
                        &band.layout,
                        (j0, cols),
                        (kc0, kc_len),
                        &mut got,
                    );
                    let mut want = vec![0.0f32; kc_len * NR];
                    for (step, row) in want.chunks_mut(NR).enumerate() {
                        for (col, slot) in row[..cols].iter_mut().enumerate() {
                            *slot = col_at(&input, &geo, kc0 + step, j0 + col);
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "B panel {geo:?} at ({kc0}, {j0})");
                }
            }
            for isa in TiledIsa::available_on_host() {
                for kc0 in (0..gc_total).step_by(KC) {
                    let kc_len = KC.min(gc_total - kc0);
                    let mut pos = Vec::new();
                    for (_, grow, ow, take) in runs(kc0, kc_len, geo.out_w) {
                        let base = band.layout.base(grow, ow);
                        pos.extend(base..base + take);
                    }
                    let b = signal(kc_len * NR, 7);
                    let mut tiles = 0;
                    band_panels(
                        isa,
                        &band.frame,
                        &band.layout.tap_off,
                        &pos,
                        &b,
                        |i0, rows, acc| {
                            let mut a = vec![0.0f32; kc_len * MR];
                            for (step, panel) in a.chunks_mut(MR).enumerate() {
                                for (r, slot) in panel[..rows].iter_mut().enumerate() {
                                    *slot = col_at(&input, &geo, i0 + r, kc0 + step);
                                }
                            }
                            let mut want = [[0.0f32; NR]; MR];
                            run_kernel(isa, kc_len, &a, &b, &mut want);
                            assert_eq!(
                                acc[..rows],
                                want[..rows],
                                "{isa} dW tile {geo:?} at ({i0}, {kc0})"
                            );
                            tiles += 1;
                        },
                    );
                    assert_eq!(tiles, k2.div_ceil(MR), "{isa} panels {geo:?}");
                }
            }
        }
    }

    /// A band kernel offset that would reach past the frame panics on
    /// every ISA — on AVX2 before any load could read there.
    #[test]
    fn a_band_read_past_the_frame_panics() {
        let (frame, b) = (signal(40, 1), signal(2 * NR, 2));
        for isa in TiledIsa::available_on_host() {
            let read = std::panic::catch_unwind(|| {
                band_panels(isa, &frame, &[0, 30], &[5, 10], &b, |_, _, _| {});
            });
            assert!(read.is_err(), "{isa} read past the frame");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn packers_match_the_per_element_oracle(
            (c, h, w) in (1usize..5, 1usize..13, 1usize..21),
            (f, k, s, p) in (1usize..40, 1usize..6, 1usize..4, 0usize..3),
            n in 1usize..6,
        ) {
            let Ok(geo) = Conv2dGeometry::new(c, h, w, f, k, s, p) else {
                continue; // kernel larger than the padded input
            };
            assert_matches_oracle(&geo, n);
        }
    }
}
