//! Pluggable tensor kernel backends.
//!
//! Every hot path of the reproduction — LeNet-5/AlexNet convolutions,
//! dense matmuls, the per-client cycles the federation engine fans out —
//! bottoms out in the kernels behind [`TensorBackend`]. The trait makes
//! that kernel set swappable the way the transport layer made the round
//! exchange swappable: the `ops::*` modules stay the public API (shape
//! validation, allocation, thread banding) and dispatch the innermost
//! loops to a backend chosen per call site.
//!
//! Three backends ship today:
//!
//! * [`BackendKind::Reference`] — the original scalar kernels, extracted
//!   verbatim from `ops::*`. This is the default everywhere and the
//!   determinism anchor: its results are bit-identical to the pre-backend
//!   kernels, so every seeded test and federation bit-identity gate holds
//!   unchanged.
//! * [`BackendKind::Blocked`] — cache-blocked, unrolled, safe Rust tuned
//!   for autovectorization. Deterministic (same inputs → bit-identical
//!   outputs) but *not* bit-identical to `Reference`: its kernels
//!   reassociate floating-point reductions, so outputs agree only to
//!   ~1e-5 relative error.
//! * [`BackendKind::Tiled`] — register-tiled GEMM micro-kernels (6×16
//!   tiles over packed panels) with two interchangeable inner kernels: a
//!   portable safe-Rust one and an x86-64 AVX2+FMA one (the crate's only
//!   `unsafe` island), selected at runtime via `is_x86_feature_detected!`
//!   with a `GRADSEC_TILED_ISA` override. Convolutions consume their
//!   input through a *virtual im2col* packer — a zero-padded copy of the
//!   band read in row runs — so the conv path checks no column scratch
//!   out of the pool at all. Same contract as `Blocked`:
//!   deterministic per ISA path, ~1e-5 relative parity with `Reference`.
//!
//! Backend choice is a per-run policy, not a per-op one: the `nn` layers
//! carry a [`BackendKind`] into every forward/backward call,
//! `Sequential::replicate` copies it into per-client/per-worker model
//! replicas, and `FederationBuilder::backend(...)` selects it for a
//! whole federation run. Within one backend, flat/sharded/faulted runs
//! stay bit-identical for any worker/shard/transport combination.

mod blocked;
mod reference;
pub(crate) mod scratch;
mod tiled;

pub use blocked::Blocked;
pub use reference::Reference;
pub use tiled::{Tiled, TiledIsa};

/// Column-scratch checkouts performed by the calling thread so far (a
/// monotonic counter). Banded conv dispatchers may run bands on other
/// threads of the caller's budget, so observe this across a
/// *single-band* op to see exactly that op's scratch traffic — the
/// `Tiled` backend's virtual-im2col conv path is asserted to add zero.
pub fn thread_scratch_checkouts() -> u64 {
    scratch::thread_checkouts()
}

use crate::ops::conv::Conv2dGeometry;
use crate::ops::pool::PoolGeometry;

/// Selects a [`TensorBackend`] implementation.
///
/// This is the value the layers, the model container and the federation
/// builder thread around; resolve it to kernels with
/// [`BackendKind::kernels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The original scalar kernels — the default, bit-identical to the
    /// seed implementation.
    #[default]
    Reference,
    /// Cache-blocked, unrolled, autovectorization-friendly kernels —
    /// deterministic, ~1e-5 relative parity with `Reference`.
    Blocked,
    /// Register-tiled GEMM micro-kernels (portable or AVX2+FMA, chosen
    /// at runtime) with virtual-im2col convolutions — deterministic per
    /// ISA path, ~1e-5 relative parity with `Reference`.
    Tiled,
}

static REFERENCE: Reference = Reference;
static BLOCKED: Blocked = Blocked;
static TILED: Tiled = Tiled::auto();

impl BackendKind {
    /// Every selectable backend, in documentation order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Reference,
        BackendKind::Blocked,
        BackendKind::Tiled,
    ];

    /// Resolves the selector to its kernel implementation.
    pub fn kernels(self) -> &'static dyn TensorBackend {
        match self {
            BackendKind::Reference => &REFERENCE,
            BackendKind::Blocked => &BLOCKED,
            BackendKind::Tiled => &TILED,
        }
    }

    /// The selector's canonical lowercase name (what
    /// [`BackendKind::parse`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Blocked => "blocked",
            BackendKind::Tiled => "tiled",
        }
    }

    /// Parses a backend name (case-insensitive, surrounding whitespace
    /// ignored). Returns `None` for unrecognised names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" => Some(BackendKind::Reference),
            "blocked" => Some(BackendKind::Blocked),
            "tiled" => Some(BackendKind::Tiled),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An elementwise activation a kernel may fuse into its output
/// writeback.
///
/// The variants mirror the `nn` crate's activation formulas *exactly*
/// (same scalar expressions), so a fused kernel that applies
/// [`FusedActivation::apply`] to its final accumulated pre-activation
/// produces bit-identical activations to the unfused
/// kernel-then-elementwise-map path within the same backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FusedActivation {
    /// Identity: `f(z) = z`.
    #[default]
    Identity,
    /// Rectified linear unit: `f(z) = max(0, z)`.
    Relu,
    /// Logistic sigmoid: `f(z) = 1/(1+e^{−z})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl FusedActivation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(self, z: f32) -> f32 {
        match self {
            FusedActivation::Identity => z,
            FusedActivation::Relu => z.max(0.0),
            FusedActivation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
            FusedActivation::Tanh => z.tanh(),
        }
    }
}

/// The swappable kernel set behind `ops::*`.
///
/// Implementations are stateless and shared (`&'static`): all buffers
/// arrive as arguments, pre-validated and pre-sized by the dispatchers in
/// `ops::matmul`, `ops::conv`, `ops::pool`, `ops::elementwise` and
/// `ops::reduce` — kernels may assume consistent lengths (the dispatchers
/// debug-assert them) and must not allocate per element.
///
/// # Contract
///
/// * **Determinism** — a kernel's output is a pure function of its
///   inputs: same inputs twice → bit-identical outputs, on any machine.
///   Banding decisions that could vary by host (core count) live in the
///   dispatchers and only ever split work in result-preserving ways.
/// * **Accumulation** — `matmul` and `matmul_tn` *accumulate* into `c`
///   (every implementation; the dispatchers supply a zeroed buffer),
///   while `matmul_nt`, `matvec` and `conv2d_forward` overwrite every
///   output element; `conv2d_backward` accumulates into `dw`/`db`
///   (per-band partials are reduced by the dispatcher in band order)
///   and into `dinput`.
pub trait TensorBackend: Send + Sync + std::fmt::Debug {
    /// The selector this implementation answers to.
    fn kind(&self) -> BackendKind;

    /// `C (m×n) += A (m×k) · B (k×n)`, row-major, accumulating into `c`
    /// (the dispatcher supplies a zeroed buffer).
    fn matmul(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// `C (m×n) = A (m×k) · Bᵀ` with `B` stored `(n×k)`; overwrites
    /// every element of `c`.
    fn matmul_nt(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// `C (m×n) += Aᵀ · B` with `A` stored `(k×m)`, `B` `(k×n)`,
    /// accumulating into `c` (the dispatcher supplies a zeroed buffer).
    fn matmul_tn(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// `y (m) = A (m×k) · x (k)`; overwrites every element of `y`.
    fn matvec(&self, a: &[f32], x: &[f32], y: &mut [f32], m: usize, k: usize);

    /// Convolution forward pass over one contiguous band of images
    /// (`input.len() / geo.in_len()` of them); writes every element of
    /// `out`.
    fn conv2d_forward(
        &self,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        out: &mut [f32],
        geo: &Conv2dGeometry,
    );

    /// Both convolution backward passes over one band: accumulates the
    /// filter gradients into `dw`/`db` and the data gradient into the
    /// band's `dinput` slice. An empty `dinput` skips the data-gradient
    /// half; `dw`/`db` are the same either way.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_backward(
        &self,
        input: &[f32],
        weights: &[f32],
        delta_out: &[f32],
        dw: &mut [f32],
        db: &mut [f32],
        dinput: &mut [f32],
        geo: &Conv2dGeometry,
    );

    /// Max-pool forward over `n` images, recording per-image flat argmax
    /// offsets for the backward pass.
    fn maxpool_forward(
        &self,
        input: &[f32],
        out: &mut [f32],
        argmax: &mut [u32],
        n: usize,
        geo: &PoolGeometry,
    );

    /// Max-pool backward over `n` images: routes each upstream error to
    /// the input position that won the forward max (`dinput`
    /// zero-initialised, accumulated into).
    fn maxpool_backward(
        &self,
        delta_out: &[f32],
        argmax: &[u32],
        dinput: &mut [f32],
        n: usize,
        geo: &PoolGeometry,
    );

    /// `y ← y + alpha·x` (the BLAS `axpy` primitive).
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]);

    /// Elementwise `out = a ∗ b` (Hadamard product).
    fn hadamard(&self, a: &[f32], b: &[f32], out: &mut [f32]);

    /// Elementwise `out = s·a`.
    fn scale(&self, s: f32, a: &[f32], out: &mut [f32]);

    /// `Σ xs`.
    fn sum(&self, xs: &[f32]) -> f32;

    /// `Σ a∗b` (inner product).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// Convolution forward pass fused with an elementwise activation:
    /// writes the pre-activations into `z` *and* `act(z)` into `a` over
    /// one band of images (the `nn` conv layers cache `z` for the
    /// backward pass and hand `a` to the next layer, so both buffers are
    /// always needed).
    ///
    /// The default is the unfused two-sweep path — the kernel followed by
    /// an elementwise map in the same order the layers used before fusion
    /// existed, so `Reference`/`Blocked` stay bit-identical to their
    /// historical behaviour. Backends that fuse (e.g. `Tiled`, which
    /// applies `act` during the final tile writeback) must produce the
    /// same `z` as their unfused kernel and `a = act(z)` exactly.
    #[allow(clippy::too_many_arguments)]
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
        self.conv2d_forward(input, weights, bias, z, geo);
        for (ai, &zi) in a.iter_mut().zip(z.iter()) {
            *ai = act.apply(zi);
        }
    }

    /// Dense forward pass fused with bias and an elementwise activation:
    /// `z (m×n) = input (m×k) · weightsᵀ + bias`, `a = act(z)`, with
    /// `weights` stored `(n×k)` (the Darknet row-per-output convention).
    ///
    /// Same contract as [`TensorBackend::conv2d_forward_fused`]: the
    /// default replays the historical unfused op order (matmul_nt, then
    /// per-row bias add, then elementwise map) bit-for-bit.
    #[allow(clippy::too_many_arguments)]
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
        self.matmul_nt(input, weights, z, m, k, n);
        for row in z.chunks_mut(n) {
            for (zj, &bj) in row.iter_mut().zip(bias) {
                *zj += bj;
            }
        }
        for (ai, &zi) in a.iter_mut().zip(z.iter()) {
            *ai = act.apply(zi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.kernels().kind(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(BackendKind::parse(" Blocked\n"), Some(BackendKind::Blocked));
        assert_eq!(
            BackendKind::parse("REFERENCE"),
            Some(BackendKind::Reference)
        );
        assert_eq!(BackendKind::parse("simd"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(BackendKind::default(), BackendKind::Reference);
    }
}
