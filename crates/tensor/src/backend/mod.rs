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
//! Two backends ship:
//!
//! * [`BackendKind::Reference`] — the original scalar kernels, extracted
//!   from `ops::*`, each output's chain of float operations the seed's.
//!   This is the default everywhere and the determinism anchor: its
//!   results are bit-identical to the pre-backend kernels, so every
//!   seeded test and federation bit-identity gate holds unchanged, down
//!   to the convolutions' per-call im2col/col2im buffers.
//! * [`BackendKind::Tiled`] — register-tiled GEMM micro-kernels (6×16
//!   tiles over packed panels) with two interchangeable inner kernels: a
//!   portable safe-Rust one and an x86-64 AVX2+FMA one (the crate's only
//!   `unsafe` island), selected once per process via
//!   `is_x86_feature_detected!` with a `GRADSEC_TILED_ISA` override.
//!   Every op, all three convolution passes included, is lowered onto
//!   that one GEMM core. Convolutions read their operands through a
//!   *virtual im2col*: forward and dW from a zero-padded, stride-phased
//!   copy of the input band (copied into the forward panels in row runs,
//!   read in place by dW's kernel), dInput from a zero-padded copy of the
//!   error band, one GEMM per output phase, so the conv path holds no
//!   column buffer. Deterministic, with one answer on every ISA (both
//!   inner kernels fuse each multiply-add), but *not* bit-identical to
//!   `Reference`: its kernels reassociate floating-point reductions, so
//!   outputs agree only to ~1e-5 relative error.
//!
//! Backend choice is a per-run policy, not a per-op one: the `nn` layers
//! carry a [`BackendKind`] into every forward/backward call,
//! `Sequential::replicate` copies it into the model replicas a
//! federation's cycles borrow, and `FederationBuilder::backend(...)`
//! selects it for a whole federation run. Within one backend,
//! flat/sharded/faulted runs stay bit-identical for any
//! worker/shard/transport combination.

mod reference;
mod tiled;

// `Reference` and `BackendKind::kernels` stay public although only this
// crate names them: crate-private, they change how LTO compiles the
// kernel dispatch, and `lenet_protected` ran about 7 % slower.
pub use reference::Reference;
pub use tiled::{Tiled, TiledIsa};

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
    /// Register-tiled GEMM micro-kernels (portable or AVX2+FMA, chosen
    /// at runtime, with the same bits) with virtual-im2col convolutions —
    /// deterministic, ~1e-5 relative parity with `Reference`.
    Tiled,
}

static REFERENCE: Reference = Reference;
static TILED: Tiled = Tiled::auto();

impl BackendKind {
    /// Every selectable backend, in documentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Tiled];

    /// Resolves the selector to its kernel implementation.
    pub fn kernels(self) -> &'static dyn TensorBackend {
        match self {
            BackendKind::Reference => &REFERENCE,
            BackendKind::Tiled => &TILED,
        }
    }

    /// The selector's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Tiled => "tiled",
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

/// The swappable kernel set behind `ops::*`: only the passes a layer
/// runs.
///
/// Implementations are stateless and shared (`&'static`): all buffers
/// arrive as arguments, pre-validated and pre-sized by the dispatchers in
/// `ops::matmul`, `ops::conv` and `ops::pool` — kernels may assume
/// consistent lengths (the dispatchers debug-assert them) and must not
/// allocate per element.
///
/// # Contract
///
/// * **Determinism** — a kernel's output is a pure function of its
///   inputs: same inputs twice → bit-identical outputs, on any machine.
///   Banding decisions that could vary by host (core count) live in the
///   dispatchers and only ever split work in result-preserving ways.
/// * **Accumulation** — `matmul` and `matmul_tn` *accumulate* into `c`
///   (every implementation; the dispatchers supply a zeroed buffer),
///   while `matmul_nt` and the fused forward passes overwrite every
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

    /// Convolution forward pass fused with an elementwise activation over
    /// one contiguous band of images (`input.len() / geo.in_len()` of
    /// them): writes the pre-activations into `z` *and* `act(z)` into
    /// `a`, or — `z` empty — `act(Z)` into `a` alone, its pre-activations
    /// summed in `a`'s own buffer (what the `nn` conv layers ask for:
    /// their backward reads `f'` off `A`). The plain convolution is this
    /// pass at [`FusedActivation::Identity`] with `z` empty.
    ///
    /// `a = act(z)` exactly, with or without `z`, and the same `z` either
    /// way: `Reference` runs its scalar kernel then an activation sweep,
    /// the historical op order; `Tiled` applies `act` during the final
    /// tile writeback.
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

    /// Dense forward pass fused with bias and an elementwise activation:
    /// `z (m×n) = input (m×k) · weightsᵀ + bias`, `a = act(z)`, with
    /// `weights` stored `(n×k)` (the Darknet row-per-output convention);
    /// an empty `z` sums the pre-activations in `a` instead.
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
        let (sums, kept) = sums_and_kept(z, a);
        self.matmul_nt(input, weights, sums, m, k, n);
        for row in sums.chunks_mut(n) {
            for (zj, &bj) in row.iter_mut().zip(bias) {
                *zj += bj;
            }
        }
        activate(act, sums, kept);
    }
}

/// Where a forward pass sums its pre-activations, and where `A` goes:
/// `z`, with `A` kept beside it in `a`, or — `z` empty — `a`'s own buffer.
fn sums_and_kept<'s>(z: &'s mut [f32], a: &'s mut [f32]) -> (&'s mut [f32], Option<&'s mut [f32]>) {
    if z.is_empty() {
        (a, None)
    } else {
        (z, Some(a))
    }
}

/// Lands `act` on a finished run of pre-activations: into `kept` (the
/// same run of `A`) when `Z` is kept, otherwise over `sums` in place.
#[inline]
fn activate(act: FusedActivation, sums: &mut [f32], kept: Option<&mut [f32]>) {
    match kept {
        Some(a) => {
            for (a, &zv) in a.iter_mut().zip(sums.iter()) {
                *a = act.apply(zv);
            }
        }
        None => {
            for zv in sums {
                *zv = act.apply(*zv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.kernels().kind(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(BackendKind::default(), BackendKind::Reference);
    }
}
