//! Pluggable update codecs for the model payload path.
//!
//! Every round ships model weights both directions; for a fleet of
//! millions of clients the dominant cost is those bytes, not cycles.
//! This module is the codec layer every transport speaks: the server
//! proposes a [`CodecKind`] in its `Hello`, the client echoes acceptance
//! in the `HelloAck`, and from then on downloads and uploads carry
//! [`EncodedWeights`] — opaque bytes to every transport backend (the
//! in-process endpoint, the multiplexed sockets and the tiop-sealed
//! wrapper alike).
//!
//! Three codecs ship:
//!
//! * [`CodecKind::Identity`] — dense f32 tensors, bit-identical to the
//!   raw payload. The default; every bit-identity gate in the repo runs
//!   over it unchanged.
//! * [`CodecKind::Int8`] — per-tensor affine quantization: each tensor
//!   is mapped to `q = round((x - zero) / scale)` over 256 levels, so a
//!   coefficient costs 1 byte instead of 4. Lossy, with a per-tensor
//!   error bound of `scale / 2` (pinned by the `repro_gates` gate the
//!   way `Blocked` pins 1e-5 kernel parity).
//! * [`CodecKind::DeltaTopK`] — top-k sparsified delta against the
//!   previous committed round: both sides hold a reference *view* of
//!   the model per client epoch, only the largest [`TOPK_DENSITY`]
//!   fraction of per-tensor delta coefficients cross the wire, and the
//!   receiver reconstructs `view + delta`. The server's view is one
//!   shared allocation per lockstep group; the client's view *is* the
//!   replica it trains — a successful cycle leaves the decoded download
//!   in it, and the next delta is decoded against its tensors in place
//!   — so an idle client holds one model, not two. The first exchange
//!   (no committed view) and any tensor whose sparse form would not
//!   save bytes fall back to dense absolute values.
//!
//! # Byte layout
//!
//! An [`EncodedTensor`] is its rank and dims (`u64` each), a one-byte
//! body tag, then the body; `n` is the product of the dims.
//!
//! | body | tag | bytes after the tag | size |
//! |---|---|---|---|
//! | dense | `0` | `n` × `f32` | `4n` |
//! | int8 | `1` | `zero: f32`, `scale: f32`, `n` × `u8` | `8 + n` |
//! | sparse | `2` | `k: u64`, `k` index gaps as varints, `k` × `f32` values | `8 + gaps + 4k` |
//!
//! A sparse body's indices are strictly increasing, so each travels as
//! the LEB128 varint of its gap to the previous one (`idx - prev - 1`;
//! the first gap is the first index). At [`TOPK_DENSITY`] kept indices
//! sit 10 apart on average and a gap below 128 is one byte, so a kept
//! coefficient costs 5 bytes — one of gap, four of value — against 4 for
//! every coefficient of a dense body. Decoding refuses `k > n`, a
//! running index `>= n`, and any gap not in the one form the encoder
//! writes (see the varint row of the grammar table in
//! [`crate::message`]), so an accepted body re-encodes to the bytes it
//! arrived as.
//!
//! # Who holds what, when
//!
//! A payload is dense in exactly two places: in the replica that trains
//! on it, and inside the fold that consumes it. On the way up, the
//! server reads a session's reply, runs it through `check_against` — the
//! one validator: every structural refusal there is, against the view
//! the client coded it against, allocating nothing — bills it from its
//! lengths and dims, commits the session's view, and *keeps the payload*
//! (a `CheckedWeights`: the [`EncodedWeights`] plus an `Arc` of that
//! view; a payload whose bodies are all dense — every identity reply —
//! is the model already, so it is moved out on the spot, which costs
//! nothing). It stays in that form through the engine's slots, the round's
//! outcomes and the [`PartialAggregate`](crate::aggregate::PartialAggregate),
//! so a round's pending updates cost what crossed the wire, not `k ×`
//! the dense model; the fold expands them — one at a time under FedAvg —
//! and an update the round does not fold (a surplus spare, a straggler)
//! is never expanded at all. `decode_against`, the client's and the
//! mirror's decoder, is the same check followed by the same rebuild,
//! which after the check cannot fail. The public eager calls
//! ([`RemoteClient::train`](crate::transport::RemoteClient::train),
//! `ExecutionEngine::execute_cycles`, `PartialAggregate::push` /
//! `into_terms`) and the shard-control channel still speak dense
//! [`UpdateUpload`](crate::message::UpdateUpload)s: they are the same
//! path with the expansion applied at the edge.
//!
//! **Determinism.** Encoding is a pure function of `(codec, weights,
//! reference)` — no RNG, no wall clock — so a flat, sharded or
//! distributed run over any transport produces bit-identical encoded
//! frames, and the lossy codecs' reconstruction error is a seeded,
//! reproducible quantity. The delta codec's epoch handshake recovers
//! deterministically too: a client whose view is not the one the server
//! names — a garbled upload made the server withhold its commit, or the
//! client's last cycle failed after it had begun overwriting the replica
//! that was its view — answers with a typed error containing
//! [`BASE_MISMATCH`], and the server re-sends that one download dense.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tensor::Tensor;

use crate::message::{limits, Wire};
use crate::wire::{
    decode_len, get_f32s, get_varint, need, put_f32s, put_varint, varint_len, wire_struct,
};
use crate::{FlError, Result};

/// Fraction of per-tensor delta coefficients [`CodecKind::DeltaTopK`]
/// keeps (at least one per tensor).
pub const TOPK_DENSITY: f64 = 0.1;

/// Marker embedded in the typed error a client returns when a delta
/// download references a base epoch the client no longer holds. The
/// server detects it and retries that download once, dense.
pub const BASE_MISMATCH: &str = "codec base mismatch";

/// Which update codec a session speaks, negotiated at Hello/HelloAck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CodecKind {
    /// Dense f32 payloads — bit-identical, the default.
    #[default]
    Identity,
    /// Per-tensor affine int8 quantization (lossy, 4× smaller bodies).
    Int8,
    /// Top-k sparsified delta vs. the previous committed round (lossy).
    DeltaTopK,
}

impl CodecKind {
    /// Canonical name, as accepted by [`CodecKind::parse`] and carried
    /// in a `ShardConfig`.
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::Identity => "identity",
            CodecKind::Int8 => "int8",
            CodecKind::DeltaTopK => "delta-topk",
        }
    }

    /// Parses a codec name (case-insensitive; `delta-topk`, `delta_topk`
    /// and `deltatopk` are all accepted).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "identity" => Some(CodecKind::Identity),
            "int8" => Some(CodecKind::Int8),
            "delta-topk" | "delta_topk" | "deltatopk" => Some(CodecKind::DeltaTopK),
            _ => None,
        }
    }

    /// The wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            CodecKind::Identity => 0,
            CodecKind::Int8 => 1,
            CodecKind::DeltaTopK => 2,
        }
    }

    /// Decodes a wire tag.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Protocol`] on an unknown tag.
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(CodecKind::Identity),
            1 => Ok(CodecKind::Int8),
            2 => Ok(CodecKind::DeltaTopK),
            other => Err(FlError::Protocol {
                reason: format!("unknown codec tag {other}"),
            }),
        }
    }

    /// Whether decode reconstructs the exact input bits.
    pub fn is_lossy(&self) -> bool {
        !matches!(self, CodecKind::Identity)
    }
}

/// One encoded tensor body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EncodedBody {
    /// Dense absolute f32 values (Identity, and the lossless fallback
    /// every lossy codec uses when its form would not save bytes).
    Dense(Vec<f32>),
    /// Affine-quantized absolute values: `x ≈ zero + scale * q`.
    Int8 {
        /// The dequantization offset (the tensor's minimum).
        zero: f32,
        /// The dequantization step (`(max - min) / 255`, or 1 for a
        /// constant tensor).
        scale: f32,
        /// One quantized byte per coefficient.
        q: Vec<u8>,
    },
    /// Sparse delta vs. the reference view: `x[i] = ref[i]` everywhere,
    /// plus `values[j]` added at `indices[j]`. Indices are strictly
    /// increasing and in-bounds by construction (and re-validated on
    /// decode).
    TopK {
        /// Kept coefficient positions, strictly increasing.
        indices: Vec<u32>,
        /// The delta value at each kept position.
        values: Vec<f32>,
    },
}

/// One encoded tensor: its shape plus the codec body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedTensor {
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// The encoded coefficients.
    pub body: EncodedBody,
}

/// A whole model's weights in encoded form — the payload the
/// `EncodedModelDownload`/`EncodedUpdateUpload` messages carry. Tensors
/// are the model's layers flattened `[w0, b0, w1, b1, …]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedWeights {
    /// The codec that produced (and decodes) this payload.
    pub codec: CodecKind,
    /// The sender's epoch stamp for this payload (drives the delta
    /// codec's reference handshake; informational for stateless codecs).
    pub epoch: u64,
    /// For delta payloads: the epoch of the reference view the deltas
    /// were taken against. `None` means every body is self-contained.
    pub base_epoch: Option<u64>,
    /// The encoded tensors, `2 × num_layers` of them.
    pub tensors: Vec<EncodedTensor>,
}

impl EncodedWeights {
    /// Exact wire size of this payload in bytes: what
    /// [`encode`](crate::message::encode) of it would measure, summed
    /// from the dims and body lengths without serialising anything.
    pub fn wire_bytes(&self) -> u64 {
        // codec tag, epoch, the base epoch's flag and value, tensor count.
        let head = 1 + 8 + 1 + 8 * u64::from(self.base_epoch.is_some()) + 8;
        head + self
            .tensors
            .iter()
            .map(|t| {
                // rank, dims, body tag, body.
                8 + 8 * t.dims.len() as u64 + 1 + t.body.wire_bytes()
            })
            .sum::<u64>()
    }
}

impl EncodedBody {
    /// Exact wire size of the body after its tag (the size column of the
    /// module's layout table), from lengths and gaps alone.
    fn wire_bytes(&self) -> u64 {
        match self {
            EncodedBody::Dense(v) => 4 * v.len() as u64,
            EncodedBody::Int8 { q, .. } => 4 + 4 + q.len() as u64,
            EncodedBody::TopK { indices, values } => {
                let gap_bytes: u64 = gaps(indices).map(|g| varint_len(g) as u64).sum();
                8 + gap_bytes + 4 * values.len() as u64
            }
        }
    }
}

/// What a sparse body ships in place of each index: its distance past
/// the previous one (`idx - prev - 1`; the first gap is the first index).
fn gaps(indices: &[u32]) -> impl Iterator<Item = u32> + '_ {
    // Wrapping, so a hand-built body whose indices are not increasing
    // still serialises — to gaps the decoder refuses — instead of
    // panicking in the sender.
    let mut next = 0u32;
    indices.iter().map(move |&idx| {
        let gap = idx.wrapping_sub(next);
        next = idx.wrapping_add(1);
        gap
    })
}

/// Exact wire size of `weights` encoded dense (the raw-bytes column the
/// compression-ratio report divides by), in closed form like
/// [`EncodedWeights::wire_bytes`].
pub fn dense_wire_bytes(weights: &ModelWeights) -> u64 {
    dense_bytes_of(flatten(weights).into_iter().map(Tensor::dims))
}

/// [`dense_wire_bytes`] of a model whose tensors have these dims.
fn dense_bytes_of<'a>(dims: impl Iterator<Item = &'a [usize]>) -> u64 {
    // layer count; per tensor: rank, dims, element count, elements.
    8 + dims
        .map(|d| 8 + 8 * d.len() as u64 + 8 + 4 * d.iter().product::<usize>() as u64)
        .sum::<u64>()
}

/// The model's layers flattened to `[w0, b0, w1, b1, …]`.
pub(crate) fn flatten(weights: &ModelWeights) -> Vec<&Tensor> {
    weights.iter().flat_map(|l| [&l.w, &l.b]).collect()
}

/// Whether two models have identical tensor shapes (the precondition
/// for delta coding one against the other).
fn shapes_match(a: &ModelWeights, b: &ModelWeights) -> bool {
    a.num_layers() == b.num_layers()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.w.dims() == y.w.dims() && x.b.dims() == y.b.dims())
}

fn encode_dense(t: &Tensor) -> EncodedTensor {
    EncodedTensor {
        dims: t.dims().to_vec(),
        body: EncodedBody::Dense(t.data().to_vec()),
    }
}

fn encode_int8(t: &Tensor) -> EncodedTensor {
    let data = t.data();
    let (min, max) = data
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let (zero, scale) = if data.is_empty() || !min.is_finite() || max <= min {
        (if min.is_finite() { min } else { 0.0 }, 1.0)
    } else {
        (min, (max - min) / 255.0)
    };
    let q = data
        .iter()
        .map(|&x| ((x - zero) / scale).round().clamp(0.0, 255.0) as u8)
        .collect();
    EncodedTensor {
        dims: t.dims().to_vec(),
        body: EncodedBody::Int8 { zero, scale, q },
    }
}

fn encode_topk(t: &Tensor, reference: &Tensor) -> EncodedTensor {
    let n = t.numel();
    if n == 0 {
        return encode_dense(t);
    }
    let k = ((n as f64 * TOPK_DENSITY).ceil() as usize).clamp(1, n);
    let data = t.data();
    let ref_data = reference.data();
    let delta: Vec<f32> = data.iter().zip(ref_data).map(|(&x, &r)| x - r).collect();
    // Top-k by |delta|, ties broken by index so the selection is a pure
    // function of the inputs. select_nth keeps this O(n) + O(k log k).
    let mut order: Vec<u32> = (0..n as u32).collect();
    let rank = |&a: &u32, &b: &u32| {
        delta[b as usize]
            .abs()
            .total_cmp(&delta[a as usize].abs())
            .then(a.cmp(&b))
    };
    order.select_nth_unstable_by(k - 1, rank);
    let mut indices: Vec<u32> = order[..k].to_vec();
    indices.sort_unstable();
    let values = indices.iter().map(|&i| delta[i as usize]).collect();
    let body = EncodedBody::TopK { indices, values };
    // A sparse body pays a count, a gap and a value per kept coefficient;
    // dense pays 4 bytes for every coefficient and is exact. When the
    // sparse form would not actually be smaller (tensors of a handful of
    // coefficients), ship dense absolute values.
    if body.wire_bytes() >= 4 * n as u64 {
        return encode_dense(t);
    }
    EncodedTensor {
        dims: t.dims().to_vec(),
        body,
    }
}

/// Encodes `weights` under `codec`, stamped with `epoch`.
///
/// `reference` is the committed view a delta codec diffs against (with
/// its own epoch); stateless codecs ignore it, and `DeltaTopK` falls
/// back to a dense, self-contained payload when no shape-compatible
/// reference exists (the first exchange of a session).
pub fn encode_weights(
    codec: CodecKind,
    epoch: u64,
    weights: &ModelWeights,
    reference: Option<(u64, &ModelWeights)>,
) -> EncodedWeights {
    let (base_epoch, tensors) = match codec {
        CodecKind::Identity => (
            None,
            flatten(weights).into_iter().map(encode_dense).collect(),
        ),
        CodecKind::Int8 => (
            None,
            flatten(weights).into_iter().map(encode_int8).collect(),
        ),
        CodecKind::DeltaTopK => match reference {
            Some((base, ref_w)) if shapes_match(weights, ref_w) => {
                let tensors = flatten(weights)
                    .into_iter()
                    .zip(flatten(ref_w))
                    .map(|(t, r)| encode_topk(t, r))
                    .collect();
                (Some(base), tensors)
            }
            _ => (
                None,
                flatten(weights).into_iter().map(encode_dense).collect(),
            ),
        },
    };
    EncodedWeights {
        codec,
        epoch,
        base_epoch,
        tensors,
    }
}

/// Decodes an encoded payload back into model weights.
///
/// `reference` must be the view `enc.base_epoch` names whenever the
/// payload carries delta bodies — callers validate the epoch; this
/// function validates shapes.
///
/// # Errors
///
/// Returns [`FlError::Protocol`] on structural violations: an odd
/// tensor count, a reference whose tensors are not the payload's in
/// number and dims, a delta body without a reference, out-of-bounds
/// indices, or body/shape length disagreement.
pub fn decode_weights(
    enc: &EncodedWeights,
    reference: Option<&ModelWeights>,
) -> Result<ModelWeights> {
    decode_against(enc, reference.map(flatten).as_deref())
}

/// [`decode_weights`] with the reference view as borrowed tensors,
/// flattened `[w0, b0, w1, b1, …]`: a client's view is the replica it
/// trains, lent in place. It is [`check_against`] and then a rebuild that
/// cannot fail; the decoded model is a fresh allocation, so a refused
/// payload has touched nothing.
pub(crate) fn decode_against(
    enc: &EncodedWeights,
    reference: Option<&[&Tensor]>,
) -> Result<ModelWeights> {
    check_against(enc, reference)?;
    Ok(rebuild_all(enc, reference))
}

/// The one validator of an encoded payload: every structural refusal
/// there is — an odd tensor count, a reference whose tensors are not the
/// payload's in number and dims, dims whose product overflows, a body
/// whose length disagrees with its dims, a delta body without a
/// reference, sparse indices out of order or out of range — in payload
/// order, reading the payload and allocating nothing. With a reference,
/// every tensor must have the reference tensor's dims, so an accepted
/// payload fits the model the reference was borrowed from.
///
/// # Errors
///
/// Returns [`FlError::Protocol`] naming the first violation.
pub(crate) fn check_against(enc: &EncodedWeights, reference: Option<&[&Tensor]>) -> Result<()> {
    let bad = |reason: String| FlError::Protocol { reason };
    if !enc.tensors.len().is_multiple_of(2) {
        return Err(bad(format!(
            "encoded payload has odd tensor count {}",
            enc.tensors.len()
        )));
    }
    if let Some(r) = reference {
        if r.len() != enc.tensors.len() {
            return Err(bad(format!(
                "reference has {} tensors, payload {}",
                r.len(),
                enc.tensors.len()
            )));
        }
    }
    for (i, t) in enc.tensors.iter().enumerate() {
        let n = t
            .dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| bad("encoded tensor dims overflow".to_owned()))?;
        let r = reference.map(|f| f[i]);
        if let Some(r) = r.filter(|r| r.dims() != t.dims) {
            return Err(bad(format!(
                "reference tensor {i} has dims {:?}, payload {:?}",
                r.dims(),
                t.dims
            )));
        }
        match &t.body {
            EncodedBody::Dense(v) if v.len() != n => {
                return Err(bad(format!(
                    "dense body has {} values for {n}-element tensor",
                    v.len()
                )));
            }
            EncodedBody::Int8 { q, .. } if q.len() != n => {
                return Err(bad(format!(
                    "int8 body has {} values for {n}-element tensor",
                    q.len()
                )));
            }
            EncodedBody::Dense(_) | EncodedBody::Int8 { .. } => {}
            EncodedBody::TopK { indices, values } => {
                if r.is_none() {
                    return Err(bad("delta body without a reference view".to_owned()));
                }
                if indices.len() != values.len() {
                    return Err(bad("sparse index/value length mismatch".to_owned()));
                }
                let mut prev: Option<u32> = None;
                for &idx in indices {
                    if prev.is_some_and(|p| idx <= p) {
                        return Err(bad("sparse indices not strictly increasing".to_owned()));
                    }
                    prev = Some(idx);
                    if idx as usize >= n {
                        return Err(bad(format!("sparse index {idx} out of bounds {n}")));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The coefficients a checked body stands for; `r` is the reference
/// tensor a sparse delta is added to.
fn rebuild(body: &EncodedBody, r: Option<&Tensor>) -> Vec<f32> {
    match body {
        EncodedBody::Dense(v) => v.clone(),
        EncodedBody::Int8 { zero, scale, q } => {
            q.iter().map(|&b| zero + scale * f32::from(b)).collect()
        }
        EncodedBody::TopK { indices, values } => {
            let mut out = r
                .expect("checked: a delta body has its reference")
                .data()
                .to_vec();
            for (&idx, &v) in indices.iter().zip(values) {
                out[idx as usize] += v;
            }
            out
        }
    }
}

/// The model a payload [`check_against`] accepted against `reference`
/// stands for, the payload left in place.
fn rebuild_all(enc: &EncodedWeights, reference: Option<&[&Tensor]>) -> ModelWeights {
    layers(
        enc.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| dense_tensor(&t.dims, rebuild(&t.body, reference.map(|f| f[i])))),
    )
}

fn dense_tensor(dims: &[usize], data: Vec<f32>) -> Tensor {
    Tensor::from_vec(data, dims).expect("checked: the body holds its dims' element count")
}

/// Pairs flattened `[w0, b0, w1, b1, …]` tensors back into a model.
fn layers(mut tensors: impl Iterator<Item = Tensor>) -> ModelWeights {
    let mut layers = Vec::with_capacity(tensors.size_hint().0 / 2);
    while let (Some(w), Some(b)) = (tensors.next(), tensors.next()) {
        layers.push(LayerWeights { w, b });
    }
    ModelWeights::new(layers)
}

/// A payload [`check_against`] accepted, together with the view it was
/// checked against: the form an upload waits for the fold in. Expanding
/// it cannot fail, and nothing but [`CheckedWeights::new`] makes one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckedWeights {
    enc: EncodedWeights,
    view: Option<Arc<ModelWeights>>,
}

impl CheckedWeights {
    /// Checks `enc` against `view` (the model its delta bodies add to).
    ///
    /// # Errors
    ///
    /// Everything [`check_against`] refuses.
    pub(crate) fn new(enc: EncodedWeights, view: Option<Arc<ModelWeights>>) -> Result<Self> {
        check_against(&enc, view.as_deref().map(flatten).as_deref())?;
        Ok(CheckedWeights { enc, view })
    }

    /// The payload as it crossed the wire.
    pub(crate) fn encoded(&self) -> &EncodedWeights {
        &self.enc
    }

    /// [`dense_wire_bytes`] of the model this expands to, from the dims
    /// (whose products the check found not to overflow).
    pub(crate) fn dense_wire_bytes(&self) -> u64 {
        dense_bytes_of(self.enc.tensors.iter().map(|t| t.dims.as_slice()))
    }

    /// Whether every body is dense — the payload *is* the model, and
    /// [`into_dense`](Self::into_dense) only moves it.
    pub(crate) fn is_dense(&self) -> bool {
        let dense = |t: &EncodedTensor| matches!(t.body, EncodedBody::Dense(_));
        self.enc.tensors.iter().all(dense)
    }

    /// The dense model, leaving the wire form in place.
    pub(crate) fn to_dense(&self) -> ModelWeights {
        rebuild_all(&self.enc, self.view.as_deref().map(flatten).as_deref())
    }

    /// The dense model: dense bodies are moved into it, int8 and sparse
    /// ones rebuilt against the shared view.
    pub(crate) fn into_dense(self) -> ModelWeights {
        let reference = self.view.as_deref().map(flatten);
        layers(self.enc.tensors.into_iter().enumerate().map(|(i, t)| {
            let data = match t.body {
                EncodedBody::Dense(v) => v,
                body => rebuild(&body, reference.as_ref().map(|f| f[i])),
            };
            dense_tensor(&t.dims, data)
        }))
    }
}

/// The worst-case per-coefficient reconstruction error an [`Int8`]
/// round-trip of `weights` can introduce: the largest tensor's
/// `scale / 2` plus float slack.
///
/// [`Int8`]: CodecKind::Int8
pub fn int8_error_bound(weights: &ModelWeights) -> f32 {
    let mut bound = 0.0f32;
    for t in flatten(weights) {
        let data = t.data();
        let (min, max) = data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        if max > min {
            bound = bound.max((max - min) / 255.0 / 2.0);
        }
    }
    // Slack for the affine arithmetic itself.
    bound * 1.01 + f32::EPSILON
}

// ---------------------------------------------------------------------
// Wire framing (length-prefixed, bounded by `message::limits`).
// ---------------------------------------------------------------------

impl Wire for EncodedTensor {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.dims.len() as u64);
        for &d in &self.dims {
            buf.put_u64_le(d as u64);
        }
        match &self.body {
            EncodedBody::Dense(v) => {
                buf.put_u8(0);
                put_f32s(buf, v);
            }
            EncodedBody::Int8 { zero, scale, q } => {
                buf.put_u8(1);
                buf.put_f32_le(*zero);
                buf.put_f32_le(*scale);
                buf.put_slice(q);
            }
            EncodedBody::TopK { indices, values } => {
                buf.put_u8(2);
                buf.put_u64_le(indices.len() as u64);
                for gap in gaps(indices) {
                    put_varint(buf, gap);
                }
                put_f32s(buf, values);
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let ndim = decode_len(buf, "encoded tensor rank")?;
        if ndim > limits::MAX_TENSOR_RANK {
            return Err(FlError::BadConfig {
                reason: format!("encoded tensor rank {ndim} exceeds protocol maximum"),
            });
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(decode_len(buf, "encoded tensor dim")?);
        }
        let n = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .filter(|&n| n <= limits::MAX_FIELD_BYTES)
            .ok_or(FlError::BadConfig {
                reason: "encoded tensor element count exceeds protocol maximum".to_owned(),
            })?;
        need(buf, 1, "encoded body tag")?;
        let body = match buf.get_u8() {
            0 => EncodedBody::Dense(get_f32s(buf, n, "dense body")?),
            1 => {
                need(buf, 8 + n, "int8 body")?;
                let zero = buf.get_f32_le();
                let scale = buf.get_f32_le();
                let mut q = vec![0u8; n];
                buf.copy_to_slice(&mut q);
                EncodedBody::Int8 { zero, scale, q }
            }
            2 => {
                let k = decode_len(buf, "sparse entry count")?;
                if k > n {
                    return Err(FlError::BadConfig {
                        reason: format!("sparse entry count {k} exceeds tensor size {n}"),
                    });
                }
                // An entry is at least one gap byte and a 4-byte value:
                // a count the body cannot hold reserves nothing.
                need(buf, 5 * k, "sparse body")?;
                let mut indices = Vec::with_capacity(k);
                // The lowest index the next entry may take. In u64, so a
                // gap cannot wrap the sum; `n` fits `u32` with room to
                // spare (`MAX_FIELD_BYTES`), so an index below it does.
                let mut next = 0u64;
                for _ in 0..k {
                    let idx = next + u64::from(get_varint(buf, "sparse index gap")?);
                    if idx >= n as u64 {
                        return Err(FlError::BadConfig {
                            reason: format!("sparse index {idx} out of bounds for tensor of {n}"),
                        });
                    }
                    indices.push(idx as u32);
                    next = idx + 1;
                }
                let values = get_f32s(buf, k, "sparse values")?;
                EncodedBody::TopK { indices, values }
            }
            other => {
                return Err(FlError::BadConfig {
                    reason: format!("unknown encoded body tag {other}"),
                })
            }
        };
        Ok(EncodedTensor { dims, body })
    }
}

/// One byte: the tag [`CodecKind::as_u8`] names.
impl Wire for CodecKind {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u8(self.as_u8());
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        CodecKind::from_u8(u8::decode_from(buf)?)
    }
}

wire_struct!(EncodedWeights {
    codec,
    epoch,
    base_epoch,
    tensors: list(limits::MAX_ENCODED_TENSORS),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode, encode};
    use gradsec_nn::zoo;

    fn weights(seed: u64) -> ModelWeights {
        zoo::tiny_mlp(32, 16, 4, seed).unwrap().weights()
    }

    fn max_abs_diff(a: &ModelWeights, b: &ModelWeights) -> f32 {
        a.iter()
            .zip(b.iter())
            .flat_map(|(x, y)| {
                x.w.data()
                    .iter()
                    .zip(y.w.data())
                    .chain(x.b.data().iter().zip(y.b.data()))
                    .map(|(&p, &q)| (p - q).abs())
            })
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn parse_and_env_names_are_stable() {
        for kind in [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK] {
            assert_eq!(CodecKind::parse(kind.name()), Some(kind));
            assert_eq!(CodecKind::from_u8(kind.as_u8()).unwrap(), kind);
        }
        assert_eq!(CodecKind::parse("DELTA_TOPK"), Some(CodecKind::DeltaTopK));
        assert_eq!(CodecKind::parse("gzip"), None);
        assert!(CodecKind::from_u8(9).is_err());
        assert!(!CodecKind::Identity.is_lossy());
        assert!(CodecKind::Int8.is_lossy());
    }

    #[test]
    fn identity_roundtrip_is_bit_exact() {
        let w = weights(7);
        let enc = encode_weights(CodecKind::Identity, 0, &w, None);
        assert_eq!(enc.base_epoch, None);
        let back = decode_weights(&enc, None).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn int8_roundtrip_is_within_its_bound_and_smaller() {
        let w = weights(3);
        let enc = encode_weights(CodecKind::Int8, 0, &w, None);
        let back = decode_weights(&enc, None).unwrap();
        let bound = int8_error_bound(&w);
        let diff = max_abs_diff(&w, &back);
        assert!(diff <= bound, "diff {diff} > bound {bound}");
        assert!(
            enc.wire_bytes() * 3 <= dense_wire_bytes(&w),
            "int8 {} vs dense {}",
            enc.wire_bytes(),
            dense_wire_bytes(&w)
        );
    }

    #[test]
    fn delta_without_reference_falls_back_to_dense() {
        let w = weights(5);
        let enc = encode_weights(CodecKind::DeltaTopK, 4, &w, None);
        assert_eq!(enc.base_epoch, None);
        assert!(enc
            .tensors
            .iter()
            .all(|t| matches!(t.body, EncodedBody::Dense(_))));
        assert_eq!(decode_weights(&enc, None).unwrap(), w);
    }

    #[test]
    fn delta_against_reference_is_sparse_exact_and_smaller() {
        let reference = weights(5);
        // Perturb the reference slightly — the realistic one-round drift.
        let mut moved = reference.clone();
        moved.add_scaled(&reference, 0.01).unwrap();
        let enc = encode_weights(CodecKind::DeltaTopK, 9, &moved, Some((8, &reference)));
        assert_eq!(enc.base_epoch, Some(8));
        assert!(enc
            .tensors
            .iter()
            .any(|t| matches!(t.body, EncodedBody::TopK { .. })));
        assert!(
            enc.wire_bytes() * 3 <= dense_wire_bytes(&moved),
            "delta {} vs dense {}",
            enc.wire_bytes(),
            dense_wire_bytes(&moved)
        );
        // The benchmark's wide model, where envelope and dims no longer
        // mask the body: 5 bytes a kept coefficient at 10 % density is
        // 7.9x under dense (the fixed-width index form managed 4.98x).
        let wide = zoo::tiny_mlp(256, 128, 2, 5).unwrap().weights();
        let mut drifted = wide.clone();
        drifted.add_scaled(&wide, 0.01).unwrap();
        let sparse = encode_weights(CodecKind::DeltaTopK, 9, &drifted, Some((8, &wide)));
        let ratio = dense_wire_bytes(&drifted) as f64 / sparse.wire_bytes() as f64;
        assert!((7.9..8.0).contains(&ratio), "wide delta ratio {ratio:.3}");
        let back = decode_weights(&enc, Some(&reference)).unwrap();
        // Kept coefficients are exact; dropped ones revert to the
        // reference, so the error is bounded by the largest dropped
        // delta — here every delta is 1% of the reference magnitude.
        let bound = 0.011
            * reference
                .iter()
                .flat_map(|l| l.w.data().iter().chain(l.b.data()))
                .fold(0.0f32, |m, &x| m.max(x.abs()));
        let diff = max_abs_diff(&moved, &back);
        assert!(diff <= bound, "diff {diff} > bound {bound}");
    }

    #[test]
    fn delta_decode_without_reference_is_an_error_not_a_panic() {
        let reference = weights(2);
        let mut moved = reference.clone();
        moved.add_scaled(&reference, 0.5).unwrap();
        let enc = encode_weights(CodecKind::DeltaTopK, 1, &moved, Some((0, &reference)));
        assert!(decode_weights(&enc, None).is_err());
    }

    #[test]
    fn shape_mismatched_reference_falls_back_to_dense() {
        let w = weights(1);
        let other = zoo::tiny_mlp(16, 8, 2, 1).unwrap().weights();
        let enc = encode_weights(CodecKind::DeltaTopK, 2, &w, Some((1, &other)));
        assert_eq!(enc.base_epoch, None);
        assert_eq!(decode_weights(&enc, None).unwrap(), w);
    }

    #[test]
    fn wire_roundtrip_every_codec() {
        let reference = weights(11);
        let mut moved = reference.clone();
        moved.add_scaled(&reference, -0.02).unwrap();
        for enc in [
            encode_weights(CodecKind::Identity, 1, &moved, None),
            encode_weights(CodecKind::Int8, 2, &moved, None),
            encode_weights(CodecKind::DeltaTopK, 3, &moved, Some((2, &reference))),
        ] {
            let back: EncodedWeights = decode(&encode(&enc)).unwrap();
            assert_eq!(enc, back);
        }
    }

    #[test]
    fn byte_counts_equal_the_serialised_lengths() {
        // The billing columns are computed from lengths; pin them to what
        // the serialiser writes, for every codec and body kind, a
        // reference present and absent, and the degenerate tensors.
        let scalar = |x| LayerWeights {
            w: Tensor::scalar(x),
            b: Tensor::zeros(&[0]),
        };
        let models = [
            weights(11),
            // Wide enough that top-k keeps a sparse body on the weights.
            zoo::tiny_mlp(64, 32, 4, 3).unwrap().weights(),
            ModelWeights::new(vec![scalar(1.5), scalar(-2.0)]),
            ModelWeights::new(Vec::new()),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for w in &models {
            let mut reference = w.clone();
            reference.add_scaled(w, 0.01).unwrap();
            assert_eq!(dense_wire_bytes(w), encode(w).len() as u64);
            for enc in [
                encode_weights(CodecKind::Identity, 1, w, None),
                encode_weights(CodecKind::Int8, 2, w, None),
                encode_weights(CodecKind::DeltaTopK, 3, w, None),
                encode_weights(CodecKind::DeltaTopK, u64::MAX, w, Some((7, &reference))),
            ] {
                assert_eq!(enc.wire_bytes(), encode(&enc).len() as u64, "{enc:?}");
                kinds.extend(enc.tensors.iter().map(|t| match t.body {
                    EncodedBody::Dense(_) => 0,
                    EncodedBody::Int8 { .. } => 1,
                    EncodedBody::TopK { .. } => 2,
                }));
            }
        }
        assert_eq!(kinds.len(), 3, "every body kind was measured");
    }

    #[test]
    fn wire_decode_rejects_hostile_sparse_indices() {
        let reference = weights(4);
        let mut moved = reference.clone();
        moved.add_scaled(&reference, 0.01).unwrap();
        let mut enc = encode_weights(CodecKind::DeltaTopK, 1, &moved, Some((0, &reference)));
        let sparse = enc
            .tensors
            .iter_mut()
            .find(|t| matches!(t.body, EncodedBody::TopK { .. }))
            .expect("a sparse tensor");
        if let EncodedBody::TopK { indices, .. } = &mut sparse.body {
            indices[0] = u32::MAX; // out of bounds and out of order
        }
        let bytes = encode(&enc);
        assert!(decode::<EncodedWeights>(&bytes).is_err());
        // In-memory decode re-validates too.
        assert!(decode_weights(&enc, Some(&reference)).is_err());
    }

    /// A rank-1 sparse tensor of `n` coefficients keeping every
    /// `stride`-th one, so the first index is 0 and every later gap is
    /// `stride - 1`.
    fn strided(n: usize, stride: usize) -> EncodedTensor {
        let indices: Vec<u32> = (0..n as u32).step_by(stride).collect();
        let values = indices.iter().map(|&i| i as f32 * 0.5 - 3.0).collect();
        EncodedTensor {
            dims: vec![n],
            body: EncodedBody::TopK { indices, values },
        }
    }

    #[test]
    fn sparse_bodies_round_trip_at_one_two_and_three_byte_gaps() {
        // Both edges of each width: a gap of 127 is the last one-byte
        // gap, 16 383 the last two-byte one.
        let widths = [
            (1, 1),
            (10, 1),
            (128, 1),
            (129, 2),
            (16_384, 2),
            (16_385, 3),
        ];
        for (stride, gap_width) in widths {
            // 41 entries, the last one on the last coefficient.
            let n = 40 * stride + 1;
            let t = strided(n, stride);
            let EncodedBody::TopK { indices, .. } = &t.body else {
                unreachable!()
            };
            let k = indices.len() as u64;
            assert_eq!((indices[0], indices[k as usize - 1]), (0, n as u32 - 1));
            // Count, the first gap (0: one byte), the rest, the values.
            let expected = 8 + 1 + (k - 1) * gap_width + 4 * k;
            assert_eq!(t.body.wire_bytes(), expected, "stride {stride}");
            let bytes = encode(&t);
            // Rank, one dim, body tag.
            assert_eq!(bytes.len() as u64, 8 + 8 + 1 + expected, "stride {stride}");
            assert_eq!(
                decode::<EncodedTensor>(&bytes).unwrap(),
                t,
                "stride {stride}"
            );
        }
    }

    /// The bytes of a rank-1 sparse tensor of `n` coefficients claiming
    /// `k` entries, with `body` behind the count.
    fn sparse_bytes(n: u64, k: u64, body: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u64_le(n);
        buf.put_u8(2);
        buf.put_u64_le(k);
        buf.put_slice(body);
        buf.into()
    }

    /// Sparse tensors the frame decoder refuses, as bytes, each with the
    /// text it is refused by.
    fn hostile_sparse_fixtures() -> Vec<(Vec<u8>, &'static str)> {
        // One entry, with `gap` in front of enough zero bytes that the
        // 5-bytes-an-entry floor is met and the varint is what decides.
        let one = |gap: &[u8]| {
            let mut body = gap.to_vec();
            body.resize(gap.len() + 8, 0);
            sparse_bytes(1 << 20, 1, &body)
        };
        vec![
            (one(&[0x80; 6]), "varint longer than 5 bytes"),
            (
                one(&[0xFF, 0xFF, 0xFF, 0xFF, 0x8F]),
                "varint longer than 5 bytes",
            ),
            (one(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]), "varint overflows u32"),
            (one(&[0x80, 0x00]), "overlong varint"),
            // The body ends inside the second gap.
            (
                sparse_bytes(100, 2, &[0x05, 0x80]),
                "need 10 bytes for sparse body",
            ),
            // Index 9, then a gap of 0: index 10 of 10.
            (
                sparse_bytes(10, 2, &[9, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
                "sparse index 10 out of bounds for tensor of 10",
            ),
            // Index 5, then the widest gap: the sum is past u32::MAX and
            // must not wrap back into the tensor.
            (
                sparse_bytes(
                    100,
                    2,
                    &[5, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                "sparse index 4294967301 out of bounds",
            ),
            (
                sparse_bytes(4, 5, &[0; 25]),
                "sparse entry count 5 exceeds tensor size 4",
            ),
            // Two 2-byte gaps and six bytes of values: past the floor,
            // two bytes short of the values.
            (
                sparse_bytes(1000, 2, &[0x80, 0x01, 0x80, 0x01, 0, 0, 0, 0, 0, 0]),
                "need 8 bytes for sparse values",
            ),
            // A count the body cannot hold is refused before the index
            // vector is reserved on its word.
            (
                sparse_bytes(1 << 28, 1 << 27, &[0; 64]),
                "need 671088640 bytes for sparse body",
            ),
        ]
    }

    #[test]
    fn hostile_sparse_bodies_are_refused_by_name() {
        for (bytes, expected) in hostile_sparse_fixtures() {
            let err = decode::<EncodedTensor>(&bytes).unwrap_err();
            assert!(matches!(err, FlError::BadConfig { .. }), "{err}");
            let text = err.to_string();
            assert!(text.contains(expected), "{expected}: {text}");
        }
    }

    /// The decoder as it was when validation and reconstruction were one
    /// walk — each tensor checked, then built, before the next is looked
    /// at. The oracle [`check_against`] + rebuild must equal, refusal for
    /// refusal and bit for bit.
    fn decode_interleaved(
        enc: &EncodedWeights,
        reference: Option<&[&Tensor]>,
    ) -> Result<ModelWeights> {
        let bad = |reason: String| FlError::Protocol { reason };
        if !enc.tensors.len().is_multiple_of(2) {
            return Err(bad(format!(
                "encoded payload has odd tensor count {}",
                enc.tensors.len()
            )));
        }
        if let Some(r) = reference {
            if r.len() != enc.tensors.len() {
                return Err(bad(format!(
                    "reference has {} tensors, payload {}",
                    r.len(),
                    enc.tensors.len()
                )));
            }
        }
        let mut decoded = Vec::with_capacity(enc.tensors.len());
        for (i, t) in enc.tensors.iter().enumerate() {
            let n = t
                .dims
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| bad("encoded tensor dims overflow".to_owned()))?;
            let r = reference.map(|f| f[i]);
            if let Some(r) = r.filter(|r| r.dims() != t.dims) {
                return Err(bad(format!(
                    "reference tensor {i} has dims {:?}, payload {:?}",
                    r.dims(),
                    t.dims
                )));
            }
            let data: Vec<f32> = match &t.body {
                EncodedBody::Dense(v) => {
                    if v.len() != n {
                        return Err(bad(format!(
                            "dense body has {} values for {n}-element tensor",
                            v.len()
                        )));
                    }
                    v.clone()
                }
                EncodedBody::Int8 { zero, scale, q } => {
                    if q.len() != n {
                        return Err(bad(format!(
                            "int8 body has {} values for {n}-element tensor",
                            q.len()
                        )));
                    }
                    q.iter().map(|&b| zero + scale * f32::from(b)).collect()
                }
                EncodedBody::TopK { indices, values } => {
                    let r =
                        r.ok_or_else(|| bad("delta body without a reference view".to_owned()))?;
                    if indices.len() != values.len() {
                        return Err(bad("sparse index/value length mismatch".to_owned()));
                    }
                    let mut out = r.data().to_vec();
                    let mut prev: Option<u32> = None;
                    for (&idx, &v) in indices.iter().zip(values) {
                        if prev.is_some_and(|p| idx <= p) {
                            return Err(bad("sparse indices not strictly increasing".to_owned()));
                        }
                        prev = Some(idx);
                        let slot = out
                            .get_mut(idx as usize)
                            .ok_or_else(|| bad(format!("sparse index {idx} out of bounds {n}")))?;
                        *slot += v;
                    }
                    out
                }
            };
            decoded.push(Tensor::from_vec(data, &t.dims).unwrap());
        }
        let mut layers = Vec::with_capacity(decoded.len() / 2);
        let mut it = decoded.into_iter();
        while let (Some(w), Some(b)) = (it.next(), it.next()) {
            layers.push(LayerWeights { w, b });
        }
        Ok(ModelWeights::new(layers))
    }

    /// A model's exact bits, or the refusal's text.
    fn outcome(result: Result<ModelWeights>) -> std::result::Result<Vec<Vec<u32>>, String> {
        result
            .map(|w| crate::transport::tests::bits(flatten(&w)))
            .map_err(|e| e.to_string())
    }

    /// One case of the arrival property. Seeds: the hostile fixtures and
    /// four well-formed sparse tensors, a few bytes overwritten. Whatever
    /// still parses as a tensor is then bent in memory the ways a frame
    /// cannot express (the decoder guarantees them; the arrival check must
    /// not rely on that) and put in a payload, against a fitting
    /// reference, a misfitting one and none.
    fn arrival_case(seed: usize, edits: Vec<(usize, u8)>, bend: usize, view: usize) {
        // Ten hostile seeds; the four that parse take the other draws.
        let mut corpus: Vec<Vec<u8>> = hostile_sparse_fixtures()
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        corpus.extend(
            [(40, 1), (40, 3), (300, 10), (2600, 129)].map(|(n, s)| encode(&strided(n, s))),
        );
        let mut bytes = corpus[if seed < 10 { seed } else { 10 + seed % 4 }].clone();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        let Ok(mut t) = decode::<EncodedTensor>(&bytes) else {
            return;
        };
        let n = t.dims.iter().product::<usize>();
        // A reference is a dense tensor per payload tensor.
        if n > 1 << 21 {
            return;
        }
        if let EncodedBody::TopK { indices, values } = &mut t.body {
            match bend {
                1 if indices.len() >= 2 => indices.swap(0, 1),
                2 if !indices.is_empty() => *indices.last_mut().unwrap() = n as u32,
                3 => drop(values.pop()),
                4 if !indices.is_empty() => indices.push(*indices.last().unwrap()),
                _ => {}
            }
        }
        match bend {
            5 => t.body = EncodedBody::Dense(vec![0.5; n.saturating_sub(1)]),
            6 => {
                t.body = EncodedBody::Int8 {
                    zero: -1.0,
                    scale: 0.5,
                    q: vec![7; n + 1],
                }
            }
            7 => {
                t.body = EncodedBody::Int8 {
                    zero: -1.0,
                    scale: 0.5,
                    q: vec![7; n],
                }
            }
            _ => {}
        }
        let bias = EncodedTensor {
            dims: vec![2],
            body: EncodedBody::Dense(vec![1.0, -2.0]),
        };
        let mut tensors = vec![t.clone(), bias];
        if bend == 8 {
            tensors.pop();
        }
        let enc = EncodedWeights {
            codec: CodecKind::DeltaTopK,
            epoch: 1,
            base_epoch: Some(0),
            tensors,
        };
        let ramp = |dims: &[usize]| {
            let len = dims.iter().product::<usize>();
            Tensor::from_vec((0..len).map(|i| i as f32 * 0.25 - 1.0).collect(), dims).unwrap()
        };
        let model = |w: Tensor| ModelWeights::new(vec![LayerWeights { w, b: ramp(&[2]) }]);
        let reference = match view {
            0 => None,
            // The same coefficients under other dims.
            1 => Some(model(ramp(&[n, 1]))),
            // A layer too many.
            2 => Some(ModelWeights::new(vec![
                LayerWeights {
                    w: ramp(&t.dims),
                    b: ramp(&[2]),
                },
                LayerWeights {
                    w: ramp(&[1]),
                    b: ramp(&[1]),
                },
            ])),
            _ => Some(model(ramp(&t.dims))),
        };
        let flat = reference.as_ref().map(flatten);
        let want = outcome(decode_interleaved(&enc, flat.as_deref()));
        assert_eq!(&outcome(decode_against(&enc, flat.as_deref())), &want);
        let checked = check_against(&enc, flat.as_deref()).map_err(|e| e.to_string());
        assert_eq!(&checked, &want.clone().map(|_| ()));
        // Held for the fold and expanded there, by reference and by
        // value: the same bits, and no way to fail.
        let held = CheckedWeights::new(enc, reference.map(Arc::new)).map_err(|e| e.to_string());
        assert_eq!(held.is_ok(), want.is_ok());
        if let Ok(held) = held {
            assert_eq!(&outcome(Ok(held.to_dense())), &want);
            assert_eq!(&outcome(Ok(held.into_dense())), &want);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn the_arrival_check_accepts_exactly_what_decodes_and_expanding_it_cannot_fail(
            seed in 0usize..24,
            edits in proptest::collection::vec((0usize..4096, proptest::any::<u8>()), 0..3),
            bend in 0usize..12,
            view in 0usize..6,
        ) {
            arrival_case(seed, edits, bend, view);
        }
    }

    #[test]
    fn tiny_tensors_ship_dense_when_sparse_would_not_be_smaller() {
        // One kept coefficient costs 8 (count) + 1 (gap) + 4 (value) = 13
        // bytes: more than a dense tensor of 3, less than one of 4.
        for (n, sparse) in [(1, false), (2, false), (3, false), (4, true), (5, true)] {
            let reference = Tensor::zeros(&[n]);
            let moved = Tensor::from_vec((0..n).map(|i| 1.0 + i as f32).collect(), &[n]).unwrap();
            let enc = encode_topk(&moved, &reference);
            assert_eq!(
                matches!(enc.body, EncodedBody::TopK { .. }),
                sparse,
                "n = {n}"
            );
            assert!(enc.body.wire_bytes() <= 4 * n as u64, "n = {n}");
            if !sparse {
                assert_eq!(enc.body, EncodedBody::Dense(moved.data().to_vec()));
            }
        }
    }

    #[test]
    fn truncated_encodings_never_panic() {
        let w = weights(6);
        let base = weights(7);
        for (kind, reference) in [
            (CodecKind::Identity, None),
            (CodecKind::Int8, None),
            (CodecKind::DeltaTopK, Some((0, &base))),
        ] {
            let bytes = encode(&encode_weights(kind, 0, &w, reference));
            for cut in [1, bytes.len() / 3, bytes.len() - 1] {
                assert!(decode::<EncodedWeights>(&bytes[..cut]).is_err());
            }
        }
    }
}
