//! Pluggable update codecs for the model payload path.
//!
//! Every round ships model weights both directions; for a fleet of
//! millions of clients the dominant cost is those bytes, not cycles.
//! This module is the codec layer every transport speaks: the server
//! proposes a [`CodecKind`] in its `Hello`, the client echoes acceptance
//! in the `HelloAck`, and from then on downloads and uploads carry
//! [`EncodedWeights`] — opaque bytes to every transport (the in-process
//! endpoint and the multiplexed sockets alike).
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
//!   way `repro_kernels` pins `Tiled`'s kernel parity).
//! * [`CodecKind::DeltaTopK`] — top-k sparsified delta against the
//!   previous committed round: both sides hold a reference *view* of
//!   the model per client epoch, only the largest `TOPK_DENSITY`
//!   fraction of per-tensor delta coefficients cross the wire, and the
//!   receiver reconstructs `view + delta`. A view is one shared
//!   allocation per lockstep group on each side: the server's broadcast
//!   decodes it once per group, and a client's is the decoded download it
//!   last trained on, which clients holding the same base and receiving
//!   the same payload share (`client::ClientModels`). An idle client
//!   holds no model of its own. The first exchange (no committed view)
//!   and any tensor whose sparse form would not save bytes fall back to
//!   dense absolute values.
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
//! the first gap is the first index). At `TOPK_DENSITY` kept indices
//! sit 10 apart on average and a gap below 128 is one byte, so a kept
//! coefficient costs 5 bytes — one of gap, four of value — against 4 for
//! every coefficient of a dense body. Decoding refuses `k > n`, a
//! running index `>= n`, and any gap not in the one form the encoder
//! writes (see the varint row of the grammar table in
//! [`crate::message`]), so an accepted body *is* the bytes it arrived
//! as: a [`SparseDelta`] keeps the gap varints it was walked from, and
//! its values, and writes them back out unchanged. Its indices exist only
//! as the one walk over those gaps ([`SparseDelta::entries`]).
//!
//! # Selection
//!
//! A delta-topk tensor of `n` coefficients keeps
//! `k = ⌈n × TOPK_DENSITY⌉` of its deltas `x − r`: those of largest magnitude,
//! the lower index first among equal magnitudes, where magnitudes order as
//! `total_cmp` orders `abs()` — NaN above ±∞, ±∞ above every finite value,
//! and −0.0 tied with +0.0. That order is the unsigned order of a delta's
//! bits without the sign, so the encoder ranks those bits, packed as
//! `(magnitude << 32) | (u32::MAX − index)` so that one integer order is
//! the kept order. It reads `x` and `r` in one pass and builds no delta
//! tensor: a floor is read off 512 strided deltas, set low enough that
//! about one and a quarter times `k` deltas reach it, and the pass lists, in
//! index order, the packed rank of every delta at or above the floor — a
//! word of 64 flagged with no branch, then its set bits listed. One
//! selection on a copy of the list finds the `k`-th rank, and one walk
//! over the list emits the gaps and values of the deltas ranked at or
//! above it, so nothing is sorted. Every delta below the floor ranks
//! below every listed one, so the kept set is exact whatever the floor;
//! if the sample set it so high that fewer than `k` are listed, the pass
//! runs again at floor 0, which lists every delta. The kept set, and with
//! it every encoded byte, is pinned by a digest test and checked against
//! the sorting selection it replaced.
//!
//! # Who holds what, when
//!
//! A payload is dense in exactly three places: in a delta view, one per
//! lockstep group on each side; in the replica a cycle borrows to train
//! on it, one per cycle in flight; and inside the fold that consumes it:
//! its exact fixed-point sum (an `i128` a coordinate), one per round. On
//! the way down, a client runs the download through `check_against`
//! against the view it holds and is handed the group's decoded view. On
//! the way up, the server reads a session's reply, runs it through
//! `check_against` — the one validator: every structural refusal there
//! is and every coefficient that would decode to NaN or ±inf, against
//! the view the client coded it against, allocating nothing — bills it
//! from its lengths and dims, commits the session's view, and *keeps the
//! payload*
//! (a `CheckedWeights`: the [`EncodedWeights`] plus an `Arc` of that
//! view; a payload whose bodies are all dense — every identity reply —
//! is the model already, so it is moved out on the spot, which costs
//! nothing). It reaches the round's commit in that form, straight from
//! the worker, and is folded on arrival — the fold is an exact integer
//! sum, so arrival order cannot move a bit — unless it is a spare that
//! might prove surplus, which waits until every slot below it has
//! arrived. An update that waits costs what crossed the wire, not the
//! dense model: a sparse body holds its wire bytes in memory, one gap
//! byte and one `f32` a kept coefficient, and an int8 body its byte per
//! coefficient. FedAvg's fold reads an int8 or dense payload in place, a
//! chunk of coordinates at a time, and a sparse one at its kept
//! coefficients only, adds it to its exact sum and drops it, and
//! expands nothing; TrimmedMean and Median keep their terms and expand
//! none, reading each payload front to back a chunk of coordinates at a
//! time, so each sparse body's gaps are walked once a tensor; and an
//! update the round does not fold (a surplus spare, a straggler) is
//! never expanded at all. A
//! shard server's self-contained (int8) payloads cross the shard-control
//! channel in the same form and are checked again as they arrive, against
//! no view; a payload that adds to a delta view crosses dense, because the
//! view is the shard server's and the coordinator never holds it. A
//! client's download and the server's mirror decode are the same check
//! followed by the same rebuild, which after the check cannot fail. The
//! public eager calls
//! ([`RemoteClient::train`](crate::transport::RemoteClient::train),
//! `ExecutionEngine::execute_cycles_with`, `PartialAggregate::push` /
//! `into_terms`) still speak dense
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
//! client's last cycle failed or panicked, which drops its view —
//! answers with a typed error containing
//! `BASE_MISMATCH`, and the server re-sends that one download dense.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tensor::Tensor;

use crate::message::{limits, Wire};
use crate::wire::{decode_len, get_f32s, get_varint, need, put_f32s, put_varint, wire_struct};
use crate::{FlError, Result};

/// Fraction of per-tensor delta coefficients [`CodecKind::DeltaTopK`]
/// keeps (at least one per tensor).
pub(crate) const TOPK_DENSITY: f64 = 0.1;

/// Marker embedded in the typed error a client returns when a delta
/// download references a base epoch the client no longer holds. The
/// server detects it and retries that download once, dense.
pub(crate) const BASE_MISMATCH: &str = "codec base mismatch";

/// Which update codec a session speaks, negotiated at Hello/HelloAck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
    /// Canonical name, as reports and logs print it.
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::Identity => "identity",
            CodecKind::Int8 => "int8",
            CodecKind::DeltaTopK => "delta-topk",
        }
    }

    /// The wire tag.
    pub(crate) fn as_u8(self) -> u8 {
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
    pub(crate) fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(CodecKind::Identity),
            1 => Ok(CodecKind::Int8),
            2 => Ok(CodecKind::DeltaTopK),
            other => Err(FlError::Protocol {
                reason: format!("unknown update codec tag {other}"),
            }),
        }
    }

    /// Whether decode reconstructs the exact input bits.
    pub fn is_lossy(&self) -> bool {
        !matches!(self, CodecKind::Identity)
    }
}

/// One encoded tensor body.
#[derive(Debug, Clone, PartialEq)]
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
    /// plus each kept `(index, value)` of the [`SparseDelta`] added at its
    /// index. The body is held as it crosses the wire — a gap varint and
    /// an `f32` a kept coefficient, 5 bytes at top-k density — so it costs
    /// in memory what it costs on the wire. Its indices are walked from
    /// the gaps; a decoded body's are strictly increasing and in bounds,
    /// and the arrival check re-validates a body built in memory.
    TopK(SparseDelta),
}

/// The body of a sparse delta in its wire form: the `k` kept indices as
/// the LEB128 varints of their gaps (`idx - prev - 1`; the first gap is
/// the first index), exactly the bytes the encoder writes, beside the `k`
/// delta values. Only [`from_entries`](Self::from_entries) (the encoder
/// through its builder) and the wire decoder build one, and
/// [`entries`](Self::entries) is the one walk that reads the indices back.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDelta {
    gaps: Vec<u8>,
    values: Vec<f32>,
}

impl SparseDelta {
    /// The body keeping `entries`, `(index, value)` in index order.
    /// Gaps are taken wrapping, so a hand-built list whose indices are not
    /// strictly increasing still builds — and serialises to gaps the
    /// decoder refuses, and walks to an index the arrival check refuses —
    /// instead of panicking in the sender.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, f32)>) -> Self {
        let entries = entries.into_iter();
        SparseDelta::collect(entries.size_hint().0, entries)
    }

    /// [`from_entries`](Self::from_entries) with room for `k` entries
    /// reserved: a gap byte and a value each.
    fn collect(k: usize, entries: impl Iterator<Item = (u32, f32)>) -> Self {
        let (mut gaps, mut values) = (Vec::with_capacity(k), Vec::with_capacity(k));
        let mut next = 0u32;
        for (idx, v) in entries {
            put_varint(&mut gaps, idx.wrapping_sub(next));
            next = idx.wrapping_add(1);
            values.push(v);
        }
        // Exactly the wire bytes: no growth slack is kept.
        SparseDelta {
            gaps: gaps.into_boxed_slice().into_vec(),
            values: values.into_boxed_slice().into_vec(),
        }
    }

    /// The kept `(index, value)` pairs in order, each index walked from
    /// its gap in `u64`, so a wrapped gap cannot land back inside a tensor.
    pub fn entries(&self) -> SparseEntries<'_> {
        SparseEntries {
            gaps: GapWalk::new(&self.gaps),
            values: self.values.iter(),
        }
    }

    /// Exact wire size after the body tag: the count, the gaps, the values.
    fn wire_bytes(&self) -> u64 {
        8 + self.gaps.len() as u64 + 4 * self.values.len() as u64
    }

    /// The body of `k` entries for a tensor of `n` coefficients, read off
    /// the wire behind its count. Each gap is walked as it is read, and the
    /// walked span is kept as the body's gaps.
    fn decode_from(buf: &mut Bytes, k: usize, n: usize) -> Result<Self> {
        // An entry is at least one gap byte and a 4-byte value: a count
        // the body cannot hold reserves nothing.
        need(buf, 5 * k, "sparse body")?;
        let mut walk = GapWalk::new(buf.chunk());
        for _ in 0..k {
            let idx = walk.next_index()?;
            if idx >= n as u64 {
                return Err(FlError::BadConfig {
                    reason: index_out_of_bounds(idx, n),
                });
            }
        }
        let span = buf.chunk().len() - walk.rest.len();
        let gaps = buf.chunk()[..span].to_vec();
        buf.advance(span);
        let values = get_f32s(buf, k, "sparse values")?;
        Ok(SparseDelta { gaps, values })
    }
}

/// The one refusal of a sparse index past its tensor, in every validator.
fn index_out_of_bounds(idx: u64, n: usize) -> String {
    format!("sparse index {idx} out of bounds for tensor of {n}")
}

/// The walk from gap varints to the indices they name: each gap read in
/// the one form the encoder writes and added to the index past the
/// previous one, in `u64`.
#[derive(Debug, Clone)]
struct GapWalk<'a> {
    rest: &'a [u8],
    next: u64,
}

impl<'a> GapWalk<'a> {
    fn new(gaps: &'a [u8]) -> Self {
        GapWalk {
            rest: gaps,
            next: 0,
        }
    }

    #[inline]
    fn next_index(&mut self) -> Result<u64> {
        let gap = match *self.rest {
            // At top-k density nearly every gap is one byte (below 128),
            // read in line; longer ones go through the varint reader.
            [b, ref rest @ ..] if b < 0x80 => {
                self.rest = rest;
                u32::from(b)
            }
            _ => get_varint(&mut self.rest, "sparse index gap")?,
        };
        let idx = self.next + u64::from(gap);
        self.next = idx + 1;
        Ok(idx)
    }
}

/// The `(index, value)` pairs of a [`SparseDelta`], from
/// [`SparseDelta::entries`].
#[derive(Debug, Clone)]
pub struct SparseEntries<'a> {
    gaps: GapWalk<'a>,
    values: std::slice::Iter<'a, f32>,
}

impl Iterator for SparseEntries<'_> {
    type Item = (u64, f32);

    #[inline]
    fn next(&mut self) -> Option<(u64, f32)> {
        let &v = self.values.next()?;
        let idx = self
            .gaps
            .next_index()
            .expect("a sparse body's gaps are the encoder's varints");
        Some((idx, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.values.size_hint()
    }
}

/// One encoded tensor: its shape plus the codec body.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTensor {
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// The encoded coefficients.
    pub body: EncodedBody,
}

/// A whole model's weights in encoded form — the payload the
/// `EncodedModelDownload`/`EncodedUpdateUpload` messages carry. Tensors
/// are the model's layers flattened `[w0, b0, w1, b1, …]`.
#[derive(Debug, Clone, PartialEq)]
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
            EncodedBody::TopK(sparse) => sparse.wire_bytes(),
        }
    }
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

/// Tensor `i` of [`flatten`]`(weights)`, without building the list.
pub(crate) fn flat_tensor(weights: &ModelWeights, i: usize) -> &Tensor {
    let layer = weights
        .layer(i / 2)
        .expect("flattened tensor index in range");
    if i.is_multiple_of(2) {
        &layer.w
    } else {
        &layer.b
    }
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
    let body = EncodedBody::TopK(top_k(t.data(), reference.data(), k));
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

/// Keys [`sampled_floor`] reads to place the listing floor.
const SAMPLE: usize = 512;

/// `|d|` as a key whose unsigned order is `total_cmp`'s on magnitudes:
/// the bits of `d` without the sign. NaN ranks above ±∞, ±∞ above every
/// finite value, and −0.0 ties +0.0.
#[inline]
fn magnitude(d: f32) -> u32 {
    d.to_bits() & 0x7fff_ffff
}

/// The rank of delta `d` at index `i`: `(key << 32) | (u32::MAX − i)`, so
/// that one integer order is the kept order — larger magnitude first, then
/// lower index.
#[inline]
fn ranked(i: usize, d: f32) -> u64 {
    u64::from(magnitude(d)) << 32 | u64::from(u32::MAX - i as u32)
}

/// The body keeping the `k` deltas `x − r` that delta-topk keeps: the
/// largest magnitudes, and among equal magnitudes the lowest indices;
/// `1 <= k <= x.len()`.
///
/// One pass over `(x, r)` lists the rank of every delta whose key reaches
/// a floor read off a sample ([`sampled_floor`]). Every delta below the
/// floor ranks below every listed one, so when at least `k` are listed
/// the kept set is the top `k` of the list, found by one selection on a
/// copy of it; the list is in index order, so one walk over it emits the
/// kept gaps and values together. When the sample set the floor too high
/// and fewer than `k` are listed, the same pass runs again at floor 0,
/// which lists every delta.
fn top_k(x: &[f32], r: &[f32], k: usize) -> SparseDelta {
    let mut listed = Vec::new();
    list_at_or_above(x, r, sampled_floor(x, r, k), &mut listed);
    if listed.len() < k {
        list_at_or_above(x, r, 0, &mut listed);
    }
    let kth = *listed.clone().select_nth_unstable(listed.len() - k).1;
    let kept = listed.iter().filter(|&&p| p >= kth).map(|&p| {
        let i = u32::MAX - p as u32;
        (i, x[i as usize] - r[i as usize])
    });
    SparseDelta::collect(k, kept)
}

/// A floor on the keys of `x − r` that about one and a quarter times `k`
/// of them reach: the key [`SAMPLE`] strided deltas rank at, two
/// standard deviations of a sample's count below where the `k`-th rank
/// would fall. The stride is odd, so it walks across the columns of a
/// matrix whose row length is a power of two. Tensors below four
/// samples' worth take floor 0, which lists every delta. Only speed
/// depends on the floor: [`top_k`] is exact for any.
fn sampled_floor(x: &[f32], r: &[f32], k: usize) -> u32 {
    let n = x.len();
    if n < 4 * SAMPLE {
        return 0;
    }
    let stride = (n / SAMPLE - 1) | 1;
    let mut keys: [u32; SAMPLE] = std::array::from_fn(|s| magnitude(x[s * stride] - r[s * stride]));
    let expected = (SAMPLE * k) as f64 / n as f64;
    let rank = (expected + 2.0 * expected.sqrt()).ceil() as usize + 1;
    if rank >= SAMPLE {
        return 0;
    }
    let (_, &mut floor, _) = keys.select_nth_unstable(SAMPLE - rank);
    floor
}

/// Replaces `listed` with the [`ranked`] value of every delta `x − r`
/// whose key is at least `floor`, in index order.
///
/// A word of 64 deltas is flagged in a loop with no branch, its flags
/// gathered eight at a time into a bit mask, and its set bits listed into
/// room reserved for the word: no branch depends on one delta's flag,
/// which on a random spread would mispredict.
fn list_at_or_above(x: &[f32], r: &[f32], floor: u32, listed: &mut Vec<u64>) {
    listed.clear();
    for (w, (xs, rs)) in x.chunks(64).zip(r.chunks(64)).enumerate() {
        let mut flags = [0u8; 64];
        for ((f, &x), &r) in flags.iter_mut().zip(xs).zip(rs) {
            *f = u8::from(magnitude(x - r) >= floor);
        }
        // Byte j of eight 0/1 bytes lands on bit 56 + j of the product.
        let mut mask = flags.chunks_exact(8).rev().fold(0u64, |mask, eight| {
            let bytes = u64::from_le_bytes(eight.try_into().expect("eight flags"));
            mask << 8 | bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56
        });
        listed.reserve(xs.len());
        while mask != 0 {
            let i = 64 * w + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            listed.push(ranked(i, x[i] - r[i]));
        }
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
/// Returns [`FlError::Protocol`] on structural violations — an odd
/// tensor count, a reference whose tensors are not the payload's in
/// number and dims, a delta body without a reference, out-of-bounds
/// indices, or body/shape length disagreement — and on a coefficient
/// that would decode to NaN or ±inf.
pub fn decode_weights(
    enc: &EncodedWeights,
    reference: Option<&ModelWeights>,
) -> Result<ModelWeights> {
    decode_against(enc, reference.map(flatten).as_deref())
}

/// [`decode_weights`] with the reference view as borrowed tensors,
/// flattened `[w0, b0, w1, b1, …]`. It is [`check_against`] and then
/// [`rebuild_all`], which cannot fail; the decoded model is a fresh
/// allocation, so a refused payload has touched nothing.
pub(crate) fn decode_against(
    enc: &EncodedWeights,
    reference: Option<&[&Tensor]>,
) -> Result<ModelWeights> {
    check_against(enc, reference)?;
    Ok(rebuild_all(enc, reference))
}

/// The one validator of an encoded payload: every refusal there is — an
/// odd tensor count, a reference whose tensors are not the payload's in
/// number and dims, dims whose product overflows, a body whose length
/// disagrees with its dims, a delta body without a reference, sparse
/// indices out of order or out of range, and a coefficient that would
/// decode to NaN or ±inf — in payload order, reading the payload and
/// allocating nothing. With a reference, every tensor must have the
/// reference tensor's dims, so an accepted payload fits the model the
/// reference was taken from. Every coefficient an accepted payload
/// stands for is finite, so no accepted update can poison a fold.
///
/// # Errors
///
/// Returns [`FlError::Protocol`] naming the first violation.
pub(crate) fn check_against(enc: &EncodedWeights, reference: Option<&[&Tensor]>) -> Result<()> {
    let bad = |reason: String| FlError::Protocol { reason };
    let non_finite = |i: usize, at: std::fmt::Arguments<'_>, x: f32| {
        bad(format!("non-finite coefficient {x} in tensor {i} at {at}"))
    };
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
            EncodedBody::Dense(v) => {
                if let Some(j) = v.iter().position(|x| !x.is_finite()) {
                    return Err(non_finite(i, format_args!("index {j}"), v[j]));
                }
            }
            EncodedBody::Int8 { zero, scale, .. } => {
                // `zero + scale * q` for `q` in 0..=255 lies between its
                // two ends, so those and the scale are what can blow up.
                let ends = [
                    ("zero", *zero),
                    ("scale", *scale),
                    ("zero + 255·scale", zero + scale * 255.0),
                ];
                if let Some((at, x)) = ends.into_iter().find(|(_, x)| !x.is_finite()) {
                    return Err(non_finite(i, format_args!("int8 {at}"), x));
                }
            }
            EncodedBody::TopK(sparse) => {
                let Some(r) = r else {
                    return Err(bad("delta body without a reference view".to_owned()));
                };
                for (idx, v) in sparse.entries() {
                    if idx >= n as u64 {
                        return Err(bad(index_out_of_bounds(idx, n)));
                    }
                    // What decodes here is `reference + value`.
                    let x = r.data()[idx as usize] + v;
                    if !x.is_finite() {
                        return Err(non_finite(i, format_args!("index {idx}"), x));
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
    let mut reader = TensorReader::new(body, r);
    let mut out = vec![0.0; reader.base.len()];
    reader.fill(&mut out);
    out
}

/// The model a payload [`check_against`] accepted against `reference`
/// stands for, the payload left in place.
pub(crate) fn rebuild_all(enc: &EncodedWeights, reference: Option<&[&Tensor]>) -> ModelWeights {
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
pub(crate) fn layers(mut tensors: impl Iterator<Item = Tensor>) -> ModelWeights {
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

    /// Whether no body reads the view — no sparse delta — so the payload
    /// alone stands for the model, wherever the view is not held.
    pub(crate) fn is_self_contained(&self) -> bool {
        let sparse = |t: &EncodedTensor| matches!(t.body, EncodedBody::TopK(_));
        !self.enc.tensors.iter().any(sparse)
    }

    /// A front-to-back reader of flattened tensor `i`: the coefficients
    /// of [`to_dense`](Self::to_dense)'s tensor, without building it.
    pub(crate) fn reader(&self, i: usize) -> TensorReader<'_> {
        let view = self.view.as_deref().map(|v| flat_tensor(v, i));
        TensorReader::new(&self.enc.tensors[i].body, view)
    }

    /// The view and the kept `(index, value)` pairs of flattened tensor
    /// `i`, if its body is a sparse delta against that view.
    pub(crate) fn delta(&self, i: usize) -> Option<(&Arc<ModelWeights>, SparseEntries<'_>)> {
        match &self.enc.tensors[i].body {
            EncodedBody::TopK(sparse) => {
                let view = self.view.as_ref();
                Some((
                    view.expect("checked: a delta body has its reference"),
                    sparse.entries(),
                ))
            }
            _ => None,
        }
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

/// One flattened tensor of a held update, read front to back: each
/// [`fill`](Self::fill) writes the next `out.len()` coefficients. An int8
/// body is dequantised as it is read, and a sparse body's gaps are walked
/// once across all the fills, each kept value added to the reference
/// coefficient under it. [`rebuild`] fills through one, so this is the
/// codec's one decoder.
pub(crate) struct TensorReader<'a> {
    base: Coefficients<'a>,
    delta: Option<std::iter::Peekable<SparseEntries<'a>>>,
    at: usize,
}

/// The coefficients a [`TensorReader`] starts from: a dense body or a
/// reference tensor, or an int8 body dequantised as it is read.
enum Coefficients<'a> {
    Floats(&'a [f32]),
    Int8 { zero: f32, scale: f32, q: &'a [u8] },
}

impl Coefficients<'_> {
    fn len(&self) -> usize {
        match self {
            Coefficients::Floats(v) => v.len(),
            Coefficients::Int8 { q, .. } => q.len(),
        }
    }
}

impl<'a> TensorReader<'a> {
    /// A reader of dense coefficients.
    pub(crate) fn dense(data: &'a [f32]) -> Self {
        TensorReader {
            base: Coefficients::Floats(data),
            delta: None,
            at: 0,
        }
    }

    /// A reader of the coefficients a checked `body` stands for;
    /// `reference` is the tensor a sparse delta body adds to.
    pub(crate) fn new(body: &'a EncodedBody, reference: Option<&'a Tensor>) -> Self {
        match body {
            EncodedBody::Dense(v) => TensorReader::dense(v),
            EncodedBody::Int8 { zero, scale, q } => TensorReader {
                base: Coefficients::Int8 {
                    zero: *zero,
                    scale: *scale,
                    q,
                },
                delta: None,
                at: 0,
            },
            EncodedBody::TopK(sparse) => TensorReader {
                base: Coefficients::Floats(
                    reference
                        .expect("checked: a delta body has its reference")
                        .data(),
                ),
                delta: Some(sparse.entries().peekable()),
                at: 0,
            },
        }
    }

    /// Writes the next `out.len()` coefficients to `out`.
    pub(crate) fn fill(&mut self, out: &mut [f32]) {
        let range = self.at..self.at + out.len();
        match self.base {
            Coefficients::Floats(v) => out.copy_from_slice(&v[range.clone()]),
            Coefficients::Int8 { zero, scale, q } => {
                for (x, &b) in out.iter_mut().zip(&q[range.clone()]) {
                    *x = zero + scale * f32::from(b);
                }
            }
        }
        if let Some(entries) = &mut self.delta {
            while let Some((idx, v)) = entries.next_if(|&(idx, _)| idx < range.end as u64) {
                out[idx as usize - range.start] += v;
            }
        }
        self.at = range.end;
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
            EncodedBody::TopK(sparse) => {
                buf.put_u8(2);
                buf.put_u64_le(sparse.values.len() as u64);
                buf.put_slice(&sparse.gaps);
                put_f32s(buf, &sparse.values);
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
                EncodedBody::TopK(SparseDelta::decode_from(buf, k, n)?)
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

/// One byte: the tag `CodecKind::as_u8` names.
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
            assert_eq!(CodecKind::from_u8(kind.as_u8()).unwrap(), kind);
        }
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
            .any(|t| matches!(t.body, EncodedBody::TopK(_))));
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
                    EncodedBody::TopK(_) => 2,
                }));
            }
        }
        assert_eq!(kinds.len(), 3, "every body kind was measured");
    }

    /// The reason a refusal gives, whichever validator made it.
    fn reason(err: FlError) -> String {
        match err {
            FlError::BadConfig { reason } | FlError::Protocol { reason } => reason,
            other => panic!("not a refusal: {other}"),
        }
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
            .find(|t| matches!(t.body, EncodedBody::TopK(_)))
            .expect("a sparse tensor");
        let EncodedBody::TopK(body) = &sparse.body else {
            unreachable!()
        };
        let mut entries: Vec<(u32, f32)> = body.entries().map(|(i, v)| (i as u32, v)).collect();
        entries[0].0 = u32::MAX; // out of bounds and out of order
        sparse.body = EncodedBody::TopK(SparseDelta::from_entries(entries));
        let on_the_wire = decode::<EncodedWeights>(&encode(&enc)).unwrap_err();
        // In-memory decode re-validates too, and names the index the same.
        let in_memory = decode_weights(&enc, Some(&reference)).unwrap_err();
        assert_eq!(reason(on_the_wire), reason(in_memory));
        // Index 9, then index 10 of 10: one text on the wire and in memory.
        let ten = ModelWeights::new(vec![LayerWeights {
            w: Tensor::zeros(&[10]),
            b: Tensor::zeros(&[1]),
        }]);
        let past_the_end = EncodedWeights {
            codec: CodecKind::DeltaTopK,
            epoch: 1,
            base_epoch: Some(0),
            tensors: vec![
                EncodedTensor {
                    dims: vec![10],
                    body: EncodedBody::TopK(SparseDelta::from_entries([(9, 1.0), (10, 1.0)])),
                },
                EncodedTensor {
                    dims: vec![1],
                    body: EncodedBody::Dense(vec![0.0]),
                },
            ],
        };
        let on_the_wire = reason(decode::<EncodedWeights>(&encode(&past_the_end)).unwrap_err());
        let in_memory = reason(decode_weights(&past_the_end, Some(&ten)).unwrap_err());
        assert_eq!(
            on_the_wire,
            "sparse index 10 out of bounds for tensor of 10"
        );
        assert_eq!(in_memory, on_the_wire);
    }

    #[test]
    fn a_sparse_body_holds_its_wire_bytes() {
        // The benchmark's wide model: sparse weights and a sparse bias.
        let reference = zoo::tiny_mlp(256, 128, 2, 5).unwrap().weights();
        let mut moved = reference.clone();
        moved.add_scaled(&reference, 0.01).unwrap();
        let enc = encode_weights(CodecKind::DeltaTopK, 1, &moved, Some((0, &reference)));
        let back: EncodedWeights = decode(&encode(&enc)).unwrap();
        for payload in [&enc, &back] {
            let mut sparse = 0;
            for t in &payload.tensors {
                let EncodedBody::TopK(body) = &t.body else {
                    continue;
                };
                // The count is on the wire, not in the body.
                let held = body.gaps.capacity() + 4 * body.values.capacity();
                assert_eq!(held as u64, t.body.wire_bytes() - 8, "{:?}", t.dims);
                sparse += 1;
            }
            assert!(sparse >= 2, "{sparse} sparse bodies");
        }
    }

    /// A rank-1 sparse tensor of `n` coefficients keeping every
    /// `stride`-th one, so the first index is 0 and every later gap is
    /// `stride - 1`.
    fn strided(n: usize, stride: usize) -> EncodedTensor {
        let indices = (0..n as u32).step_by(stride);
        let entries = indices.map(|i| (i, i as f32 * 0.5 - 3.0));
        EncodedTensor {
            dims: vec![n],
            body: EncodedBody::TopK(SparseDelta::from_entries(entries)),
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
            let EncodedBody::TopK(sparse) = &t.body else {
                unreachable!()
            };
            let indices: Vec<u64> = sparse.entries().map(|(i, _)| i).collect();
            let k = indices.len() as u64;
            assert_eq!((indices[0], indices[k as usize - 1]), (0, n as u64 - 1));
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

    #[test]
    fn non_finite_coefficients_are_refused_by_name() {
        // Tensor 1 (a bias of 4) carries the bad coefficient; tensor 0 and
        // the reference are ordinary, so only the body under test decides.
        let reference = ModelWeights::new(vec![LayerWeights {
            w: Tensor::from_vec(vec![0.5; 6], &[2, 3]).unwrap(),
            b: Tensor::from_vec(vec![1.0, -1.0, f32::MAX, 2.0], &[4]).unwrap(),
        }]);
        let payload = |body: EncodedBody| EncodedWeights {
            codec: CodecKind::DeltaTopK,
            epoch: 1,
            base_epoch: Some(0),
            tensors: vec![
                EncodedTensor {
                    dims: vec![2, 3],
                    body: EncodedBody::Dense(vec![0.25; 6]),
                },
                EncodedTensor {
                    dims: vec![4],
                    body,
                },
            ],
        };
        let dense = |x: f32| EncodedBody::Dense(vec![0.0, 1.0, 2.0, x]);
        let int8 = |zero: f32, scale: f32| EncodedBody::Int8 {
            zero,
            scale,
            q: vec![0, 1, 2, 3],
        };
        let sparse =
            |idx: u32, v: f32| EncodedBody::TopK(SparseDelta::from_entries([(0, 0.5), (idx, v)]));
        let cells = [
            (
                dense(f32::NAN),
                "non-finite coefficient NaN in tensor 1 at index 3",
            ),
            (
                dense(f32::INFINITY),
                "non-finite coefficient inf in tensor 1 at index 3",
            ),
            (
                dense(f32::NEG_INFINITY),
                "non-finite coefficient -inf in tensor 1 at index 3",
            ),
            (
                int8(f32::NAN, 1.0),
                "non-finite coefficient NaN in tensor 1 at int8 zero",
            ),
            (
                int8(0.0, f32::INFINITY),
                "non-finite coefficient inf in tensor 1 at int8 scale",
            ),
            (
                int8(f32::MIN, -f32::MAX / 128.0),
                "non-finite coefficient -inf in tensor 1 at int8 zero + 255·scale",
            ),
            (
                sparse(3, f32::NAN),
                "non-finite coefficient NaN in tensor 1 at index 3",
            ),
            (
                sparse(3, f32::INFINITY),
                "non-finite coefficient inf in tensor 1 at index 3",
            ),
            (
                sparse(3, f32::NEG_INFINITY),
                "non-finite coefficient -inf in tensor 1 at index 3",
            ),
            // Both finite, their sum is not: `reference + value` decodes.
            (
                sparse(2, f32::MAX),
                "non-finite coefficient inf in tensor 1 at index 2",
            ),
        ];
        for (body, why) in cells {
            let enc = payload(body);
            let err = decode_weights(&enc, Some(&reference)).unwrap_err();
            assert!(matches!(err, FlError::Protocol { .. }), "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
            let flat = flatten(&reference);
            let checked = check_against(&enc, Some(&flat)).unwrap_err();
            assert_eq!(checked.to_string(), err.to_string());
        }
        // The edges themselves are fine.
        let edges = [dense(f32::MAX), int8(f32::MIN, f32::MAX / 256.0)];
        for body in edges.into_iter().chain([sparse(2, -f32::MAX)]) {
            assert!(decode_weights(&payload(body), Some(&reference)).is_ok());
        }
    }

    /// The decoder as it was when validation and reconstruction were one
    /// walk — each tensor checked, then built, before the next is looked
    /// at — plus the non-finite refusal, made on each coefficient as it is
    /// built. The oracle [`check_against`] + rebuild must equal, refusal
    /// for refusal and bit for bit.
    fn decode_interleaved(
        enc: &EncodedWeights,
        reference: Option<&[&Tensor]>,
    ) -> Result<ModelWeights> {
        let bad = |reason: String| FlError::Protocol { reason };
        let finite = |i: usize, at: String, x: f32| {
            if x.is_finite() {
                Ok(x)
            } else {
                Err(bad(format!(
                    "non-finite coefficient {x} in tensor {i} at {at}"
                )))
            }
        };
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
                    let at = |j: usize| format!("index {j}");
                    let checked = v.iter().enumerate().map(|(j, &x)| finite(i, at(j), x));
                    checked.collect::<Result<_>>()?
                }
                EncodedBody::Int8 { zero, scale, q } => {
                    if q.len() != n {
                        return Err(bad(format!(
                            "int8 body has {} values for {n}-element tensor",
                            q.len()
                        )));
                    }
                    finite(i, "int8 zero".to_owned(), *zero)?;
                    finite(i, "int8 scale".to_owned(), *scale)?;
                    finite(i, "int8 zero + 255·scale".to_owned(), zero + scale * 255.0)?;
                    q.iter().map(|&b| zero + scale * f32::from(b)).collect()
                }
                EncodedBody::TopK(sparse) => {
                    let r =
                        r.ok_or_else(|| bad("delta body without a reference view".to_owned()))?;
                    let mut out = r.data().to_vec();
                    for (idx, v) in sparse.entries() {
                        let slot = out.get_mut(idx as usize).ok_or_else(|| {
                            bad(format!(
                                "sparse index {idx} out of bounds for tensor of {n}"
                            ))
                        })?;
                        *slot = finite(i, format!("index {idx}"), *slot + v)?;
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
        if let EncodedBody::TopK(sparse) = &t.body {
            let mut entries: Vec<(u32, f32)> =
                sparse.entries().map(|(i, v)| (i as u32, v)).collect();
            match bend {
                1 if entries.len() >= 2 => entries.swap(0, 1),
                2 if !entries.is_empty() => entries.last_mut().unwrap().0 = n as u32,
                3 => drop(entries.pop()),
                4 if !entries.is_empty() => entries.push(*entries.last().unwrap()),
                _ => {}
            }
            t.body = EncodedBody::TopK(SparseDelta::from_entries(entries));
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
            assert_eq!(matches!(enc.body, EncodedBody::TopK(_)), sparse, "n = {n}");
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

    /// A seeded draw in `[-1, 1)`: the splitmix64 finaliser of
    /// `(seed, i)`, scaled from its top 24 bits, so exact on every host.
    fn draw(seed: u64, i: usize) -> f32 {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u32 << 23) as f32 - 1.0
    }

    /// `f` at `0..n`, as a rank-1 tensor.
    fn vector(n: usize, f: impl Fn(usize) -> f32) -> Tensor {
        Tensor::from_vec((0..n).map(f).collect(), &[n]).unwrap()
    }

    /// The encoded bytes of every delta-topk input the kept set is pinned
    /// over, in order: real one-step drifts of the wide MLP, rank-2
    /// outer-product deltas with dead ReLU rows, tie-heavy deltas, a
    /// mostly-zero tensor mixing ±0.0, a tensor of NaN, ±∞ and
    /// subnormals, and every tensor size from 1 to 17.
    fn pinned_sweep() -> Vec<Vec<u8>> {
        use gradsec_nn::optim::Sgd;
        use gradsec_tensor::{init, ops::threads};

        let mut frames = Vec::new();
        for seed in 0..3 {
            let (before, after) = threads::with_budget(1, || {
                let mut model = zoo::tiny_mlp(256, 128, 2, seed).unwrap();
                let before = model.weights();
                let x = init::uniform(&[16, 256], -1.0, 1.0, 100 + seed);
                let mut y = Tensor::zeros(&[16, 2]);
                for i in 0..16 {
                    y.set(&[i, i % 2], 1.0).unwrap();
                }
                model.train_batch(x, &y, &mut Sgd::new(0.05)).unwrap();
                (before, model.weights())
            });
            let enc = encode_weights(CodecKind::DeltaTopK, 1, &after, Some((0, &before)));
            frames.push(encode(&enc));
        }
        let mut tensor = |t: Tensor, r: Tensor| frames.push(encode(&encode_topk(&t, &r)));
        for seed in 0..3 {
            let (rows, cols) = (96, 40);
            // A dense layer's gradient is a sum of outer products; a ReLU
            // unit that never fired contributes a zero row.
            let u = |j: u64, r: usize| {
                let dead = draw(seed + 10, r) < -0.5;
                if dead {
                    0.0
                } else {
                    draw(4 * seed + j, r)
                }
            };
            let v = |j: u64, c: usize| draw(4 * seed + 2 + j, c);
            let delta = |i: usize| {
                let (r, c) = (i / cols, i % cols);
                0.01 * (u(0, r) * v(0, c) + u(1, r) * v(1, c))
            };
            let r = vector(rows * cols, |i| 0.1 * draw(seed + 50, i));
            tensor(vector(rows * cols, |i| r.data()[i] + delta(i)), r);
        }
        for (seed, n) in [(20, 1000), (21, 4099)] {
            // Small integers, so every delta is exact and lands in
            // {-2, …, 2}.
            let r = vector(n, |i| (8.0 * draw(seed, i)).floor());
            let d = |i: usize| (2.5 * draw(seed + 1, i)).round().clamp(-2.0, 2.0);
            tensor(vector(n, |i| r.data()[i] + d(i)), r);
        }
        let zero = |i: usize| if draw(31, i) < 0.0 { -0.0 } else { 0.0 };
        let sparse = |i: usize| {
            if draw(30, i) > 0.97 {
                draw(32, i)
            } else {
                zero(i)
            }
        };
        tensor(vector(777, sparse), Tensor::zeros(&[777]));
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(0x7f_ffff),
            f32::MIN_POSITIVE,
            -f32::MAX,
            0.0,
            -0.0,
        ];
        // About as many non-finite values as are kept, so the k-th rank
        // falls near the edge between them and the finite ones.
        let odd = |i: usize| {
            let pick = ((draw(40, i) + 1.0) * 24.0) as usize;
            special.get(pick).copied().unwrap_or(draw(41, i))
        };
        tensor(vector(300, odd), vector(300, |i| draw(42, i) * 1e-39));
        let tiny = |i: usize| {
            let bits = ((draw(43, i) + 1.0) * 4_194_304.0) as u32;
            f32::from_bits(bits) * if draw(44, i) < 0.0 { -1.0 } else { 1.0 }
        };
        tensor(vector(300, tiny), Tensor::zeros(&[300]));
        for n in 1..=17 {
            tensor(vector(n, |i| draw(50, i)), vector(n, |i| draw(51, i)));
        }
        frames
    }

    #[test]
    fn delta_topk_selection_is_pinned() {
        // The SHA-256 of every pinned encoding, captured from the
        // permutation-and-select encoder this one replaced: the kept set,
        // its values, its gap bytes and the dense fallback are frozen.
        let frames = pinned_sweep();
        let digest: String = gradsec_tee::crypto::sha256::sha256(&frames.concat())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "194fcc4b33e4dcb81a7827cb57b1e6a59ccec22d3bef8693ed196c50180a20c0"
        );
    }

    #[test]
    fn the_kept_set_is_largest_magnitude_then_lowest_index() {
        // The kept `(index, delta bits)` of `delta` against a zero
        // reference; 20 coefficients keep 2, 30 keep 3.
        let kept = |delta: &[f32]| -> Vec<(u64, u32)> {
            let n = delta.len();
            let t = Tensor::from_vec(delta.to_vec(), &[n]).unwrap();
            let EncodedBody::TopK(sparse) = encode_topk(&t, &Tensor::zeros(&[n])).body else {
                panic!("{n} coefficients ship sparse")
            };
            sparse.entries().map(|(i, v)| (i, v.to_bits())).collect()
        };
        let at = |d: &[f32], i: usize| (i as u64, (d[i] - 0.0).to_bits());
        // Equal magnitudes: the lower index wins, whatever the sign.
        let mut d = [0.5f32; 20];
        (d[3], d[7], d[12], d[15]) = (-3.0, 3.0, 3.0, 2.0);
        assert_eq!(kept(&d), [at(&d, 3), at(&d, 7)]);
        // A larger magnitude wins over a lower index.
        d[19] = -4.0;
        assert_eq!(kept(&d), [at(&d, 3), at(&d, 19)]);
        // −0.0 ties +0.0, so among zeros the index decides and each kept
        // zero keeps its sign.
        let mut z = [0.0f32; 20];
        (z[0], z[1], z[2]) = (-0.0, 0.0, -0.0);
        assert_eq!(kept(&z), [at(&z, 0), at(&z, 1)]);
        z[0] = 0.0;
        z[1] = -0.0;
        assert_eq!(kept(&z), [at(&z, 0), at(&z, 1)]);
        // NaN ranks above ±∞, and ±∞ above every finite value.
        let mut s = [1.0f32; 30];
        (s[2], s[6], s[9], s[14]) = (f32::MAX, f32::NEG_INFINITY, f32::NAN, f32::INFINITY);
        assert_eq!(kept(&s), [at(&s, 6), at(&s, 9), at(&s, 14)]);
        assert_eq!(kept(&s[..20]), [at(&s, 6), at(&s, 9)]);
        s[1] = -f32::NAN;
        assert_eq!(kept(&s), [at(&s, 1), at(&s, 6), at(&s, 9)]);
        // And below the non-finite ones, the largest finite magnitude.
        let mut f = [1.0f32; 30];
        (f[4], f[8], f[20]) = (f32::NAN, -f32::MAX, f32::from_bits(1));
        assert_eq!(kept(&f), [at(&f, 0), at(&f, 4), at(&f, 8)]);
    }

    /// The encoder's worst cases by name, each encoded to the sorting
    /// oracle's bytes: ascending magnitudes, all-equal deltas, all-zero
    /// deltas, a NaN and ±∞ among finite deltas, every `n` in 1..=17, `k
    /// = n`, and a periodic input whose large deltas sit on the sample's
    /// stride, so the sampled floor lists fewer than `k` and the pass runs
    /// again at floor 0.
    #[test]
    fn the_encoder_equals_the_oracle_on_its_worst_cases() {
        let same = |t: &Tensor, r: &Tensor, what: &str| {
            let got = encode(&encode_topk(t, r));
            assert_eq!(got, encode(&encode_topk_oracle(t, r)), "{what}");
        };
        let zero = |n: usize| Tensor::zeros(&[n]);
        let n = 5000;
        same(&vector(n, |i| i as f32 * 1e-3), &zero(n), "ascending");
        let r = vector(n, |i| draw(60, i));
        same(&vector(n, |i| r.data()[i] + 0.25), &r, "all equal");
        same(&r, &r, "all zero");
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let odd = |i: usize| special.get(i % 997).copied().unwrap_or(draw(61, i));
        same(&vector(n, odd), &zero(n), "non-finite among finite");
        for n in 1..=17 {
            same(
                &vector(n, |i| draw(62, i)),
                &vector(n, |i| draw(63, i)),
                "small n",
            );
        }
        // k = n: every delta is kept, in index order.
        let (x, r) = (vector(n, |i| draw(64, i)), vector(n, |i| draw(65, i)));
        let all = (0..n).map(|i| (i as u32, x.data()[i] - r.data()[i]));
        assert_eq!(top_k(x.data(), r.data(), n), SparseDelta::from_entries(all));
        // The sample reads every 63rd delta of 32 768, each of them large.
        let n = 32_768;
        let k = ((n as f64 * TOPK_DENSITY).ceil()) as usize;
        let periodic = vector(n, |i| {
            if i % 63 == 0 {
                4.0 + draw(66, i)
            } else {
                draw(67, i)
            }
        });
        let floor = sampled_floor(periodic.data(), zero(n).data(), k);
        let listed = periodic
            .data()
            .iter()
            .filter(|d| magnitude(**d) >= floor)
            .count();
        assert!(listed < k, "{listed} listed at the sampled floor, k = {k}");
        same(&periodic, &zero(n), "periodic on the stride");
    }

    /// The delta-topk encoder as it was before its radix selection: an
    /// `n`-index permutation partitioned by `select_nth_unstable_by` on
    /// `total_cmp` of the magnitudes, ties broken by index, and the
    /// survivors sorted. Kept verbatim as the oracle.
    fn encode_topk_oracle(t: &Tensor, reference: &Tensor) -> EncodedTensor {
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
        let kept = &mut order[..k];
        kept.sort_unstable();
        let entries = kept.iter().map(|&i| (i, delta[i as usize]));
        let body = EncodedBody::TopK(SparseDelta::from_entries(entries));
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

    /// A tensor of `n` deltas of one of seven `shape`s against a zero
    /// reference (the last against a drawn one), each chosen to stress the
    /// selection: everything in one bin, two values, a tie across the k-th
    /// rank, one bin of distinct keys, ±0.0, non-finite values, and a
    /// spread over forty octaves.
    fn oracle_case(n: usize, shape: usize, seed: u64) -> (Tensor, Tensor) {
        let k = ((n as f64 * TOPK_DENSITY).ceil() as usize).clamp(1, n);
        let u = |i: usize| draw(seed, i);
        let bits = |i: usize| ((u(i) + 1.0) * 8_388_608.0) as u32;
        let sign = |i: usize, x: f32| if draw(seed ^ 1, i) < 0.0 { -x } else { x };
        let zero = Tensor::zeros(&[n]);
        let delta = match shape {
            0 => vector(n, |_| draw(seed, 0)),
            1 => {
                let (a, b) = (draw(seed, 0), draw(seed, 1));
                vector(n, |i| if u(i + 2) < 0.0 { a } else { b })
            }
            2 => {
                // `above` larger magnitudes and a block of equal ones that
                // rank `above + 1 ..= above + ties`, so the k-th rank falls
                // inside the block; the rest smaller. Placed at drawn slots.
                let above = k - 1 - (bits(0) as usize % k);
                let ties = (2 * (k - above) + 1).min(n - above);
                let mut values: Vec<f32> = (0..n)
                    .map(|i| match i {
                        i if i < above => 2.0 + u(i),
                        i if i < above + ties => sign(i, 0.75),
                        _ => 0.5 * u(i),
                    })
                    .collect();
                for i in (1..n).rev() {
                    values.swap(i, bits(i) as usize % (i + 1));
                }
                Tensor::from_vec(values, &[n]).unwrap()
            }
            3 => vector(n, |i| {
                sign(i, f32::from_bits(0x3f80_0000 | (bits(i) % (1 << 20))))
            }),
            4 => vector(n, |i| match u(i) {
                x if x > 0.9 => x,
                x if x < -0.4 => -0.0,
                _ => 0.0,
            }),
            5 => vector(n, |i| {
                let special = [
                    f32::NAN,
                    f32::from_bits(0x7fc0_0000 | (bits(i) % 64)),
                    f32::INFINITY,
                    f32::from_bits(bits(i) % 64),
                    0.0,
                ];
                let x = special.get(bits(i) as usize % 8).copied().unwrap_or(u(i));
                sign(i, x)
            }),
            _ => {
                let r = vector(n, |i| draw(seed ^ 2, i));
                let t = vector(n, |i| {
                    r.data()[i] + u(i) * 2f32.powi(bits(i) as i32 % 40 - 20)
                });
                return (t, r);
            }
        };
        (delta, zero)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(384))]

        #[test]
        fn the_radix_selection_equals_the_sorting_oracle(
            raw in 0usize..40_000,
            scale in 0u32..16,
            shape in 0usize..7,
            seed in proptest::any::<u64>(),
        ) {
            // Small tensors as often as large ones: 1 ..= 40 000.
            let n = 1 + (raw >> scale);
            let (t, r) = oracle_case(n, shape, seed);
            let got = encode(&encode_topk(&t, &r));
            proptest::prop_assert_eq!(got, encode(&encode_topk_oracle(&t, &r)), "n = {}, shape {}", n, shape);
        }
    }
}
