//! Wire messages between the FL server and clients.
//!
//! Every payload has a concrete binary framing (a little-endian codec
//! over the `bytes` crate). These bytes genuinely cross process/socket
//! boundaries: each message travels inside a typed, versioned
//! [`Envelope`] whose header doubles as the length-prefixed TCP frame,
//! and the trusted I/O path (`gradsec-tee::tiop`) can seal exactly the
//! same bytes.
//!
//! Peers are always the same build, so there is one wire dialect: the
//! [`Hello`]/[`HelloAck`] exchange at session start states each side's
//! [`PROTOCOL_VERSION`] and negotiates only the update codec; any other
//! version is refused by name (see [`check_version`]).
//!
//! # Wire grammar
//!
//! A message is its field list, in wire order, over a handful of leaf
//! shapes that are laid out and bounded once (in the crate-private
//! `wire` module). The `wire_struct!` / `wire_enum!` lines after each
//! plane's type definitions *are* the format.
//!
//! | shape | bytes | bound on decode |
//! |---|---|---|
//! | `u8` `u16` `u64` `f32` `f64` | fixed width, little-endian | truncation |
//! | `usize` | a `u64` | must fit this target's `usize` (never truncated) |
//! | `[u8; N]` | `N` raw bytes | truncation |
//! | `String` | `u64` length, UTF-8 bytes | [`limits::MAX_FIELD_BYTES`]; valid UTF-8 |
//! | `Option<T>` | `u8` flag `0`/`1`, then `T` if `1` | any other flag refused |
//! | list (`Vec<T>`, map) | `u64` count, then each item (map: key, value) | a per-field cap from [`limits`]; the count must fit the bytes that remain |
//! | `(A, B)` | `A` then `B` | — |
//! | `f32` run | the floats back to back, count known from context | the count's own bound; truncation, before allocating |
//! | varint (`u32`) | LEB128: 7 bits a byte, low group first, shortest form | at most 5 bytes; no bits beyond `u32`; overlong form refused |
//! | struct | its fields in listed order | an optional post-decode `validate` |
//! | tagged enum | `u8` tag, then that variant's fields | unknown tag refused |
//!
//! Written out by hand instead: [`Tensor`] and the
//! [`EncodedTensor`](crate::codec::EncodedTensor) body (the hot loops;
//! ranks and element counts bounded by [`limits`]), and the two frame
//! formats — the [`Envelope`] header and the sealed [`Frame`], both
//! bounded by [`MAX_ENVELOPE_PAYLOAD`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tee::attestation::{Challenge, Measurement, Quote};
use gradsec_tee::cost::{ClientCycleCost, RoundLedger, TimeBreakdown, WireBill};
use gradsec_tee::ta::Uuid;
use gradsec_tee::tiop::Frame;
use gradsec_tensor::Tensor;

use crate::adversary::AdversaryPlan;
use crate::aggregate::PartialAggregate;
use crate::codec::{CheckedWeights, CodecKind, EncodedWeights};
use crate::config::{PartitionKind, TrainingPlan};
use crate::faults::FaultPlan;
use crate::wire::{
    decode_count, decode_len, get_f32s, put_f32s, take_bytes, wire_enum, wire_list, wire_struct,
};
use crate::{FlError, Result};

/// The decode-side size caps every length-prefixed field in this
/// protocol is validated against — one named home so hostile lengths
/// are bounded uniformly across the base messages, the shard-control
/// plane, the fault plan and the codec payloads.
pub mod limits {
    /// No single length-prefixed field legitimately exceeds 256 MiB
    /// (bytes for byte fields, elements for f32 fields).
    pub const MAX_FIELD_BYTES: usize = 256 * 1024 * 1024;

    /// Maximum tensor rank any model in this protocol ships.
    pub const MAX_TENSOR_RANK: usize = 16;

    /// Maximum model layer count.
    pub const MAX_LAYERS: usize = 4096;

    /// Maximum protected-layer indices on a download (bounded by the
    /// layer count they index into).
    pub const MAX_PROTECTED_LAYERS: usize = MAX_LAYERS;

    /// Item-count bound for list fields (candidate lists, pick lists,
    /// aggregate terms, ledger entries): no shard legitimately hosts
    /// more than a million clients, so a larger prefix is hostile.
    pub const MAX_LIST_ITEMS: usize = 1 << 20;

    /// Maximum entries a wire-shipped fault plan may carry (one per
    /// client, same fleet bound as [`MAX_LIST_ITEMS`]).
    pub const MAX_PLAN_ENTRIES: usize = MAX_LIST_ITEMS;

    /// Maximum tensors in one encoded payload: two per layer.
    pub const MAX_ENCODED_TENSORS: usize = 2 * MAX_LAYERS;
}

/// The protocol version this build speaks — the only one it accepts.
///
/// Version 2 introduced the [`Envelope`] header and the TEE cost
/// accounting carried on [`UpdateUpload`]; version 3 the shard-control
/// messages (`Shard*`); version 4 the update-codec layer (the encoded
/// payload kinds and the codec byte on [`Hello`]/[`HelloAck`]); version 5
/// the adversarial-scenario fields on [`ShardConfig`]. Version 6 is the
/// single dialect: both hellos carry one version instead of a range, and
/// the plain download/upload envelope kinds are gone (model payloads
/// always travel encoded, identity codec included). Version 7 gap-codes
/// the sparse codec body's indices as varints (see [`crate::codec`]).
pub const PROTOCOL_VERSION: u16 = 7;

/// Checks the version `peer` stamped on a hello, an ack or an envelope.
/// Coordinator, shard servers and clients are always the same build, so
/// nothing is negotiated: anything but [`PROTOCOL_VERSION`] is refused.
///
/// # Errors
///
/// Returns [`FlError::Protocol`] naming both versions.
pub fn check_version(peer: &str, version: u16) -> Result<()> {
    if version == PROTOCOL_VERSION {
        return Ok(());
    }
    Err(FlError::Protocol {
        reason: format!(
            "{peer} speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
        ),
    })
}

/// Server → client: attestation challenge during selection (Figure 2-➊).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttestationRequest {
    /// The freshness challenge.
    pub challenge: Challenge,
}

/// Client → server: attestation evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttestationResponse {
    /// The signed quote, absent when the device has no TEE.
    pub quote: Option<Quote>,
}

/// Server → client: the global model and plan for one cycle (Figure 2-➋).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelDownload {
    /// Round this download belongs to.
    pub round: u64,
    /// Global model weights.
    pub weights: ModelWeights,
    /// The training plan.
    pub plan: TrainingPlan,
    /// Indices of the layers the client must shelter this cycle (the
    /// GradSec protection configuration; empty = unprotected).
    pub protected_layers: Vec<usize>,
}

/// Client → server: the trained update (Figure 2-➍).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateUpload {
    /// Uploading client.
    pub client_id: u64,
    /// Round the update belongs to.
    pub round: u64,
    /// The client's post-training weights.
    pub weights: ModelWeights,
    /// Samples trained on (FedAvg weighting).
    pub num_samples: usize,
    /// Mean training loss over the cycle.
    pub train_loss: f32,
    /// The cycle's TEE accounting. Carried on the wire (protocol v2) so
    /// the server's round ledger stays complete when the client lives in
    /// another process or on another machine.
    pub cost: ClientCycleCost,
}

/// Server → client (protocol v4): a [`ModelDownload`] whose weights
/// travel as an [`EncodedWeights`] codec payload. The leading round
/// field keeps the same byte offset as the plain download so the fault
/// layer's round peek works on both kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedModelDownload {
    /// Round this download belongs to.
    pub round: u64,
    /// The encoded global model weights.
    pub weights: EncodedWeights,
    /// The training plan.
    pub plan: TrainingPlan,
    /// Indices of the layers the client must shelter this cycle.
    pub protected_layers: Vec<usize>,
}

/// Client → server (protocol v4): an [`UpdateUpload`] whose weights
/// travel as an [`EncodedWeights`] codec payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedUpdateUpload {
    /// Uploading client.
    pub client_id: u64,
    /// Round the update belongs to.
    pub round: u64,
    /// The client's encoded post-training weights.
    pub weights: EncodedWeights,
    /// Samples trained on (FedAvg weighting).
    pub num_samples: usize,
    /// Mean training loss over the cycle.
    pub train_loss: f32,
    /// The cycle's TEE accounting (the server overwrites the wire-bytes
    /// bill with what it actually observed on the wire).
    pub cost: ClientCycleCost,
}

/// An [`UpdateUpload`] as the server holds it from arrival to the fold:
/// the metadata the round reads (who, how many samples, what loss, what
/// it cost) beside weights still in the form they arrived in. A session's
/// int8 or sparse reply stays the codec payload that crossed the wire,
/// already checked against the view it names ([`CheckedWeights`]), so a
/// pending update costs what it cost the network; a reply of dense bodies,
/// a scripted fleet's update and a shard server's are dense on arrival
/// and are carried as they are.
/// [`expand`](Self::expand) is the only way to the coefficients.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArrivedUpload {
    pub(crate) client_id: u64,
    pub(crate) round: u64,
    pub(crate) weights: ArrivedWeights,
    pub(crate) num_samples: usize,
    pub(crate) train_loss: f32,
    pub(crate) cost: ClientCycleCost,
}

/// The two forms an arrived update's weights wait in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ArrivedWeights {
    /// Already dense.
    Dense(ModelWeights),
    /// As they crossed the wire, checked on arrival. Boxed, so that an
    /// arrived update is a word larger than the dense one it may become —
    /// a round holds one per selected client in each of three vectors.
    Wire(Box<CheckedWeights>),
}

impl From<UpdateUpload> for ArrivedUpload {
    fn from(upload: UpdateUpload) -> Self {
        ArrivedUpload {
            client_id: upload.client_id,
            round: upload.round,
            weights: ArrivedWeights::Dense(upload.weights),
            num_samples: upload.num_samples,
            train_loss: upload.train_loss,
            cost: upload.cost,
        }
    }
}

impl ArrivedUpload {
    /// The dense update. Dense weights are moved, a wire payload's dense
    /// bodies too; int8 and sparse bodies are rebuilt against the view
    /// the payload was checked against, which cannot fail.
    pub(crate) fn expand(self) -> UpdateUpload {
        #[cfg(test)]
        if matches!(self.weights, ArrivedWeights::Wire(_)) {
            probe::note(probe::Event::Expanded(self.client_id));
        }
        UpdateUpload {
            client_id: self.client_id,
            round: self.round,
            weights: match self.weights {
                ArrivedWeights::Dense(weights) => weights,
                ArrivedWeights::Wire(checked) => checked.into_dense(),
            },
            num_samples: self.num_samples,
            train_loss: self.train_loss,
            cost: self.cost,
        }
    }
}

/// What became of the wire-form uploads on this thread, in order: the
/// log the two-views tests read to show that an upload the round does
/// not fold is never expanded, and that the FedAvg fold expands one
/// at a time.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::RefCell;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Event {
        /// A wire-form upload of this client was expanded.
        Expanded(u64),
        /// The fold added this client's term (and drops it before it
        /// pulls the next).
        Folded(u64),
    }

    thread_local! {
        static LOG: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn note(event: Event) {
        LOG.with(|log| log.borrow_mut().push(event));
    }

    /// This thread's events since the last call.
    pub(crate) fn take() -> Vec<Event> {
        LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }
}

/// Session setup, server → client: the server's protocol version plus
/// the update codec it intends to speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The protocol version the server speaks.
    pub version: u16,
    /// The update codec the server proposes for this session.
    pub codec: CodecKind,
}

impl Hello {
    /// The Hello this build sends (identity codec).
    pub fn current() -> Self {
        Hello::with_codec(CodecKind::Identity)
    }

    /// The Hello this build sends, proposing `codec`.
    pub fn with_codec(codec: CodecKind) -> Self {
        Hello {
            version: PROTOCOL_VERSION,
            codec,
        }
    }
}

/// Session setup, client → server: the client's protocol version plus
/// its identity (which keys the server's attestation registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloAck {
    /// The protocol version the client speaks.
    pub version: u16,
    /// The connecting client's id.
    pub client_id: u64,
    /// The codec the client accepted (echo of the server's proposal).
    pub codec: CodecKind,
}

/// Either direction: a failure report that replaces the expected reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Human-readable reason.
    pub reason: String,
}

/// A type with a binary wire encoding.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode_into(&self, buf: &mut BytesMut);

    /// Decodes one value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] on truncated or malformed input.
    fn decode_from(buf: &mut Bytes) -> Result<Self>;
}

/// Serialises a message to bytes.
pub fn encode<T: Wire>(msg: &T) -> Vec<u8> {
    let mut buf = BytesMut::new();
    msg.encode_into(&mut buf);
    buf.into()
}

/// Deserialises a message from bytes, requiring full consumption.
///
/// # Errors
///
/// Returns [`FlError::BadConfig`] on malformed input or trailing bytes.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let v = T::decode_from(&mut buf)?;
    if buf.has_remaining() {
        return Err(FlError::BadConfig {
            reason: format!("{} trailing bytes after message", buf.remaining()),
        });
    }
    Ok(v)
}

/// The kind tag of an [`Envelope`], one per message the protocol speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum MessageKind {
    /// [`Hello`] — version and codec offer (server → client).
    Hello = 0,
    /// [`HelloAck`] — version, identity and codec echo (client → server).
    HelloAck = 1,
    /// [`AttestationRequest`] (Figure 2-➊).
    AttestationRequest = 2,
    /// [`AttestationResponse`].
    AttestationResponse = 3,
    /// Session teardown; carries no payload and expects no reply.
    Goodbye = 6,
    /// [`ErrorReply`] — the peer could not produce the expected reply.
    Error = 7,
    /// A [`gradsec_tee::tiop::Frame`] sealing a whole inner envelope
    /// (the trusted I/O path; see `transport::sealed`).
    Sealed = 8,
    /// [`ShardHello`] — shard-server → coordinator session opener
    /// (protocol v3, the shard-control plane).
    ShardHello = 9,
    /// [`ShardHelloAck`] — coordinator → shard-server: the coordinator's
    /// version plus the shard index this connection will serve.
    ShardHelloAck = 10,
    /// [`ShardConfig`] — coordinator → shard-server: everything the shard
    /// needs to host its client range deterministically.
    ShardConfig = 11,
    /// [`ShardConfigAck`] — shard-server → coordinator: ready report.
    ShardConfigAck = 12,
    /// [`ShardScreen`] — coordinator → shard-server: this round's
    /// attestation fan-out for the shard's screening candidates.
    ShardScreen = 13,
    /// [`ShardScreenReply`] — shard-server → coordinator: raw attestation
    /// evidence, index-aligned with the request (verification stays on
    /// the coordinator).
    ShardScreenReply = 14,
    /// [`ShardRound`] — coordinator → shard-server: one round's model
    /// download plus the shard's local pick list.
    ShardRound = 15,
    /// [`ShardRoundReply`] — shard-server → coordinator: slot-tagged
    /// partial aggregate, non-completed outcomes and the shard ledger.
    ShardRoundReply = 16,
    /// [`EncodedModelDownload`] — a [`ModelDownload`] whose weights
    /// travel as a codec payload (Figure 2-➋).
    EncodedModelDownload = 17,
    /// [`EncodedUpdateUpload`] — an [`UpdateUpload`] whose weights
    /// travel as a codec payload (Figure 2-➍).
    EncodedUpdateUpload = 18,
}

impl MessageKind {
    pub(crate) fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => MessageKind::Hello,
            1 => MessageKind::HelloAck,
            2 => MessageKind::AttestationRequest,
            3 => MessageKind::AttestationResponse,
            6 => MessageKind::Goodbye,
            7 => MessageKind::Error,
            8 => MessageKind::Sealed,
            9 => MessageKind::ShardHello,
            10 => MessageKind::ShardHelloAck,
            11 => MessageKind::ShardConfig,
            12 => MessageKind::ShardConfigAck,
            13 => MessageKind::ShardScreen,
            14 => MessageKind::ShardScreenReply,
            15 => MessageKind::ShardRound,
            16 => MessageKind::ShardRoundReply,
            17 => MessageKind::EncodedModelDownload,
            18 => MessageKind::EncodedUpdateUpload,
            other => {
                return Err(FlError::Protocol {
                    reason: format!("unknown message kind {other}"),
                })
            }
        })
    }
}

/// Magic bytes opening every envelope header ("GS", little-endian).
pub const ENVELOPE_MAGIC: u16 = 0x5347;

/// Fixed envelope header length: magic (2) + version (2) + kind (1) +
/// payload length (8).
pub const ENVELOPE_HEADER_LEN: usize = 13;

/// Guard against adversarial envelope lengths: no round of this protocol
/// legitimately ships more than 1 GiB in one message.
pub const MAX_ENVELOPE_PAYLOAD: usize = 1024 * 1024 * 1024;

/// Extra bytes a sealed carrier may legitimately add on top of a
/// maximum-size inner envelope: the inner envelope's own header plus the
/// frame's sequence number, two length prefixes and HMAC tag (56 bytes),
/// rounded up. Envelope decoding admits this slack so the sealed
/// transport never caps a message the plain transports carry fine.
pub const SEAL_OVERHEAD: usize = ENVELOPE_HEADER_LEN + 115;

/// A validated envelope header: everything a socket reader needs to pull
/// the rest of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeHead {
    /// Protocol version the sender stamped on the envelope.
    pub version: u16,
    /// What the payload will decode as.
    pub kind: MessageKind,
    /// How many payload bytes follow the header.
    pub payload_len: usize,
}

/// Parses and validates one fixed-size envelope header from raw bytes —
/// the single header decoder shared by the blocking socket reader, the
/// mux frame reassembler and [`Envelope::decode_from`], so every path
/// rejects bad magic and hostile lengths identically (and none of them
/// allocates to do it).
///
/// # Errors
///
/// Returns [`FlError::Protocol`] on bad magic, an unknown kind tag, or a
/// payload length beyond [`MAX_ENVELOPE_PAYLOAD`] +
/// [`SEAL_OVERHEAD`]. The length bound is checked on the raw `u64` — a
/// `usize` cast first would truncate on 32-bit targets and defeat the
/// guard.
pub fn parse_envelope_head(header: &[u8; ENVELOPE_HEADER_LEN]) -> Result<EnvelopeHead> {
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != ENVELOPE_MAGIC {
        return Err(FlError::Protocol {
            reason: format!("bad envelope magic {magic:#06x}"),
        });
    }
    let version = u16::from_le_bytes([header[2], header[3]]);
    let kind = MessageKind::from_u8(header[4])?;
    let len = u64::from_le_bytes([
        header[5], header[6], header[7], header[8], header[9], header[10], header[11], header[12],
    ]);
    if len > (MAX_ENVELOPE_PAYLOAD + SEAL_OVERHEAD) as u64 {
        return Err(FlError::Protocol {
            reason: format!("envelope payload length {len} exceeds protocol maximum"),
        });
    }
    Ok(EnvelopeHead {
        version,
        kind,
        payload_len: len as usize,
    })
}

/// The typed, versioned wrapper every message travels in.
///
/// Its binary layout — magic, version, kind, payload length, payload —
/// doubles as the length-prefixed TCP frame: a socket reader pulls the
/// fixed [`ENVELOPE_HEADER_LEN`] bytes, learns the payload length, then
/// pulls exactly that many more.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Protocol version the sender speaks.
    pub version: u16,
    /// What the payload decodes as.
    pub kind: MessageKind,
    /// The encoded message bytes.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Wraps a message in an envelope at the current protocol version.
    pub fn pack<T: Wire>(kind: MessageKind, msg: &T) -> Envelope {
        Envelope {
            version: PROTOCOL_VERSION,
            kind,
            payload: encode(msg),
        }
    }

    /// A payload-less envelope (Goodbye).
    pub fn control(kind: MessageKind) -> Envelope {
        Envelope {
            version: PROTOCOL_VERSION,
            kind,
            payload: Vec::new(),
        }
    }

    /// An error-reply envelope.
    pub fn error(reason: impl Into<String>) -> Envelope {
        Envelope::pack(
            MessageKind::Error,
            &ErrorReply {
                reason: reason.into(),
            },
        )
    }

    /// Decodes the payload as `T`, after checking the kind tag.
    ///
    /// # Errors
    ///
    /// [`FlError::ClientFailure`]-free by design: a kind mismatch or an
    /// [`ErrorReply`] in place of the expected kind becomes
    /// [`FlError::Protocol`]; payload corruption surfaces the codec error.
    pub fn open<T: Wire>(&self, expect: MessageKind) -> Result<T> {
        if self.kind == MessageKind::Error && expect != MessageKind::Error {
            return Err(FlError::Protocol {
                reason: format!("peer reported: {}", self.error_reason()),
            });
        }
        if self.kind != expect {
            return Err(FlError::Protocol {
                reason: format!("expected {expect:?}, got {:?}", self.kind),
            });
        }
        decode(&self.payload)
    }

    /// Best-effort extraction of an [`ErrorReply`] reason (for envelopes
    /// whose kind is [`MessageKind::Error`]).
    pub fn error_reason(&self) -> String {
        decode::<ErrorReply>(&self.payload)
            .map(|e| e.reason)
            .unwrap_or_else(|_| "malformed error reply".to_owned())
    }
}

impl Wire for Envelope {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16_le(ENVELOPE_MAGIC);
        buf.put_u16_le(self.version);
        buf.put_u8(self.kind as u8);
        buf.put_u64_le(self.payload.len() as u64);
        buf.put_slice(&self.payload);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let head = parse_envelope_head(&<[u8; ENVELOPE_HEADER_LEN]>::decode_from(buf)?)?;
        Ok(Envelope {
            version: head.version,
            kind: head.kind,
            payload: take_bytes(buf, head.payload_len, "envelope payload")?,
        })
    }
}

impl Wire for Tensor {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.dims().len() as u64);
        for &d in self.dims() {
            buf.put_u64_le(d as u64);
        }
        buf.put_u64_le(self.numel() as u64);
        put_f32s(buf, self.data());
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let ndim = decode_len(buf, "tensor rank")?;
        if ndim > limits::MAX_TENSOR_RANK {
            return Err(FlError::BadConfig {
                reason: format!("tensor rank {ndim} exceeds protocol maximum"),
            });
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(decode_len(buf, "tensor dim")?);
        }
        let n = decode_len(buf, "tensor data")?;
        // Checked: three maximal dims already overflow a 64-bit product.
        let numel = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        if numel != Some(n) {
            return Err(FlError::BadConfig {
                reason: "tensor dims disagree with element count".to_owned(),
            });
        }
        let data = get_f32s(buf, n, "tensor elements")?;
        Tensor::from_vec(data, &dims).map_err(|e| FlError::BadConfig {
            reason: format!("tensor decode: {e}"),
        })
    }
}

wire_struct!(LayerWeights { w, b });
wire_list!(
    ModelWeights,
    limits::MAX_LAYERS,
    "layer count",
    |m| (m.num_layers(), m.iter()),
    ModelWeights::new
);
wire_struct!(TrainingPlan {
    rounds,
    clients_per_round,
    batches_per_cycle,
    batch_size,
    learning_rate,
    seed,
});
wire_struct!(Uuid { 0 });
wire_struct!(Measurement { 0 });
wire_struct!(Challenge { nonce });
wire_struct!(Quote {
    ta,
    measurement,
    nonce,
    signature,
});
wire_struct!(AttestationRequest { challenge });
wire_struct!(AttestationResponse { quote });
wire_struct!(ModelDownload {
    round,
    weights,
    plan,
    protected_layers: list(limits::MAX_PROTECTED_LAYERS),
});
wire_struct!(UpdateUpload {
    client_id,
    round,
    weights,
    num_samples,
    train_loss,
    cost,
});
/// An [`UpdateUpload`]'s bytes: the shard-control channel ships partials
/// dense, so a wire-form term is expanded into the buffer as it is
/// written (one at a time) and always decodes dense.
impl Wire for ArrivedUpload {
    fn encode_into(&self, buf: &mut BytesMut) {
        self.client_id.encode_into(buf);
        self.round.encode_into(buf);
        match &self.weights {
            ArrivedWeights::Dense(weights) => weights.encode_into(buf),
            ArrivedWeights::Wire(checked) => checked.to_dense().encode_into(buf),
        }
        self.num_samples.encode_into(buf);
        self.train_loss.encode_into(buf);
        self.cost.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        UpdateUpload::decode_from(buf).map(ArrivedUpload::from)
    }
}
wire_struct!(EncodedModelDownload {
    round,
    weights,
    plan,
    protected_layers: list(limits::MAX_PROTECTED_LAYERS),
});
wire_struct!(EncodedUpdateUpload {
    client_id,
    round,
    weights,
    num_samples,
    train_loss,
    cost,
});
wire_struct!(Hello { version, codec });
wire_struct!(HelloAck {
    version,
    client_id,
    codec,
});
wire_struct!(ErrorReply { reason });
wire_struct!(TimeBreakdown {
    user_s,
    kernel_s,
    alloc_s,
});
wire_struct!(WireBill {
    download_encoded_bytes,
    download_raw_bytes,
    upload_encoded_bytes,
    upload_raw_bytes,
});
wire_struct!(ClientCycleCost {
    client_id,
    time,
    crossings,
    tee_peak_bytes,
    wire,
});
wire_list!(
    RoundLedger,
    limits::MAX_LIST_ITEMS,
    "ledger entry count",
    |l| (l.entries().len(), l.entries().iter()),
    |entries: Vec<ClientCycleCost>| {
        let mut ledger = RoundLedger::new();
        entries.into_iter().for_each(|e| ledger.record(e));
        ledger
    }
);

impl Wire for Frame {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.seq);
        buf.put_u64_le(self.ciphertext.len() as u64);
        buf.put_slice(&self.ciphertext);
        buf.put_u64_le(self.mac.len() as u64);
        buf.put_slice(&self.mac);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let seq = u64::decode_from(buf)?;
        // A frame's ciphertext seals a whole envelope, so its bound is
        // the envelope maximum (plus seal slack) — not the per-field
        // maximum ordinary message fields use. Otherwise the sealed
        // transport would silently cap messages the plain transports
        // carry fine.
        let n = decode_count(
            buf,
            MAX_ENVELOPE_PAYLOAD + SEAL_OVERHEAD,
            "frame ciphertext length",
        )?;
        let ciphertext = take_bytes(buf, n, "frame ciphertext bytes")?;
        let m = decode_len(buf, "frame mac")?;
        let mac = take_bytes(buf, m, "frame mac bytes")?;
        Ok(Frame {
            seq,
            ciphertext,
            mac,
        })
    }
}

/// Shard-server → coordinator: opens the shard-control channel with the
/// server's protocol version plus its OS process id (diagnostics only —
/// never an input to any fault or selection decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHello {
    /// The protocol version the shard server speaks.
    pub version: u16,
    /// The shard server's process id.
    pub pid: u64,
}

impl ShardHello {
    /// The ShardHello this build sends.
    pub fn current() -> Self {
        ShardHello {
            version: PROTOCOL_VERSION,
            pid: u64::from(std::process::id()),
        }
    }
}

/// Coordinator → shard-server: the coordinator's version and the shard
/// index this connection will serve (assigned by connection-arrival
/// order — shard servers are symmetric until configured).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHelloAck {
    /// The protocol version the coordinator speaks.
    pub version: u16,
    /// The shard index this channel serves.
    pub shard_index: u64,
}

/// Which synthetic dataset a shard server materialises for its clients.
///
/// The spec is the *recipe*, not the bytes: both sides construct the
/// identical deterministic dataset from `(len, classes, dim, seed)`, so a
/// shard config stays kilobytes even for million-sample fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetSpec {
    /// [`gradsec_data::SyntheticMicro`].
    Micro {
        /// Total samples across the whole (global) fleet dataset.
        len: u64,
        /// Class count.
        classes: u64,
        /// Feature dimension.
        dim: u64,
        /// Generator seed.
        seed: u64,
    },
    /// [`gradsec_data::SyntheticCifar100`] (via `with_classes`).
    Cifar {
        /// Total samples across the whole (global) fleet dataset.
        len: u64,
        /// Class count.
        classes: u64,
        /// Generator seed.
        seed: u64,
    },
}

/// Which model architecture a shard server builds before installing the
/// coordinator's initial weights. The seed only matters for layer
/// construction scratch (the shipped weights overwrite initialisation),
/// but carrying it keeps construction bit-reproducible anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// [`gradsec_nn::zoo::tiny_mlp`].
    TinyMlp {
        /// Input features.
        inputs: u64,
        /// Hidden width.
        hidden: u64,
        /// Output classes.
        outputs: u64,
        /// Initialisation seed.
        seed: u64,
    },
    /// [`gradsec_nn::zoo::lenet5_with`].
    LeNet5 {
        /// Output classes.
        classes: u64,
        /// Initialisation seed.
        seed: u64,
    },
}

/// Coordinator → shard-server: everything the shard needs to host its
/// contiguous client range deterministically — the global fleet shape
/// (so data sharding reproduces the flat reference), the model recipe
/// plus initial weights, the training plan, the kernel backend, the
/// engine worker count, the attestation whitelist and the fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// The shard index this config provisions (echoes the hello ack).
    pub shard_index: u64,
    /// First global client id this shard hosts (inclusive).
    pub range_start: u64,
    /// One past the last global client id this shard hosts.
    pub range_end: u64,
    /// Total clients across the whole fleet — the shard reproduces the
    /// *global* `split::shard` data partition and takes its sub-range,
    /// which is what keeps every client's local dataset bit-identical to
    /// the flat reference.
    pub total_clients: u64,
    /// The dataset recipe.
    pub dataset: DatasetSpec,
    /// The model recipe.
    pub model: ModelSpec,
    /// The initial global weights (installed over the recipe's
    /// initialisation, so bit-identity never depends on init code).
    pub init_weights: ModelWeights,
    /// The training plan.
    pub plan: TrainingPlan,
    /// Kernel backend name ([`gradsec_tensor::BackendKind::parse`]).
    pub backend: String,
    /// Update codec name ([`CodecKind::parse`]) the shard's sessions
    /// negotiate at handshake.
    pub codec: String,
    /// Engine worker threads the shard runs (`0` = one per core).
    pub workers: u64,
    /// The whitelisted TA measurement.
    pub measurement: Measurement,
    /// The fault plan, when the run injects faults.
    pub faults: Option<FaultPlan>,
    /// Dataset partition kind name
    /// ([`crate::config::PartitionKind::parse`]) — how the global data
    /// partition the shard re-derives was drawn.
    pub partition: String,
    /// The adversarial scenario, when the run hosts hostile personas.
    pub adversaries: Option<AdversaryPlan>,
}

/// Shard-server → coordinator: configuration applied, fleet wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfigAck {
    /// How many clients the shard wired (must equal the config's range).
    pub clients: u64,
}

/// One screening probe: a shard-local client index and the challenge the
/// coordinator drew for it (nonces are drawn on the coordinator, in
/// global candidate order — the shard never touches the selection RNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreenProbe {
    /// Shard-local client index.
    pub local: u64,
    /// The attestation challenge to send.
    pub challenge: Challenge,
}

/// Coordinator → shard-server: this round's screening fan-out for the
/// shard's slice of the candidate set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardScreen {
    /// The probes, in global candidate order.
    pub probes: Vec<ScreenProbe>,
}

/// Shard-server → coordinator: raw attestation evidence, index-aligned
/// with the request's probes. `None` means the exchange itself failed
/// (transport error or injected fault) — the coordinator screens it as
/// unreachable. Quote *verification* stays on the coordinator, against
/// its own provisioning registry, so a shard process can not vouch for
/// its clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardScreenReply {
    /// Per-probe evidence.
    pub evidence: Vec<Option<AttestationResponse>>,
}

/// Coordinator → shard-server: execute one round's cycles for the
/// shard's picks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRound {
    /// The round's model download (identical on every shard).
    pub download: ModelDownload,
    /// Shard-local indices of this shard's picked clients, in global
    /// selection order.
    pub picks: Vec<u64>,
    /// Global selection slot of the first pick: with a contiguous layout
    /// a shard's picks are contiguous in the sorted global pick list, so
    /// pick `j` occupies global slot `slot_base + j`.
    pub slot_base: u64,
}

/// How a non-completed cycle ended on a shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardOutcomeKind {
    /// The client blew the round deadline on the simulated clock.
    Straggler {
        /// Simulated elapsed seconds.
        elapsed_s: f64,
    },
    /// The exchange failed (transport fault, training error, panic).
    Failed {
        /// Rendered failure reason.
        reason: String,
    },
}

/// One non-completed outcome, tagged with its global selection slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardOutcome {
    /// Global selection slot.
    pub slot: u64,
    /// Global client id.
    pub client: u64,
    /// What happened.
    pub kind: ShardOutcomeKind,
}

/// Shard-server → coordinator: one round's results — the completed
/// updates as a [`PartialAggregate`] tagged with *global* slots, the
/// stragglers/failures, and the shard's cost ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRoundReply {
    /// Completed updates at their global selection slots.
    pub partial: PartialAggregate,
    /// Stragglers and failures, also at global slots.
    pub others: Vec<ShardOutcome>,
    /// The shard's round ledger (completed and billed-failed cycles).
    pub ledger: RoundLedger,
}

impl ShardConfig {
    /// What a decoded config must satisfy before a shard server indexes
    /// the global partition with it.
    fn validate(&self) -> Result<()> {
        if self.range_start > self.range_end || self.range_end > self.total_clients {
            return Err(FlError::BadConfig {
                reason: format!(
                    "shard range [{}, {}) out of order or beyond {} clients",
                    self.range_start, self.range_end, self.total_clients
                ),
            });
        }
        if PartitionKind::parse(&self.partition).is_none() {
            return Err(FlError::BadConfig {
                reason: format!("unknown partition kind {:?}", self.partition),
            });
        }
        Ok(())
    }
}

wire_struct!(ShardHello { version, pid });
wire_struct!(ShardHelloAck {
    version,
    shard_index,
});
wire_enum!(DatasetSpec, "dataset spec" {
    0 => Micro { len, classes, dim, seed },
    1 => Cifar { len, classes, seed },
});
wire_enum!(ModelSpec, "model spec" {
    0 => TinyMlp { inputs, hidden, outputs, seed },
    1 => LeNet5 { classes, seed },
});
wire_struct!(
    ShardConfig {
        shard_index,
        range_start,
        range_end,
        total_clients,
        dataset,
        model,
        init_weights,
        plan,
        backend,
        codec,
        workers,
        measurement,
        faults,
        partition,
        adversaries,
    },
    validate = ShardConfig::validate
);
wire_struct!(ShardConfigAck { clients });
wire_struct!(ScreenProbe { local, challenge });
wire_struct!(ShardScreen {
    probes: list(limits::MAX_LIST_ITEMS),
});
wire_struct!(ShardScreenReply {
    evidence: list(limits::MAX_LIST_ITEMS),
});
// Wire order, not declaration order: the slot base precedes the picks.
wire_struct!(ShardRound {
    download,
    slot_base,
    picks: list(limits::MAX_LIST_ITEMS),
});
wire_enum!(ShardOutcomeKind, "outcome kind" {
    0 => Straggler { elapsed_s },
    1 => Failed { reason },
});
wire_struct!(ShardOutcome { slot, client, kind });
wire_struct!(ShardRoundReply {
    partial,
    others: list(limits::MAX_LIST_ITEMS),
    ledger,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cost(client_id: u64) -> ClientCycleCost {
        ClientCycleCost {
            client_id,
            time: TimeBreakdown {
                user_s: 2.191,
                kernel_s: 0.021,
                alloc_s: 4.68,
            },
            crossings: 40,
            tee_peak_bytes: 219_576,
            wire: WireBill {
                download_encoded_bytes: 720,
                download_raw_bytes: 2368,
                upload_encoded_bytes: 630,
                upload_raw_bytes: 2368,
            },
        }
    }

    fn weights() -> ModelWeights {
        ModelWeights::new(vec![LayerWeights {
            w: Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.0], &[2, 2]).unwrap(),
            b: Tensor::from_vec(vec![0.5], &[1]).unwrap(),
        }])
    }

    #[test]
    fn roundtrip_model_download() {
        let msg = ModelDownload {
            round: 3,
            weights: weights(),
            plan: TrainingPlan::default(),
            protected_layers: vec![1, 4],
        };
        let back: ModelDownload = decode(&encode(&msg)).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn roundtrip_update_upload() {
        let msg = UpdateUpload {
            client_id: 9,
            round: 1,
            weights: weights(),
            num_samples: 320,
            train_loss: 2.5,
            cost: sample_cost(9),
        };
        let back: UpdateUpload = decode(&encode(&msg)).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn roundtrip_encoded_download_and_upload() {
        use crate::codec::{encode_weights, CodecKind};
        let enc = encode_weights(CodecKind::Int8, 5, &weights(), None);
        let msg = EncodedModelDownload {
            round: 5,
            weights: enc.clone(),
            plan: TrainingPlan::default(),
            protected_layers: vec![0],
        };
        let back: EncodedModelDownload = decode(&encode(&msg)).unwrap();
        assert_eq!(msg, back);
        let up = EncodedUpdateUpload {
            client_id: 3,
            round: 5,
            weights: enc,
            num_samples: 64,
            train_loss: 1.25,
            cost: sample_cost(3),
        };
        let back: EncodedUpdateUpload = decode(&encode(&up)).unwrap();
        assert_eq!(up, back);
    }

    #[test]
    fn encoded_download_round_peek_matches_plain_layout() {
        use crate::codec::{encode_weights, CodecKind};
        // The fault layer reads the round from the first 8 payload
        // bytes without knowing which download kind it is looking at.
        let plain = encode(&ModelDownload {
            round: 77,
            weights: weights(),
            plan: TrainingPlan::default(),
            protected_layers: vec![],
        });
        let encoded = encode(&EncodedModelDownload {
            round: 77,
            weights: encode_weights(CodecKind::Identity, 0, &weights(), None),
            plan: TrainingPlan::default(),
            protected_layers: vec![],
        });
        assert_eq!(&plain[..8], &encoded[..8]);
    }

    #[test]
    fn hello_messages_require_the_codec_byte() {
        use crate::codec::CodecKind;
        // One dialect: a hello or ack that stops before the codec byte
        // is truncated input, not an older peer to accommodate.
        let mut bytes = encode(&Hello::with_codec(CodecKind::Int8));
        assert_eq!(bytes.len(), 3);
        let back: Hello = decode(&bytes).unwrap();
        assert_eq!(back.codec, CodecKind::Int8);
        bytes.truncate(2);
        assert!(decode::<Hello>(&bytes).is_err());
        let mut bytes = encode(&HelloAck {
            version: PROTOCOL_VERSION,
            client_id: 12,
            codec: CodecKind::DeltaTopK,
        });
        assert_eq!(bytes.len(), 11);
        bytes.truncate(10);
        assert!(decode::<HelloAck>(&bytes).is_err());
    }

    #[test]
    fn other_versions_are_refused_by_name() {
        check_version("peer", PROTOCOL_VERSION).unwrap();
        for theirs in [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let err = check_version("shard-server", theirs).unwrap_err();
            assert!(matches!(err, FlError::Protocol { .. }), "{err}");
            let text = err.to_string();
            assert!(text.contains("shard-server"), "{text}");
            assert!(text.contains(&format!("version {theirs},")), "{text}");
            assert!(
                text.contains(&format!("speaks {PROTOCOL_VERSION}")),
                "{text}"
            );
        }
    }

    #[test]
    fn roundtrip_plan_fields() {
        let plan = TrainingPlan {
            rounds: 12,
            clients_per_round: 5,
            batches_per_cycle: 7,
            batch_size: 16,
            learning_rate: 0.125,
            seed: 99,
        };
        let back: TrainingPlan = decode(&encode(&plan)).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn roundtrip_attestation() {
        use gradsec_tee::attestation::sign_quote;
        let ch = Challenge::new([3u8; 16]);
        let req = AttestationRequest { challenge: ch };
        let back: AttestationRequest = decode(&encode(&req)).unwrap();
        assert_eq!(req, back);
        let q = sign_quote(b"key", Uuid::from_name("ta"), Measurement([9u8; 32]), &ch);
        let resp = AttestationResponse { quote: Some(q) };
        let back: AttestationResponse = decode(&encode(&resp)).unwrap();
        assert_eq!(resp, back);
        let none = AttestationResponse { quote: None };
        let back: AttestationResponse = decode(&encode(&none)).unwrap();
        assert_eq!(none, back);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(decode::<UpdateUpload>(b"short").is_err());
        let msg = UpdateUpload {
            client_id: 1,
            round: 1,
            weights: weights(),
            num_samples: 10,
            train_loss: 0.5,
            cost: sample_cost(1),
        };
        let mut bytes = encode(&msg);
        bytes.truncate(bytes.len() - 3);
        assert!(decode::<UpdateUpload>(&bytes).is_err());
        // Trailing bytes are rejected too.
        let mut bytes = encode(&msg);
        bytes.push(0);
        assert!(decode::<UpdateUpload>(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_hostile_lengths() {
        // A tensor claiming 2^60 elements must be rejected before any
        // allocation happens.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1); // rank 1
        buf.put_u64_le(1 << 60); // dim
        buf.put_u64_le(1 << 60); // elems
        assert!(decode::<Tensor>(&buf.to_vec()).is_err());
        // Dims that each pass the per-field bound but whose product
        // wraps to the claimed element count (2^84 mod 2^64 == 0).
        let mut buf = BytesMut::new();
        buf.put_u64_le(3);
        for _ in 0..3 {
            buf.put_u64_le(limits::MAX_FIELD_BYTES as u64);
        }
        buf.put_u64_le(0);
        assert!(decode::<Tensor>(&buf.to_vec()).is_err());
    }

    #[test]
    fn tensor_dims_must_match_count() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u64_le(3); // dim says 3
        buf.put_u64_le(2); // but 2 elements
        buf.put_f32_le(0.0);
        buf.put_f32_le(0.0);
        assert!(decode::<Tensor>(&buf.to_vec()).is_err());
    }
}
