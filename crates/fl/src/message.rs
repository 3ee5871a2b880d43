//! Wire messages between the FL server and clients.
//!
//! Every payload has a concrete binary framing (a hand-rolled
//! little-endian codec over the `bytes` crate). Since the transport
//! redesign, these bytes genuinely cross process/socket boundaries: each
//! message travels inside a typed, versioned [`Envelope`] whose header
//! doubles as the length-prefixed TCP frame, and the trusted I/O path
//! (`gradsec-tee::tiop`) can seal exactly the same bytes.
//!
//! Peers are always the same build, so there is one wire dialect: the
//! [`Hello`]/[`HelloAck`] exchange at session start states each side's
//! [`PROTOCOL_VERSION`] and negotiates only the update codec; any other
//! version is refused by name (see [`check_version`]).

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
use crate::codec::{CodecKind, EncodedWeights};
use crate::config::TrainingPlan;
use crate::faults::FaultPlan;
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
/// always travel encoded, identity codec included).
pub const PROTOCOL_VERSION: u16 = 6;

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
    buf.to_vec()
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

pub(crate) fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(FlError::BadConfig {
            reason: format!("truncated message: need {n} bytes for {what}"),
        });
    }
    Ok(())
}

pub(crate) fn decode_len(buf: &mut Bytes, what: &str) -> Result<usize> {
    need(buf, 8, what)?;
    // Bound the raw u64 *before* casting: on 32-bit targets a
    // `as usize` cast truncates, which would let a hostile 2^32+k
    // prefix slip past the guard as k.
    let n = buf.get_u64_le();
    if n > limits::MAX_FIELD_BYTES as u64 {
        return Err(FlError::BadConfig {
            reason: format!("{what} length {n} exceeds protocol maximum"),
        });
    }
    Ok(n as usize)
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
        need(buf, ENVELOPE_HEADER_LEN, "envelope header")?;
        let mut header = [0u8; ENVELOPE_HEADER_LEN];
        buf.copy_to_slice(&mut header);
        let head = parse_envelope_head(&header)?;
        need(buf, head.payload_len, "envelope payload")?;
        let mut payload = vec![0u8; head.payload_len];
        buf.copy_to_slice(&mut payload);
        Ok(Envelope {
            version: head.version,
            kind: head.kind,
            payload,
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
        for &x in self.data() {
            buf.put_f32_le(x);
        }
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
        if dims.iter().product::<usize>() != n {
            return Err(FlError::BadConfig {
                reason: "tensor dims disagree with element count".to_owned(),
            });
        }
        need(buf, 4 * n, "tensor elements")?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(buf.get_f32_le());
        }
        Tensor::from_vec(data, &dims).map_err(|e| FlError::BadConfig {
            reason: format!("tensor decode: {e}"),
        })
    }
}

impl Wire for ModelWeights {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.num_layers() as u64);
        for lw in self.iter() {
            lw.w.encode_into(buf);
            lw.b.encode_into(buf);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_len(buf, "layer count")?;
        if n > limits::MAX_LAYERS {
            return Err(FlError::BadConfig {
                reason: format!("layer count {n} exceeds protocol maximum"),
            });
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            let w = Tensor::decode_from(buf)?;
            let b = Tensor::decode_from(buf)?;
            layers.push(LayerWeights { w, b });
        }
        Ok(ModelWeights::new(layers))
    }
}

impl Wire for TrainingPlan {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.rounds);
        buf.put_u64_le(self.clients_per_round as u64);
        buf.put_u64_le(self.batches_per_cycle as u64);
        buf.put_u64_le(self.batch_size as u64);
        buf.put_f32_le(self.learning_rate);
        buf.put_u64_le(self.seed);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8 * 5 + 4, "training plan")?;
        let rounds = buf.get_u64_le();
        let clients_per_round = buf.get_u64_le() as usize;
        let batches_per_cycle = buf.get_u64_le() as usize;
        let batch_size = buf.get_u64_le() as usize;
        let learning_rate = buf.get_f32_le();
        let seed = buf.get_u64_le();
        Ok(TrainingPlan {
            rounds,
            clients_per_round,
            batches_per_cycle,
            batch_size,
            learning_rate,
            seed,
        })
    }
}

impl Wire for Challenge {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.nonce);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 16, "challenge nonce")?;
        let mut nonce = [0u8; 16];
        buf.copy_to_slice(&mut nonce);
        Ok(Challenge::new(nonce))
    }
}

impl Wire for Quote {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_slice(self.ta.as_bytes());
        buf.put_slice(&self.measurement.0);
        buf.put_slice(&self.nonce);
        buf.put_slice(&self.signature);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 16 + 32 + 16 + 32, "attestation quote")?;
        let mut ta = [0u8; 16];
        buf.copy_to_slice(&mut ta);
        let mut m = [0u8; 32];
        buf.copy_to_slice(&mut m);
        let mut nonce = [0u8; 16];
        buf.copy_to_slice(&mut nonce);
        let mut sig = [0u8; 32];
        buf.copy_to_slice(&mut sig);
        Ok(Quote {
            ta: Uuid(ta),
            measurement: Measurement(m),
            nonce,
            signature: sig,
        })
    }
}

impl Wire for AttestationRequest {
    fn encode_into(&self, buf: &mut BytesMut) {
        self.challenge.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        Ok(AttestationRequest {
            challenge: Challenge::decode_from(buf)?,
        })
    }
}

impl Wire for AttestationResponse {
    fn encode_into(&self, buf: &mut BytesMut) {
        match &self.quote {
            Some(q) => {
                buf.put_u8(1);
                q.encode_into(buf);
            }
            None => buf.put_u8(0),
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 1, "quote presence flag")?;
        let has = buf.get_u8();
        match has {
            0 => Ok(AttestationResponse { quote: None }),
            1 => Ok(AttestationResponse {
                quote: Some(Quote::decode_from(buf)?),
            }),
            other => Err(FlError::BadConfig {
                reason: format!("bad quote presence flag {other}"),
            }),
        }
    }
}

impl Wire for ModelDownload {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.round);
        self.weights.encode_into(buf);
        self.plan.encode_into(buf);
        buf.put_u64_le(self.protected_layers.len() as u64);
        for &l in &self.protected_layers {
            buf.put_u64_le(l as u64);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "round")?;
        let round = buf.get_u64_le();
        let weights = ModelWeights::decode_from(buf)?;
        let plan = TrainingPlan::decode_from(buf)?;
        let n = decode_len(buf, "protected layer count")?;
        if n > limits::MAX_PROTECTED_LAYERS {
            return Err(FlError::BadConfig {
                reason: format!("protected layer count {n} exceeds protocol maximum"),
            });
        }
        let mut protected_layers = Vec::with_capacity(n);
        for _ in 0..n {
            need(buf, 8, "protected layer index")?;
            protected_layers.push(buf.get_u64_le() as usize);
        }
        Ok(ModelDownload {
            round,
            weights,
            plan,
            protected_layers,
        })
    }
}

impl Wire for UpdateUpload {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.client_id);
        buf.put_u64_le(self.round);
        self.weights.encode_into(buf);
        buf.put_u64_le(self.num_samples as u64);
        buf.put_f32_le(self.train_loss);
        self.cost.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 16, "upload header")?;
        let client_id = buf.get_u64_le();
        let round = buf.get_u64_le();
        let weights = ModelWeights::decode_from(buf)?;
        need(buf, 12, "upload footer")?;
        let num_samples = buf.get_u64_le() as usize;
        let train_loss = buf.get_f32_le();
        let cost = ClientCycleCost::decode_from(buf)?;
        Ok(UpdateUpload {
            client_id,
            round,
            weights,
            num_samples,
            train_loss,
            cost,
        })
    }
}

impl Wire for EncodedModelDownload {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.round);
        self.weights.encode_into(buf);
        self.plan.encode_into(buf);
        buf.put_u64_le(self.protected_layers.len() as u64);
        for &l in &self.protected_layers {
            buf.put_u64_le(l as u64);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "round")?;
        let round = buf.get_u64_le();
        let weights = EncodedWeights::decode_from(buf)?;
        let plan = TrainingPlan::decode_from(buf)?;
        let n = decode_len(buf, "protected layer count")?;
        if n > limits::MAX_PROTECTED_LAYERS {
            return Err(FlError::BadConfig {
                reason: format!("protected layer count {n} exceeds protocol maximum"),
            });
        }
        let mut protected_layers = Vec::with_capacity(n);
        for _ in 0..n {
            need(buf, 8, "protected layer index")?;
            protected_layers.push(buf.get_u64_le() as usize);
        }
        Ok(EncodedModelDownload {
            round,
            weights,
            plan,
            protected_layers,
        })
    }
}

impl Wire for EncodedUpdateUpload {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.client_id);
        buf.put_u64_le(self.round);
        self.weights.encode_into(buf);
        buf.put_u64_le(self.num_samples as u64);
        buf.put_f32_le(self.train_loss);
        self.cost.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 16, "upload header")?;
        let client_id = buf.get_u64_le();
        let round = buf.get_u64_le();
        let weights = EncodedWeights::decode_from(buf)?;
        need(buf, 12, "upload footer")?;
        let num_samples = buf.get_u64_le() as usize;
        let train_loss = buf.get_f32_le();
        let cost = ClientCycleCost::decode_from(buf)?;
        Ok(EncodedUpdateUpload {
            client_id,
            round,
            weights,
            num_samples,
            train_loss,
            cost,
        })
    }
}

impl Wire for Hello {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.version);
        buf.put_u8(self.codec.as_u8());
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 3, "hello")?;
        Ok(Hello {
            version: buf.get_u16_le(),
            codec: CodecKind::from_u8(buf.get_u8())?,
        })
    }
}

impl Wire for HelloAck {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.version);
        buf.put_u64_le(self.client_id);
        buf.put_u8(self.codec.as_u8());
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 11, "hello ack")?;
        Ok(HelloAck {
            version: buf.get_u16_le(),
            client_id: buf.get_u64_le(),
            codec: CodecKind::from_u8(buf.get_u8())?,
        })
    }
}

impl Wire for ErrorReply {
    fn encode_into(&self, buf: &mut BytesMut) {
        let bytes = self.reason.as_bytes();
        buf.put_u64_le(bytes.len() as u64);
        buf.put_slice(bytes);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_len(buf, "error reason")?;
        need(buf, n, "error reason bytes")?;
        let mut bytes = vec![0u8; n];
        buf.copy_to_slice(&mut bytes);
        let reason = String::from_utf8(bytes).map_err(|_| FlError::Protocol {
            reason: "error reason is not valid UTF-8".to_owned(),
        })?;
        Ok(ErrorReply { reason })
    }
}

impl Wire for TimeBreakdown {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_f64_le(self.user_s);
        buf.put_f64_le(self.kernel_s);
        buf.put_f64_le(self.alloc_s);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 24, "time breakdown")?;
        Ok(TimeBreakdown {
            user_s: buf.get_f64_le(),
            kernel_s: buf.get_f64_le(),
            alloc_s: buf.get_f64_le(),
        })
    }
}

impl Wire for ClientCycleCost {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.client_id);
        self.time.encode_into(buf);
        buf.put_u64_le(self.crossings);
        buf.put_u64_le(self.tee_peak_bytes as u64);
        buf.put_u64_le(self.wire.download_encoded_bytes);
        buf.put_u64_le(self.wire.download_raw_bytes);
        buf.put_u64_le(self.wire.upload_encoded_bytes);
        buf.put_u64_le(self.wire.upload_raw_bytes);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "cost client id")?;
        let client_id = buf.get_u64_le();
        let time = TimeBreakdown::decode_from(buf)?;
        need(buf, 48, "cost footer")?;
        let crossings = buf.get_u64_le();
        let tee_peak_bytes = buf.get_u64_le() as usize;
        let wire = WireBill {
            download_encoded_bytes: buf.get_u64_le(),
            download_raw_bytes: buf.get_u64_le(),
            upload_encoded_bytes: buf.get_u64_le(),
            upload_raw_bytes: buf.get_u64_le(),
        };
        Ok(ClientCycleCost {
            client_id,
            time,
            crossings,
            tee_peak_bytes,
            wire,
        })
    }
}

impl Wire for Frame {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.seq);
        buf.put_u64_le(self.ciphertext.len() as u64);
        buf.put_slice(&self.ciphertext);
        buf.put_u64_le(self.mac.len() as u64);
        buf.put_slice(&self.mac);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "frame sequence")?;
        let seq = buf.get_u64_le();
        // A frame's ciphertext seals a whole envelope, so its bound is
        // the envelope maximum (plus seal slack) — not the per-field
        // maximum ordinary message fields use. Otherwise the sealed
        // transport would silently cap messages the plain transports
        // carry fine. Raw-u64 comparison for the same 32-bit-truncation
        // reason as decode_len.
        need(buf, 8, "frame ciphertext")?;
        let n = buf.get_u64_le();
        if n > (MAX_ENVELOPE_PAYLOAD + SEAL_OVERHEAD) as u64 {
            return Err(FlError::Protocol {
                reason: format!("frame ciphertext length {n} exceeds protocol maximum"),
            });
        }
        let n = n as usize;
        need(buf, n, "frame ciphertext bytes")?;
        let mut ciphertext = vec![0u8; n];
        buf.copy_to_slice(&mut ciphertext);
        let m = decode_len(buf, "frame mac")?;
        need(buf, m, "frame mac bytes")?;
        let mut mac = vec![0u8; m];
        buf.copy_to_slice(&mut mac);
        Ok(Frame {
            seq,
            ciphertext,
            mac,
        })
    }
}

// ---------------------------------------------------------------------------
// Shard-control plane (protocol v3)
// ---------------------------------------------------------------------------

fn decode_count(buf: &mut Bytes, what: &str) -> Result<usize> {
    let n = decode_len(buf, what)?;
    if n > limits::MAX_LIST_ITEMS {
        return Err(FlError::BadConfig {
            reason: format!("{what} {n} exceeds protocol maximum"),
        });
    }
    Ok(n)
}

fn encode_str(s: &str, buf: &mut BytesMut) {
    buf.put_u64_le(s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn decode_str(buf: &mut Bytes, what: &str) -> Result<String> {
    let n = decode_len(buf, what)?;
    need(buf, n, what)?;
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| FlError::Protocol {
        reason: format!("{what} is not valid UTF-8"),
    })
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

impl Wire for ShardHello {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.version);
        buf.put_u64_le(self.pid);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 10, "shard hello")?;
        Ok(ShardHello {
            version: buf.get_u16_le(),
            pid: buf.get_u64_le(),
        })
    }
}

impl Wire for ShardHelloAck {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.version);
        buf.put_u64_le(self.shard_index);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 10, "shard hello ack")?;
        Ok(ShardHelloAck {
            version: buf.get_u16_le(),
            shard_index: buf.get_u64_le(),
        })
    }
}

impl Wire for DatasetSpec {
    fn encode_into(&self, buf: &mut BytesMut) {
        match *self {
            DatasetSpec::Micro {
                len,
                classes,
                dim,
                seed,
            } => {
                buf.put_u8(0);
                buf.put_u64_le(len);
                buf.put_u64_le(classes);
                buf.put_u64_le(dim);
                buf.put_u64_le(seed);
            }
            DatasetSpec::Cifar { len, classes, seed } => {
                buf.put_u8(1);
                buf.put_u64_le(len);
                buf.put_u64_le(classes);
                buf.put_u64_le(seed);
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 1, "dataset spec tag")?;
        match buf.get_u8() {
            0 => {
                need(buf, 32, "micro dataset spec")?;
                Ok(DatasetSpec::Micro {
                    len: buf.get_u64_le(),
                    classes: buf.get_u64_le(),
                    dim: buf.get_u64_le(),
                    seed: buf.get_u64_le(),
                })
            }
            1 => {
                need(buf, 24, "cifar dataset spec")?;
                Ok(DatasetSpec::Cifar {
                    len: buf.get_u64_le(),
                    classes: buf.get_u64_le(),
                    seed: buf.get_u64_le(),
                })
            }
            other => Err(FlError::BadConfig {
                reason: format!("unknown dataset spec tag {other}"),
            }),
        }
    }
}

impl Wire for ModelSpec {
    fn encode_into(&self, buf: &mut BytesMut) {
        match *self {
            ModelSpec::TinyMlp {
                inputs,
                hidden,
                outputs,
                seed,
            } => {
                buf.put_u8(0);
                buf.put_u64_le(inputs);
                buf.put_u64_le(hidden);
                buf.put_u64_le(outputs);
                buf.put_u64_le(seed);
            }
            ModelSpec::LeNet5 { classes, seed } => {
                buf.put_u8(1);
                buf.put_u64_le(classes);
                buf.put_u64_le(seed);
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 1, "model spec tag")?;
        match buf.get_u8() {
            0 => {
                need(buf, 32, "tiny-mlp spec")?;
                Ok(ModelSpec::TinyMlp {
                    inputs: buf.get_u64_le(),
                    hidden: buf.get_u64_le(),
                    outputs: buf.get_u64_le(),
                    seed: buf.get_u64_le(),
                })
            }
            1 => {
                need(buf, 16, "lenet-5 spec")?;
                Ok(ModelSpec::LeNet5 {
                    classes: buf.get_u64_le(),
                    seed: buf.get_u64_le(),
                })
            }
            other => Err(FlError::BadConfig {
                reason: format!("unknown model spec tag {other}"),
            }),
        }
    }
}

impl Wire for ShardConfig {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.shard_index);
        buf.put_u64_le(self.range_start);
        buf.put_u64_le(self.range_end);
        buf.put_u64_le(self.total_clients);
        self.dataset.encode_into(buf);
        self.model.encode_into(buf);
        self.init_weights.encode_into(buf);
        self.plan.encode_into(buf);
        encode_str(&self.backend, buf);
        encode_str(&self.codec, buf);
        buf.put_u64_le(self.workers);
        buf.put_slice(&self.measurement.0);
        match &self.faults {
            Some(p) => {
                buf.put_u8(1);
                p.encode_into(buf);
            }
            None => buf.put_u8(0),
        }
        encode_str(&self.partition, buf);
        match &self.adversaries {
            Some(p) => {
                buf.put_u8(1);
                p.encode_into(buf);
            }
            None => buf.put_u8(0),
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 32, "shard config header")?;
        let shard_index = buf.get_u64_le();
        let range_start = buf.get_u64_le();
        let range_end = buf.get_u64_le();
        let total_clients = buf.get_u64_le();
        if range_start > range_end || range_end > total_clients {
            return Err(FlError::BadConfig {
                reason: format!(
                    "shard range [{range_start}, {range_end}) out of order or beyond \
                     {total_clients} clients"
                ),
            });
        }
        let dataset = DatasetSpec::decode_from(buf)?;
        let model = ModelSpec::decode_from(buf)?;
        let init_weights = ModelWeights::decode_from(buf)?;
        let plan = TrainingPlan::decode_from(buf)?;
        let backend = decode_str(buf, "backend name")?;
        let codec = decode_str(buf, "codec name")?;
        need(buf, 8 + 32 + 1, "shard config footer")?;
        let workers = buf.get_u64_le();
        let mut m = [0u8; 32];
        buf.copy_to_slice(&mut m);
        let faults = match buf.get_u8() {
            0 => None,
            1 => Some(FaultPlan::decode_from(buf)?),
            other => {
                return Err(FlError::BadConfig {
                    reason: format!("bad fault plan presence flag {other}"),
                })
            }
        };
        let partition = decode_str(buf, "partition kind name")?;
        if crate::config::PartitionKind::parse(&partition).is_none() {
            return Err(FlError::BadConfig {
                reason: format!("unknown partition kind {partition:?}"),
            });
        }
        need(buf, 1, "adversary plan presence flag")?;
        let adversaries = match buf.get_u8() {
            0 => None,
            1 => Some(AdversaryPlan::decode_from(buf)?),
            other => {
                return Err(FlError::BadConfig {
                    reason: format!("bad adversary plan presence flag {other}"),
                })
            }
        };
        Ok(ShardConfig {
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
            measurement: Measurement(m),
            faults,
            partition,
            adversaries,
        })
    }
}

impl Wire for ShardConfigAck {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.clients);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "shard config ack")?;
        Ok(ShardConfigAck {
            clients: buf.get_u64_le(),
        })
    }
}

impl Wire for ShardScreen {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.probes.len() as u64);
        for p in &self.probes {
            buf.put_u64_le(p.local);
            p.challenge.encode_into(buf);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_count(buf, "screen probe count")?;
        let mut probes = Vec::with_capacity(n);
        for _ in 0..n {
            need(buf, 8, "probe local index")?;
            let local = buf.get_u64_le();
            let challenge = Challenge::decode_from(buf)?;
            probes.push(ScreenProbe { local, challenge });
        }
        Ok(ShardScreen { probes })
    }
}

impl Wire for ShardScreenReply {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.evidence.len() as u64);
        for e in &self.evidence {
            match e {
                Some(resp) => {
                    buf.put_u8(1);
                    resp.encode_into(buf);
                }
                None => buf.put_u8(0),
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_count(buf, "screen evidence count")?;
        let mut evidence = Vec::with_capacity(n);
        for _ in 0..n {
            need(buf, 1, "evidence presence flag")?;
            evidence.push(match buf.get_u8() {
                0 => None,
                1 => Some(AttestationResponse::decode_from(buf)?),
                other => {
                    return Err(FlError::BadConfig {
                        reason: format!("bad evidence presence flag {other}"),
                    })
                }
            });
        }
        Ok(ShardScreenReply { evidence })
    }
}

impl Wire for ShardRound {
    fn encode_into(&self, buf: &mut BytesMut) {
        self.download.encode_into(buf);
        buf.put_u64_le(self.slot_base);
        buf.put_u64_le(self.picks.len() as u64);
        for &p in &self.picks {
            buf.put_u64_le(p);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let download = ModelDownload::decode_from(buf)?;
        need(buf, 8, "slot base")?;
        let slot_base = buf.get_u64_le();
        let n = decode_count(buf, "pick count")?;
        need(buf, 8 * n, "pick list")?;
        let mut picks = Vec::with_capacity(n);
        for _ in 0..n {
            picks.push(buf.get_u64_le());
        }
        Ok(ShardRound {
            download,
            picks,
            slot_base,
        })
    }
}

impl Wire for ShardOutcomeKind {
    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            ShardOutcomeKind::Straggler { elapsed_s } => {
                buf.put_u8(0);
                buf.put_f64_le(*elapsed_s);
            }
            ShardOutcomeKind::Failed { reason } => {
                buf.put_u8(1);
                encode_str(reason, buf);
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 1, "outcome kind tag")?;
        match buf.get_u8() {
            0 => {
                need(buf, 8, "straggler elapsed")?;
                Ok(ShardOutcomeKind::Straggler {
                    elapsed_s: buf.get_f64_le(),
                })
            }
            1 => Ok(ShardOutcomeKind::Failed {
                reason: decode_str(buf, "failure reason")?,
            }),
            other => Err(FlError::BadConfig {
                reason: format!("unknown outcome kind tag {other}"),
            }),
        }
    }
}

impl Wire for ShardOutcome {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.slot);
        buf.put_u64_le(self.client);
        self.kind.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, 16, "outcome header")?;
        Ok(ShardOutcome {
            slot: buf.get_u64_le(),
            client: buf.get_u64_le(),
            kind: ShardOutcomeKind::decode_from(buf)?,
        })
    }
}

impl Wire for PartialAggregate {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.terms().len() as u64);
        for (slot, upload) in self.terms() {
            buf.put_u64_le(*slot as u64);
            upload.encode_into(buf);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_count(buf, "aggregate term count")?;
        let mut partial = PartialAggregate::new();
        for _ in 0..n {
            need(buf, 8, "term slot")?;
            let slot = buf.get_u64_le() as usize;
            let upload = UpdateUpload::decode_from(buf)?;
            partial.push(slot, upload);
        }
        Ok(partial)
    }
}

impl Wire for RoundLedger {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.entries().len() as u64);
        for e in self.entries() {
            e.encode_into(buf);
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_count(buf, "ledger entry count")?;
        let mut ledger = RoundLedger::new();
        for _ in 0..n {
            ledger.record(ClientCycleCost::decode_from(buf)?);
        }
        Ok(ledger)
    }
}

impl Wire for ShardRoundReply {
    fn encode_into(&self, buf: &mut BytesMut) {
        self.partial.encode_into(buf);
        buf.put_u64_le(self.others.len() as u64);
        for o in &self.others {
            o.encode_into(buf);
        }
        self.ledger.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let partial = PartialAggregate::decode_from(buf)?;
        let n = decode_count(buf, "outcome count")?;
        let mut others = Vec::with_capacity(n);
        for _ in 0..n {
            others.push(ShardOutcome::decode_from(buf)?);
        }
        let ledger = RoundLedger::decode_from(buf)?;
        Ok(ShardRoundReply {
            partial,
            others,
            ledger,
        })
    }
}

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
