//! Property-based tests for the multiplexed transport: its frame
//! reassembler, and split-phase exchanges over a live event-loop pool.
//!
//! The mux event loop sees the protocol as the kernel delivers it:
//! arbitrary chunks that straddle header and payload boundaries,
//! coalesce several frames, or carry a single byte. Whatever the
//! chunking, [`FrameReassembler`] must emit exactly the envelopes that
//! were written — every [`MessageKind`] the protocol speaks, in order,
//! bit-identical — and reject a corrupt header without reading past it.
//!
//! The server side sees sessions as independent pipes: it may `begin` a
//! request on any of them, in any order, before it `finish`es any, and
//! collect the replies in any other order — each session's reply must
//! still answer that session's request.

use gradsec_fl::client::{DeviceProfile, FlClient};
use gradsec_fl::codec::{encode_weights, CodecKind};
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::message::{
    encode, AttestationRequest, AttestationResponse, EncodedModelDownload, EncodedUpdateUpload,
    Envelope, ErrorReply, Hello, HelloAck, MessageKind, ENVELOPE_HEADER_LEN,
};
use gradsec_fl::trainer::PlainSgdTrainer;
use gradsec_fl::transport::mux::{FrameReassembler, MuxFleet, DEFAULT_JOIN_GRACE};
use gradsec_fl::transport::tcp;
use gradsec_fl::{MuxOptions, ServerEndpoint};
use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tee::attestation::{sign_quote, verify_quote, Challenge, Measurement};
use gradsec_tee::cost::{ClientCycleCost, TimeBreakdown, WireBill};
use gradsec_tee::crypto::sha256::sha256;
use gradsec_tee::ta::Uuid;
use gradsec_tee::tiop::SecureChannel;
use gradsec_tensor::init;
use proptest::prelude::*;

fn weights(layers: usize, width: usize, seed: u64) -> ModelWeights {
    ModelWeights::new(
        (0..layers)
            .map(|i| LayerWeights {
                w: init::uniform(&[width, width], -1.0, 1.0, seed + i as u64),
                b: init::uniform(&[width], -1.0, 1.0, seed + 100 + i as u64),
            })
            .collect(),
    )
}

/// One representative envelope per client-protocol [`MessageKind`],
/// parameterised by a seed so payload bytes (and sizes) vary across
/// proptest cases. The strategies below pick kinds by index, so this
/// covers the client protocol exhaustively by construction.
fn envelope_of(kind_index: usize, seed: u64) -> Envelope {
    let width = 1 + (seed % 4) as usize;
    match kind_index {
        0 => Envelope::pack(MessageKind::Hello, &Hello::current()),
        1 => Envelope::pack(
            MessageKind::HelloAck,
            &HelloAck {
                version: 2,
                client_id: seed,
                codec: codec_of(seed),
            },
        ),
        2 => Envelope::pack(
            MessageKind::AttestationRequest,
            &AttestationRequest {
                challenge: Challenge::new([seed as u8; 16]),
            },
        ),
        3 => {
            let challenge = Challenge::new([seed as u8; 16]);
            let quote = seed.is_multiple_of(2).then(|| {
                sign_quote(
                    &seed.to_le_bytes(),
                    Uuid::from_name("ta"),
                    Measurement([7u8; 32]),
                    &challenge,
                )
            });
            Envelope::pack(
                MessageKind::AttestationResponse,
                &AttestationResponse { quote },
            )
        }
        4 => Envelope::pack(
            MessageKind::Error,
            &ErrorReply {
                reason: format!("injected fault {seed}"),
            },
        ),
        5 => Envelope::control(MessageKind::Goodbye),
        6 => {
            let (mut tx, _rx) = SecureChannel::pair(&seed.to_le_bytes());
            let frame = tx.seal(&seed.to_le_bytes());
            Envelope::pack(MessageKind::Sealed, &frame)
        }
        7 => Envelope::pack(
            MessageKind::EncodedModelDownload,
            &EncodedModelDownload {
                round: seed,
                weights: encoded_weights_of(seed, width),
                plan: TrainingPlan::default(),
                protected_layers: vec![(seed % 5) as usize],
            },
        ),
        _ => Envelope::pack(
            MessageKind::EncodedUpdateUpload,
            &EncodedUpdateUpload {
                client_id: seed,
                round: 3,
                weights: encoded_weights_of(seed, width),
                num_samples: 10,
                train_loss: 0.5,
                cost: ClientCycleCost {
                    client_id: seed,
                    time: TimeBreakdown::default(),
                    crossings: seed,
                    tee_peak_bytes: width << 10,
                    wire: WireBill::default(),
                },
            },
        ),
    }
}

/// Cycles through every codec so encoded payloads of all three body
/// layouts cross the reassembler.
fn codec_of(seed: u64) -> CodecKind {
    match seed % 3 {
        0 => CodecKind::Identity,
        1 => CodecKind::Int8,
        _ => CodecKind::DeltaTopK,
    }
}

fn encoded_weights_of(seed: u64, width: usize) -> gradsec_fl::codec::EncodedWeights {
    let codec = codec_of(seed);
    let w = weights(1 + (seed % 3) as usize, width, seed);
    let base = weights(1 + (seed % 3) as usize, width, seed + 9);
    let reference = (codec == CodecKind::DeltaTopK).then_some((seed, &base));
    encode_weights(codec, seed + 1, &w, reference)
}

const NUM_KINDS: usize = 9;

/// Splits `bytes` into chunks following the (cycled) size schedule and
/// feeds each chunk to a fresh reassembler, returning the emitted frames.
fn reassemble(bytes: &[u8], schedule: &[usize]) -> Vec<Envelope> {
    let mut rx = FrameReassembler::new();
    let mut out = Vec::new();
    let mut offset = 0;
    let mut turn = 0;
    while offset < bytes.len() {
        let take = schedule[turn % schedule.len()].min(bytes.len() - offset);
        rx.feed(&bytes[offset..offset + take], &mut out)
            .expect("well-formed stream reassembles");
        offset += take;
        turn += 1;
    }
    assert!(
        !rx.mid_frame(),
        "stream fully consumed but reassembler still mid-frame"
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of protocol messages, chunked at arbitrary split
    /// points, reassembles to exactly the envelopes written.
    #[test]
    fn arbitrary_chunking_reassembles_every_kind(
        kinds in proptest::collection::vec(0usize..NUM_KINDS, 1..8),
        seed in 0u64..1000,
        schedule in proptest::collection::vec(1usize..97, 1..24),
    ) {
        let envelopes: Vec<Envelope> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| envelope_of(k, seed + i as u64))
            .collect();
        let mut stream = Vec::new();
        for env in &envelopes {
            stream.extend_from_slice(&encode(env));
        }
        let back = reassemble(&stream, &schedule);
        prop_assert_eq!(back, envelopes);
    }

    /// The pathological schedule: one byte per read. Every header and
    /// payload boundary is straddled; the result must still be exact.
    #[test]
    fn one_byte_reads_reassemble_every_kind(kind in 0usize..NUM_KINDS, seed in 0u64..1000) {
        let env = envelope_of(kind, seed);
        let back = reassemble(&encode(&env), &[1]);
        prop_assert_eq!(back, vec![env]);
    }

    /// Back-to-back zero-payload frames (the Goodbye shape) emit one
    /// envelope per header even when a chunk ends exactly on a header
    /// boundary — the reassembler must not hold a completed frame
    /// hostage waiting for bytes that never come.
    #[test]
    fn zero_payload_frames_emit_at_chunk_boundaries(n in 1usize..6, schedule in proptest::collection::vec(1usize..14, 1..6)) {
        let goodbye = Envelope::control(MessageKind::Goodbye);
        let mut stream = Vec::new();
        for _ in 0..n {
            stream.extend_from_slice(&encode(&goodbye));
        }
        // Also check the exact-header-boundary schedule explicitly.
        for sched in [schedule.as_slice(), &[ENVELOPE_HEADER_LEN]] {
            let back = reassemble(&stream, sched);
            prop_assert_eq!(back.len(), n);
            prop_assert!(back.iter().all(|e| e == &goodbye));
        }
    }

    /// A corrupted header (bad magic) is a protocol error as soon as the
    /// 13th header byte lands, regardless of how the stream was chunked
    /// before it — never a panic, never a wild allocation.
    #[test]
    fn corrupt_magic_errors_at_any_split(byte in 0u8..0x46, split in 1usize..ENVELOPE_HEADER_LEN) {
        // 0x47 is the low magic byte; anything below it is corrupt.
        let mut bytes = encode(&Envelope::control(MessageKind::Goodbye));
        bytes[0] = byte;
        let mut rx = FrameReassembler::new();
        let mut out = Vec::new();
        // The split lands inside the header: the first feed must be
        // clean (no full header yet), the second must reject.
        prop_assert!(rx.feed(&bytes[..split], &mut out).is_ok());
        prop_assert!(rx.feed(&bytes[split..], &mut out).is_err());
        prop_assert!(out.is_empty());
    }
}

/// Sessions in the live fleet of the interleaving property.
const SESSIONS: usize = 5;

/// The session order a vector of sort keys spells out.
fn order_by(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&s| (keys[s], s));
    order
}

fn fl_client(id: u64) -> FlClient {
    FlClient::new(
        id,
        DeviceProfile::trustzone(id),
        std::sync::Arc::new(gradsec_data::SyntheticMicro::new(8, 2, 4, 1)),
        (0..8).collect(),
        gradsec_nn::zoo::tiny_mlp(4, 3, 2, 1).unwrap(),
        Box::new(PlainSgdTrainer),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Requests begun across the sessions of a live mux fleet in one
    /// arbitrary order, all before any finish, and collected in another:
    /// every session acks with its own identity and signs the nonce *it*
    /// was sent, under its own key.
    #[test]
    fn interleaved_begins_are_answered_session_by_session(
        hello_keys in proptest::collection::vec(0u64..1000, SESSIONS..SESSIONS + 1),
        begin_keys in proptest::collection::vec(0u64..1000, SESSIONS..SESSIONS + 1),
        finish_keys in proptest::collection::vec(0u64..1000, SESSIONS..SESSIONS + 1),
        seed in 0u8..200,
    ) {
        let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let fleet = (0..SESSIONS as u64).map(fl_client).collect();
        let mut mux = MuxFleet::launch(addr, fleet, &MuxOptions::default()).unwrap();
        let mut endpoints: Vec<_> = (0..SESSIONS).map(|_| listener.accept().unwrap()).collect();

        let hello = Envelope::pack(MessageKind::Hello, &Hello::current());
        for &s in &order_by(&hello_keys) {
            prop_assert!(!endpoints[s].begin(hello.clone()).unwrap(), "a socket answers later");
        }
        let mut ids = [0u64; SESSIONS];
        for &s in &order_by(&finish_keys) {
            let ack: HelloAck = endpoints[s].finish().unwrap().open(MessageKind::HelloAck).unwrap();
            ids[s] = ack.client_id;
        }
        let mut seen = ids;
        seen.sort_unstable();
        prop_assert_eq!(seen.to_vec(), (0..SESSIONS as u64).collect::<Vec<_>>());

        let challenge_of = |s: usize| Challenge::new([seed + s as u8; 16]);
        for &s in &order_by(&begin_keys) {
            let request = AttestationRequest { challenge: challenge_of(s) };
            endpoints[s].begin(Envelope::pack(MessageKind::AttestationRequest, &request)).unwrap();
        }
        let whitelisted = Measurement(sha256(b"gradsec-ta-code-v1"));
        for &s in &order_by(&finish_keys) {
            let reply = endpoints[s].finish().unwrap();
            let response: AttestationResponse = reply.open(MessageKind::AttestationResponse).unwrap();
            let quote = response.quote.expect("a TrustZone device signs");
            let key = DeviceProfile::provisioned_key(ids[s]);
            prop_assert!(verify_quote(&key, &quote, whitelisted, &challenge_of(s)).is_ok());
        }

        for endpoint in &mut endpoints {
            endpoint.notify(Envelope::control(MessageKind::Goodbye)).unwrap();
        }
        drop(endpoints);
        prop_assert_eq!(mux.join(DEFAULT_JOIN_GRACE).unwrap().len(), SESSIONS);
    }
}
