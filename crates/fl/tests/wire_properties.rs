//! Property-based tests for the FL wire protocol and aggregation.
//!
//! Every message the protocol speaks round-trips through the full path a
//! transport uses: encode → wrap in an [`Envelope`] → encode the envelope
//! (the TCP frame) → decode the envelope → open the payload.

use gradsec_fl::adversary::AdversaryPlan;
use gradsec_fl::aggregate::fedavg;
use gradsec_fl::client::DeviceProfile;
use gradsec_fl::codec::{
    decode_weights, dense_wire_bytes, encode_weights, int8_error_bound, CodecKind, EncodedBody,
    EncodedTensor, EncodedWeights, SparseDelta,
};
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::faults::{FaultPlan, LatencyModel};
use gradsec_fl::message::{
    decode, encode, AttestationRequest, AttestationResponse, DatasetSpec, EncodedModelDownload,
    EncodedUpdateUpload, Envelope, ErrorReply, Hello, HelloAck, MessageKind, ModelDownload,
    ModelSpec, ScreenProbe, ShardConfig, ShardConfigAck, ShardHello, ShardHelloAck, ShardOutcome,
    ShardOutcomeKind, ShardRound, ShardRoundReply, ShardScreen, ShardScreenReply, UpdateUpload,
    Wire, ENVELOPE_MAGIC,
};
use gradsec_fl::FlError;
use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tee::attestation::{sign_quote, Challenge, Measurement};
use gradsec_tee::cost::{ClientCycleCost, TimeBreakdown, WireBill};
use gradsec_tee::ta::Uuid;
use gradsec_tensor::{init, BackendKind, Tensor};
use proptest::prelude::*;

#[path = "common/shard_terms.rs"]
mod shard_terms;
use shard_terms::{reply_bytes, term_bytes, WEIGHTS_TAG_AT};

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

fn cost(client_id: u64, scale: f64, crossings: u64, peak: usize) -> ClientCycleCost {
    ClientCycleCost {
        client_id,
        time: TimeBreakdown {
            user_s: 2.0 * scale,
            kernel_s: 0.25 * scale,
            alloc_s: 4.5 * scale,
        },
        crossings,
        tee_peak_bytes: peak,
        wire: WireBill {
            download_encoded_bytes: peak as u64,
            download_raw_bytes: peak as u64 * 3,
            upload_encoded_bytes: crossings,
            upload_raw_bytes: crossings * 3,
        },
    }
}

/// An arbitrary codec from a primitive draw (the vendored proptest has
/// no combinators, so variants are selected by tag in the test body).
fn codec_from(tag: u8) -> CodecKind {
    match tag % 3 {
        0 => CodecKind::Identity,
        1 => CodecKind::Int8,
        _ => CodecKind::DeltaTopK,
    }
}

/// A rank-1 sparse tensor keeping `entries` coefficients `stride` apart
/// from index `first`, with `tail` coefficients after the last kept one.
fn strided_sparse(stride: usize, entries: usize, first: usize, tail: usize) -> EncodedTensor {
    let indices = (0..entries).map(|j| (first + j * stride) as u32);
    let n = first + (entries - 1) * stride + 1 + tail;
    let kept = indices.map(|i| (i, 0.5 - i as f32));
    EncodedTensor {
        dims: vec![n],
        body: EncodedBody::TopK(SparseDelta::from_entries(kept)),
    }
}

fn upload(id: u64, seed: u64) -> UpdateUpload {
    UpdateUpload {
        client_id: id,
        round: 1,
        weights: weights(2, 3, seed),
        num_samples: 4 + id as usize,
        train_loss: 0.25,
        cost: cost(id, 1.0, 3, 2048),
    }
}

/// An arbitrary-but-valid latency model from primitive draws (`a`
/// nonnegative): the vendored proptest has no combinators, so variants
/// are selected by tag in the test body.
fn latency_from(tag: u8, a: f64) -> LatencyModel {
    match tag % 3 {
        0 => LatencyModel::None,
        1 => LatencyModel::Fixed(a),
        _ => LatencyModel::Exponential { mean_s: a + 0.01 },
    }
}

/// An arbitrary-but-valid fault plan exercising every encoded field
/// (validated on decode, so every knob stays in its legal range).
#[allow(clippy::too_many_arguments)]
fn fault_plan_from(
    seed: u64,
    lat: LatencyModel,
    dropout: f64,
    drop: f64,
    garble: f64,
    deadline: Option<f64>,
    spare: usize,
    crashes: &[(u64, u64)],
    overrides: &[(u64, u8, f64)],
) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed)
        .latency(lat)
        .dropout(dropout)
        .drop_messages(drop)
        .garble_replies(garble)
        .spare(spare);
    if let Some(d) = deadline {
        plan = plan.deadline_s(d);
    }
    for &(client, round) in crashes {
        plan = plan.crash_at(client, round);
    }
    for &(client, tag, a) in overrides {
        plan = plan.client_latency(client, latency_from(tag, a));
    }
    plan
}

fn dataset_spec_from(tag: u8, len: u64, classes: u64, dim: u64, seed: u64) -> DatasetSpec {
    if tag.is_multiple_of(2) {
        DatasetSpec::Micro {
            len,
            classes,
            dim,
            seed,
        }
    } else {
        DatasetSpec::Cifar { len, classes, seed }
    }
}

fn model_spec_from(tag: u8, a: u64, b: u64, c: u64, seed: u64) -> ModelSpec {
    if tag.is_multiple_of(2) {
        ModelSpec::TinyMlp {
            inputs: a,
            hidden: b,
            outputs: c,
            seed,
        }
    } else {
        ModelSpec::LeNet5 { classes: c, seed }
    }
}

fn shard_config(
    dataset: DatasetSpec,
    model: ModelSpec,
    range: (u64, u64, u64),
    faults: Option<FaultPlan>,
) -> ShardConfig {
    ShardConfig {
        shard_index: 2,
        range_start: range.0,
        range_end: range.1,
        total_clients: range.2,
        dataset,
        model,
        init_weights: weights(2, 3, 11),
        plan: TrainingPlan::default(),
        backend: BackendKind::Reference,
        codec: CodecKind::Identity,
        workers: 4,
        faults,
        adversaries: None,
        devices: (range.0..range.1).map(device).collect(),
    }
}

/// Every third device a legacy one and every third a compromised one, so
/// each profile shape crosses.
fn device(id: u64) -> DeviceProfile {
    match id % 3 {
        0 => DeviceProfile::trustzone(id),
        1 => DeviceProfile::legacy(id),
        _ => DeviceProfile::compromised(id),
    }
}

/// An arbitrary-but-valid adversarial scenario from primitive draws
/// (a fraction in [0, 1]; knobs nonnegative and finite, as validation
/// demands).
fn adversary_plan_from(seed: u64, poisoners: f64, knobs: (f32, f32)) -> AdversaryPlan {
    AdversaryPlan::seeded(seed)
        .poisoners(poisoners)
        .poison_strength(knobs.0)
        .poison_noise(knobs.1)
}

/// Round-trips a message through the full transport path: message bytes →
/// envelope → envelope bytes (the TCP frame) → envelope → message.
fn through_envelope<T: Wire + PartialEq + std::fmt::Debug>(kind: MessageKind, msg: &T) -> T {
    let envelope = Envelope::pack(kind, msg);
    let framed = encode(&envelope);
    let back: Envelope = decode(&framed).expect("envelope frame decodes");
    assert_eq!(back, envelope, "envelope survived framing");
    back.open(kind).expect("payload opens as the packed kind")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tensor_wire_roundtrip(r in 1usize..5, c in 1usize..6, seed in 0u64..1000) {
        let t = init::uniform(&[r, c], -100.0, 100.0, seed);
        let back: Tensor = decode(&encode(&t)).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn download_wire_roundtrip(layers in 1usize..4, width in 1usize..5, round in 0u64..1000, prot in proptest::collection::vec(0usize..8, 0..4)) {
        let msg = ModelDownload {
            round,
            weights: weights(layers, width, round),
            plan: TrainingPlan::default(),
            protected_layers: prot,
        };
        // No envelope kind of its own: a plain download rides in ShardRound.
        let back: ModelDownload = decode(&encode(&msg)).unwrap();
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn attestation_wire_roundtrip(nonce in any::<[u8; 16]>(), with_quote in any::<bool>(), key in proptest::collection::vec(any::<u8>(), 1..32)) {
        let challenge = Challenge::new(nonce);
        let req = AttestationRequest { challenge };
        let back = through_envelope(MessageKind::AttestationRequest, &req);
        prop_assert_eq!(req, back);
        let quote = with_quote.then(|| {
            sign_quote(&key, Uuid::from_name("ta"), Measurement([7u8; 32]), &challenge)
        });
        let resp = AttestationResponse { quote };
        let back = through_envelope(MessageKind::AttestationResponse, &resp);
        prop_assert_eq!(resp, back);
    }

    #[test]
    fn handshake_wire_roundtrip(version in 0u16..200, id in any::<u64>(), tag in any::<u8>()) {
        let hello = Hello { version, codec: codec_from(tag) };
        prop_assert_eq!(hello, through_envelope(MessageKind::Hello, &hello));
        let ack = HelloAck { version, client_id: id, codec: codec_from(tag) };
        prop_assert_eq!(ack, through_envelope(MessageKind::HelloAck, &ack));
    }

    #[test]
    fn error_reply_roundtrips_arbitrary_text(reason in "[ -~]{0,120}") {
        let msg = ErrorReply { reason };
        let back = through_envelope(MessageKind::Error, &msg);
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn plan_wire_roundtrip(rounds in 1u64..100, cpr in 1usize..32, bpc in 1usize..32, bs in 1usize..128, seed in any::<u64>()) {
        let plan = TrainingPlan {
            rounds,
            clients_per_round: cpr,
            batches_per_cycle: bpc,
            batch_size: bs,
            learning_rate: 0.125,
            seed,
        };
        let back: TrainingPlan = decode(&encode(&plan)).unwrap();
        prop_assert_eq!(plan, back);
    }

    #[test]
    fn truncated_envelopes_never_panic(cut in 0usize..200) {
        let msg = EncodedUpdateUpload {
            client_id: 1,
            round: 2,
            weights: encode_weights(CodecKind::Identity, 0, &weights(2, 3, 7), None),
            num_samples: 10,
            train_loss: 0.5,
            cost: cost(1, 1.0, 12, 4096),
        };
        let mut bytes = encode(&Envelope::pack(MessageKind::EncodedUpdateUpload, &msg));
        bytes.truncate(cut.min(bytes.len().saturating_sub(1)));
        // Must error, not panic or loop.
        prop_assert!(decode::<Envelope>(&bytes).is_err());
    }

    #[test]
    fn corrupted_envelopes_never_allocate_wildly(pos in 0usize..48, byte in any::<u8>()) {
        let msg = EncodedUpdateUpload {
            client_id: 1,
            round: 2,
            weights: encode_weights(CodecKind::Identity, 0, &weights(1, 2, 7), None),
            num_samples: 10,
            train_loss: 0.5,
            cost: cost(1, 0.5, 3, 1024),
        };
        let mut bytes = encode(&Envelope::pack(MessageKind::EncodedUpdateUpload, &msg));
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        // Either decodes to something or errors — no panic, no OOM. A
        // decoded envelope may still hold a corrupt payload; opening it
        // must be equally safe.
        if let Ok(env) = decode::<Envelope>(&bytes) {
            let _ = env.open::<EncodedUpdateUpload>(MessageKind::EncodedUpdateUpload);
        }
    }

    #[test]
    fn wrong_magic_is_always_rejected(magic in any::<u16>()) {
        prop_assume!(magic != ENVELOPE_MAGIC);
        let mut bytes = encode(&Envelope::control(MessageKind::Goodbye));
        bytes[0..2].copy_from_slice(&magic.to_le_bytes());
        prop_assert!(decode::<Envelope>(&bytes).is_err());
    }

    #[test]
    fn fedavg_is_idempotent_on_identical_updates(n in 1usize..6, seed in 0u64..1000) {
        let w = weights(2, 3, seed);
        let updates: Vec<UpdateUpload> = (0..n)
            .map(|i| UpdateUpload {
                client_id: i as u64,
                round: 0,
                weights: w.clone(),
                num_samples: 5 + i,
                train_loss: 0.1,
                cost: cost(i as u64, 1.0, 2, 64),
            })
            .collect();
        // Bit for bit: the exact fold sums N·w, and N·w / N rounds to w.
        let bits = |m: &ModelWeights| -> Vec<u32> {
            m.iter().flat_map(|l| l.w.data().iter().chain(l.b.data())).map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&fedavg(&updates).unwrap()), bits(&w));
    }

    /// Over the whole finite f32 range, both ends included: a fold that
    /// summed nᵢ·wᵢ in f32 would overflow there.
    #[test]
    fn fedavg_stays_in_convex_hull(a in any::<u32>(), b in any::<u32>(), na in 1usize..50, nb in 1usize..50) {
        // A NaN or infinity pattern stands for the largest finite value
        // of its sign.
        let finite = |bits: u32| {
            let x = f32::from_bits(bits);
            if x.is_finite() { x } else { f32::MAX.copysign(x) }
        };
        let (wa, wb) = (finite(a), finite(b));
        let mk = |v: f32| ModelWeights::new(vec![LayerWeights {
            w: Tensor::full(&[2], v),
            b: Tensor::full(&[1], v),
        }]);
        let updates = vec![
            UpdateUpload { client_id: 0, round: 0, weights: mk(wa), num_samples: na, train_loss: 0.0, cost: Default::default() },
            UpdateUpload { client_id: 1, round: 0, weights: mk(wb), num_samples: nb, train_loss: 0.0, cost: Default::default() },
        ];
        let agg = fedavg(&updates).unwrap();
        let v = agg.layer(0).unwrap().w.data()[0];
        let (lo, hi) = (wa.min(wb), wa.max(wb));
        prop_assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}]");
    }
}

// Shard-control plane (protocol v3): every message the distributed
// coordinator speaks round-trips through the full envelope path, and the
// usual hostile-bytes properties (truncation, garbling, validation)
// hold for the new payloads too.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shard_handshake_wire_roundtrip(pid in any::<u64>(), version in 0u16..200, index in 0u64..64) {
        let hello = ShardHello { version, pid };
        prop_assert_eq!(hello, through_envelope(MessageKind::ShardHello, &hello));
        let ack = ShardHelloAck { version, shard_index: index };
        prop_assert_eq!(ack, through_envelope(MessageKind::ShardHelloAck, &ack));
    }

    #[test]
    fn shard_config_wire_roundtrip(
        ds in (0u8..2, 1u64..2048, 1u64..16, 1u64..64, any::<u64>()),
        md in (0u8..2, 1u64..256, 1u64..32, 1u64..16, any::<u64>()),
        start in 0u64..50,
        len in 0u64..50,
        faulty in (any::<bool>(), any::<u64>(), 0u8..3, 0.0f64..10.0, 0.0f64..1.0),
        clients in 0u64..64,
    ) {
        let faults = faulty.0.then(|| {
            fault_plan_from(
                faulty.1,
                latency_from(faulty.2, faulty.3),
                faulty.4,
                faulty.4,
                faulty.4,
                Some(1.0 + faulty.3),
                2,
                &[(3, 1)],
                &[],
            )
        });
        let config = shard_config(
            dataset_spec_from(ds.0, ds.1, ds.2, ds.3, ds.4),
            model_spec_from(md.0, md.1, md.2, md.3, md.4),
            (start, start + len, start + len + 8),
            faults,
        );
        let back = through_envelope(MessageKind::ShardConfig, &config);
        prop_assert_eq!(config, back);
        let ack = ShardConfigAck { clients };
        prop_assert_eq!(ack, through_envelope(MessageKind::ShardConfigAck, &ack));
    }

    #[test]
    fn fault_plan_wire_roundtrip(
        seed in any::<u64>(),
        lat in (0u8..3, 0.0f64..10.0),
        probs in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        deadline_on in any::<bool>(),
        deadline in 0.5f64..100.0,
        spare in 0usize..16,
        crashes in proptest::collection::vec((0u64..64, 0u64..10), 0..4),
        overrides in proptest::collection::vec((0u64..64, 0u8..3, 0.0f64..10.0), 0..4),
    ) {
        let plan = fault_plan_from(
            seed,
            latency_from(lat.0, lat.1),
            probs.0,
            probs.1,
            probs.2,
            deadline_on.then_some(deadline),
            spare,
            &crashes,
            &overrides,
        );
        let back: FaultPlan = decode(&encode(&plan)).unwrap();
        prop_assert_eq!(plan, back);
    }

    #[test]
    fn shard_config_decode_rejects_inverted_ranges(start in 1u64..100, shrink in 1u64..50) {
        // An inverted or fleet-overflowing range encodes fine (the
        // struct is plain data) but must never decode: the shard server
        // would index out of the global partition.
        let inverted = shard_config(
            DatasetSpec::Micro { len: 8, classes: 2, dim: 4, seed: 1 },
            ModelSpec::TinyMlp { inputs: 4, hidden: 2, outputs: 2, seed: 1 },
            (start, start - shrink.min(start), start + 8),
            None,
        );
        prop_assert!(decode::<ShardConfig>(&encode(&inverted)).is_err());
        let overflowing = shard_config(
            DatasetSpec::Micro { len: 8, classes: 2, dim: 4, seed: 1 },
            ModelSpec::TinyMlp { inputs: 4, hidden: 2, outputs: 2, seed: 1 },
            (start, start + shrink, start),
            None,
        );
        prop_assert!(decode::<ShardConfig>(&encode(&overflowing)).is_err());
    }

    #[test]
    fn shard_config_decode_refuses_a_device_list_unlike_its_range(
        start in 0u64..16,
        len in 0u64..16,
        shipped in 0u64..24,
    ) {
        // The shard server hosts one client per shipped profile: a list
        // longer or shorter than the range is refused by name on decode.
        let mut config = shard_config(
            DatasetSpec::Micro { len: 64, classes: 2, dim: 4, seed: 1 },
            ModelSpec::TinyMlp { inputs: 4, hidden: 2, outputs: 2, seed: 1 },
            (start, start + len, start + len + 4),
            None,
        );
        config.devices = (start..start + shipped).map(device).collect();
        let decoded = decode::<ShardConfig>(&encode(&config));
        if shipped == len {
            prop_assert_eq!(decoded.unwrap(), config);
        } else {
            let text = decoded.unwrap_err().to_string();
            let named = format!(
                "device list holds {shipped} profiles for the {len} clients of [{start}, {})",
                start + len
            );
            prop_assert!(text.contains(&named), "{}", text);
        }
    }

    #[test]
    fn shard_screen_wire_roundtrip(probes in proptest::collection::vec((0u64..512, any::<[u8; 16]>()), 0..8), with_quote in proptest::collection::vec(any::<bool>(), 0..8)) {
        let screen = ShardScreen {
            probes: probes
                .iter()
                .map(|&(local, nonce)| ScreenProbe { local, challenge: Challenge::new(nonce) })
                .collect(),
        };
        prop_assert_eq!(&screen, &through_envelope(MessageKind::ShardScreen, &screen));
        let reply = ShardScreenReply {
            evidence: with_quote
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    q.then(|| AttestationResponse {
                        quote: Some(sign_quote(
                            b"key",
                            Uuid::from_name("ta"),
                            Measurement([i as u8; 32]),
                            &Challenge::new([i as u8; 16]),
                        )),
                    })
                })
                .collect(),
        };
        prop_assert_eq!(&reply, &through_envelope(MessageKind::ShardScreenReply, &reply));
    }

    #[test]
    fn shard_round_wire_roundtrip(picks in proptest::collection::vec(0u64..512, 0..8), slot_base in 0u64..64, round in 0u64..100) {
        let msg = ShardRound {
            download: ModelDownload {
                round,
                weights: weights(2, 3, round),
                plan: TrainingPlan::default(),
                protected_layers: vec![0],
            },
            picks,
            slot_base,
        };
        prop_assert_eq!(&msg, &through_envelope(MessageKind::ShardRound, &msg));
    }

    #[test]
    fn shard_round_reply_wire_roundtrip(kinds in proptest::collection::vec(0u8..3, 0..10), slot_base in 0usize..32, seed in any::<u64>()) {
        let outcomes = kinds
            .iter()
            .enumerate()
            .map(|(j, kind)| {
                let slot = (slot_base + j) as u64;
                ShardOutcome {
                    slot,
                    client: slot,
                    kind: match kind {
                        0 => ShardOutcomeKind::Completed(upload(slot, seed ^ slot).into()),
                        1 => ShardOutcomeKind::Straggler {
                            elapsed_s: 12.5 + j as f64,
                            cost: cost(slot, 1.0, 2, 512),
                        },
                        _ => ShardOutcomeKind::Failed { reason: format!("injected failure {j}") },
                    },
                }
            })
            .collect();
        let reply = ShardRoundReply { outcomes };
        prop_assert_eq!(&reply, &through_envelope(MessageKind::ShardRoundReply, &reply));
    }

    #[test]
    fn truncated_shard_messages_never_panic(cut in 0usize..400) {
        let config = shard_config(
            DatasetSpec::Cifar { len: 64, classes: 4, seed: 3 },
            ModelSpec::LeNet5 { classes: 4, seed: 5 },
            (0, 8, 16),
            Some(FaultPlan::seeded(9).dropout(0.1).deadline_s(10.0).spare(2)),
        );
        let mut bytes = encode(&Envelope::pack(MessageKind::ShardConfig, &config));
        bytes.truncate(cut.min(bytes.len().saturating_sub(1)));
        prop_assert!(decode::<Envelope>(&bytes).is_err());
    }

    #[test]
    fn garbled_shard_replies_never_panic(pos in 0usize..256, byte in any::<u8>()) {
        let outcome = |slot, kind| ShardOutcome { slot, client: 7, kind };
        let straggling = ShardOutcomeKind::Straggler { elapsed_s: 3.5, cost: cost(7, 1.0, 2, 512) };
        let outcomes = vec![
            outcome(3, ShardOutcomeKind::Completed(upload(7, 1).into())),
            outcome(4, straggling),
        ];
        let reply = ShardRoundReply { outcomes };
        let mut bytes = encode(&Envelope::pack(MessageKind::ShardRoundReply, &reply));
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        // Either decodes to something or errors — no panic, no OOM.
        if let Ok(env) = decode::<Envelope>(&bytes) {
            let _ = env.open::<ShardRoundReply>(MessageKind::ShardRoundReply);
        }
    }
}

// Shard terms (protocol v8; one outcome list since v13): a completed
// outcome's term tags its weights — `0` and a dense model, or `1` and the
// self-contained payload its client sent. Only a shard server holds a term
// in wire form, so these replies are spelled in bytes.

/// A reply of `n` terms, those whose bit is set in `in_wire_form` shipped
/// as their int8 payload, beside the dense model each term stands for.
fn mixed_reply(n: usize, in_wire_form: u8, seed: u64) -> (Vec<u8>, Vec<ModelWeights>) {
    let mut dense = Vec::new();
    let terms: Vec<Vec<u8>> = (0..n)
        .map(|j| {
            let up = upload(j as u64, seed ^ j as u64);
            let wire = (in_wire_form >> j & 1 == 1)
                .then(|| encode_weights(CodecKind::Int8, 3, &up.weights, None));
            dense.push(match &wire {
                Some(enc) => decode_weights(enc, None).unwrap(),
                None => up.weights.clone(),
            });
            term_bytes(j, &up, wire.as_ref())
        })
        .collect();
    (reply_bytes(&terms), dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_reply_mixing_dense_and_wire_form_terms_round_trips(n in 1usize..6, in_wire_form in any::<u8>(), seed in any::<u64>()) {
        let (bytes, dense) = mixed_reply(n, in_wire_form, seed);
        let reply: ShardRoundReply = decode(&bytes).unwrap();
        // Each term re-encodes in the form it arrived in.
        prop_assert_eq!(&encode(&reply), &bytes);
        prop_assert_eq!(&reply, &through_envelope(MessageKind::ShardRoundReply, &reply));
        // A tag-1 term stands for its payload's decode.
        prop_assert_eq!(reply.outcomes.len(), n);
        for (j, (outcome, want)) in reply.outcomes.into_iter().zip(&dense).enumerate() {
            prop_assert_eq!(outcome.slot, j as u64);
            let ShardOutcomeKind::Completed(term) = outcome.kind else {
                panic!("slot {j} holds a term")
            };
            prop_assert_eq!(&term.expand().weights, want);
        }
    }

    #[test]
    fn truncated_or_garbled_mixed_replies_never_panic(at in any::<usize>(), byte in any::<u8>()) {
        let (bytes, _) = mixed_reply(3, 0b101, 7);
        let framed = encode(&Envelope {
            kind: MessageKind::ShardRoundReply,
            payload: bytes.clone(),
        });
        prop_assert!(decode::<ShardRoundReply>(&bytes[..at % bytes.len()]).is_err());
        prop_assert!(decode::<Envelope>(&framed[..at % framed.len()]).is_err());
        let mut garbled = framed.clone();
        garbled[at % framed.len()] = byte;
        // Either decodes to something or errors — no panic, no OOM.
        if let Ok(env) = decode::<Envelope>(&garbled) {
            let _ = env.open::<ShardRoundReply>(MessageKind::ShardRoundReply);
        }
    }
}

#[test]
fn shard_terms_the_coordinator_cannot_hold_are_refused_by_name() {
    let up = upload(1, 5);
    let sparse = encode_weights(
        CodecKind::DeltaTopK,
        4,
        &up.weights,
        Some((3, &weights(2, 3, 9))),
    );
    assert!(matches!(sparse.tensors[0].body, EncodedBody::TopK(_)));
    let mut bad_scale = encode_weights(CodecKind::Int8, 4, &up.weights, None);
    let EncodedBody::Int8 { scale, .. } = &mut bad_scale.tensors[0].body else {
        unreachable!("int8 bodies")
    };
    *scale = f32::INFINITY;
    let mut unknown = term_bytes(0, &up, None);
    unknown[WEIGHTS_TAG_AT] = 2;
    for (term, why) in [
        (
            term_bytes(0, &up, Some(&sparse)),
            "delta body without a reference view",
        ),
        (
            term_bytes(0, &up, Some(&bad_scale)),
            "non-finite coefficient inf in tensor 0 at int8 scale",
        ),
        (unknown, "unknown shard term tag 2"),
    ] {
        let bytes = reply_bytes(&[term]);
        let err = decode::<ShardRoundReply>(&bytes).unwrap_err();
        assert!(err.to_string().contains(why), "{why}: {err}");
    }
}

// Update codecs (protocol v4; gap-coded sparse bodies since v7): every
// codec's payloads round-trip through the full envelope path, hostile
// bytes never panic, the billed size is the encoded size, and the lossy
// codecs honour their pinned error bounds for arbitrary weights.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoded_download_wire_roundtrip(layers in 1usize..4, width in 1usize..6, round in 0u64..1000, tag in any::<u8>()) {
        let codec = codec_from(tag);
        let w = weights(layers, width, round);
        let base = weights(layers, width, round + 77);
        let reference = (codec == CodecKind::DeltaTopK).then_some((round, &base));
        let msg = EncodedModelDownload {
            round,
            weights: encode_weights(codec, round, &w, reference),
            plan: TrainingPlan::default(),
            protected_layers: vec![0],
        };
        let back = through_envelope(MessageKind::EncodedModelDownload, &msg);
        prop_assert_eq!(&msg, &back);
        // The framed encoding decodes back to same-shaped weights.
        let decoded = decode_weights(
            &back.weights,
            (codec == CodecKind::DeltaTopK).then_some(&base),
        ).unwrap();
        prop_assert_eq!(decoded.num_layers(), w.num_layers());
    }

    #[test]
    fn encoded_upload_wire_roundtrip(layers in 1usize..4, width in 1usize..6, id in 0u64..64, tag in any::<u8>()) {
        let codec = codec_from(tag);
        let w = weights(layers, width, id + 5);
        let base = weights(layers, width, id + 55);
        let reference = (codec == CodecKind::DeltaTopK).then_some((id, &base));
        let msg = EncodedUpdateUpload {
            client_id: id,
            round: 3,
            weights: encode_weights(codec, id, &w, reference),
            num_samples: 10,
            train_loss: 0.5,
            cost: cost(id, 1.0, 3, 2048),
        };
        let back = through_envelope(MessageKind::EncodedUpdateUpload, &msg);
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn identity_codec_is_bit_exact_for_arbitrary_weights(layers in 1usize..4, width in 1usize..6, seed in any::<u64>()) {
        let w = weights(layers, width, seed);
        let enc = encode_weights(CodecKind::Identity, 0, &w, None);
        let back = decode_weights(&enc, None).unwrap();
        prop_assert_eq!(w, back);
    }

    #[test]
    fn int8_codec_stays_within_its_pinned_error_bound(layers in 1usize..4, width in 1usize..6, seed in any::<u64>()) {
        let w = weights(layers, width, seed);
        let bound = int8_error_bound(&w);
        let enc = encode_weights(CodecKind::Int8, 0, &w, None);
        let back = decode_weights(&enc, None).unwrap();
        for (a, b) in w.iter().zip(back.iter()) {
            for (x, y) in a.w.data().iter().zip(b.w.data().iter()) {
                prop_assert!((x - y).abs() <= bound, "|{x} - {y}| > {bound}");
            }
            for (x, y) in a.b.data().iter().zip(b.b.data().iter()) {
                prop_assert!((x - y).abs() <= bound, "|{x} - {y}| > {bound}");
            }
        }
    }

    #[test]
    fn delta_topk_error_never_exceeds_the_dropped_delta(layers in 1usize..3, width in 1usize..6, seed in any::<u64>()) {
        // Reconstruction is `base + kept deltas`: a coordinate is either
        // restored to (float) x or left at base, so its error is bounded
        // by the delta magnitude itself.
        let w = weights(layers, width, seed);
        let base = weights(layers, width, seed ^ 0xABCD);
        let enc = encode_weights(CodecKind::DeltaTopK, 7, &w, Some((7, &base)));
        let back = decode_weights(&enc, Some(&base)).unwrap();
        for ((t, b), r) in w.iter().zip(base.iter()).zip(back.iter()) {
            for ((x, y), z) in t.w.data().iter().zip(b.w.data().iter()).zip(r.w.data().iter()) {
                let slack = (x - y).abs() + 1e-4 * (x.abs() + y.abs() + 1.0);
                prop_assert!((z - x).abs() <= slack, "|{z} - {x}| > {slack}");
            }
            for ((x, y), z) in t.b.data().iter().zip(b.b.data().iter()).zip(r.b.data().iter()) {
                let slack = (x - y).abs() + 1e-4 * (x.abs() + y.abs() + 1.0);
                prop_assert!((z - x).abs() <= slack, "|{z} - {x}| > {slack}");
            }
        }
    }

    #[test]
    fn lossy_codecs_never_grow_the_payload(layers in 1usize..4, width in 2usize..6, seed in any::<u64>(), tag in any::<u8>()) {
        let codec = codec_from(tag);
        let w = weights(layers, width, seed);
        let base = weights(layers, width, seed + 1);
        let reference = (codec == CodecKind::DeltaTopK).then_some((0, &base));
        let enc = encode_weights(codec, 0, &w, reference);
        // The envelope adds a bounded header over the raw dense bytes;
        // no codec may blow past that.
        prop_assert!(enc.wire_bytes() <= dense_wire_bytes(&w) + 64);
    }

    #[test]
    fn truncated_encoded_messages_never_panic(cut in 0usize..300, tag in any::<u8>()) {
        let codec = codec_from(tag);
        let w = weights(2, 3, 7);
        let base = weights(2, 3, 8);
        let reference = (codec == CodecKind::DeltaTopK).then_some((1, &base));
        let msg = EncodedModelDownload {
            round: 2,
            weights: encode_weights(codec, 1, &w, reference),
            plan: TrainingPlan::default(),
            protected_layers: vec![1],
        };
        let mut bytes = encode(&Envelope::pack(MessageKind::EncodedModelDownload, &msg));
        bytes.truncate(cut.min(bytes.len().saturating_sub(1)));
        prop_assert!(decode::<Envelope>(&bytes).is_err());
    }

    #[test]
    fn garbled_encoded_messages_never_panic(pos in 0usize..256, byte in any::<u8>(), tag in any::<u8>()) {
        let codec = codec_from(tag);
        let w = weights(2, 3, 7);
        let base = weights(2, 3, 8);
        let reference = (codec == CodecKind::DeltaTopK).then_some((1, &base));
        let msg = EncodedUpdateUpload {
            client_id: 1,
            round: 2,
            weights: encode_weights(codec, 1, &w, reference),
            num_samples: 10,
            train_loss: 0.5,
            cost: cost(1, 1.0, 12, 4096),
        };
        let mut bytes = encode(&Envelope::pack(MessageKind::EncodedUpdateUpload, &msg));
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        // Either decodes to something or errors — no panic, no OOM. A
        // decoded envelope may hold a corrupt payload; opening it, and
        // decoding whatever weights it claims to carry, must be equally
        // safe.
        if let Ok(env) = decode::<Envelope>(&bytes) {
            if let Ok(up) = env.open::<EncodedUpdateUpload>(MessageKind::EncodedUpdateUpload) {
                let _ = decode_weights(&up.weights, Some(&base));
            }
        }
    }

    #[test]
    fn wire_bytes_is_the_encoded_length_for_every_codec(layers in 1usize..4, width in 1usize..24, seed in any::<u64>(), tag in any::<u8>()) {
        // The ledger bills from the closed form; the sparse body's share
        // of it depends on where the kept coefficients fall.
        let codec = codec_from(tag);
        let w = weights(layers, width, seed);
        let base = weights(layers, width, seed ^ 0x5EED);
        let reference = (codec == CodecKind::DeltaTopK).then_some((3, &base));
        let enc = encode_weights(codec, 4, &w, reference);
        prop_assert_eq!(enc.wire_bytes(), encode(&enc).len() as u64);
    }

    #[test]
    fn sparse_bodies_roundtrip_at_any_density(stride in 1usize..40_000, entries in 1usize..40, first in 0usize..3, tail in 0usize..3) {
        // Strides up to 40 000 are gaps of one, two and three bytes;
        // `first == 0` puts an entry on index 0, `tail == 0` on n - 1.
        let tensor = strided_sparse(stride, entries, first, tail);
        let n = tensor.dims[0];
        let enc = EncodedWeights {
            codec: CodecKind::DeltaTopK,
            epoch: 2,
            base_epoch: Some(1),
            tensors: vec![tensor, EncodedTensor { dims: vec![0], body: EncodedBody::Dense(vec![]) }],
        };
        let bytes = encode(&enc);
        prop_assert_eq!(enc.wire_bytes(), bytes.len() as u64);
        let back: EncodedWeights = decode(&bytes).unwrap();
        prop_assert_eq!(&back, &enc);
        // One coefficient fewer and the last index is out of bounds.
        if tail == 0 {
            let mut short = enc.clone();
            short.tensors[0].dims = vec![n - 1];
            prop_assert!(decode::<EncodedWeights>(&encode(&short)).is_err());
        }
    }

    #[test]
    fn accepted_sparse_bodies_reencode_to_the_bytes_they_arrived_as(stride in 1usize..20_000) {
        // Every byte of the tensor in turn — dims, tag, count, gaps,
        // values — set to every value: whatever still decodes has exactly
        // one encoding, the one it arrived in.
        let clean = encode(&strided_sparse(stride, 6, 1, 2));
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            for byte in 0..=u8::MAX {
                bytes[pos] = byte;
                match decode::<EncodedTensor>(&bytes) {
                    Ok(back) => prop_assert_eq!(&encode(&back), &bytes, "pos {}", pos),
                    Err(e) => prop_assert!(matches!(e, FlError::BadConfig { .. }), "{}", e),
                }
            }
        }
    }

    #[test]
    fn arbitrary_gap_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..48), k in 0u64..6, n in 0u64..100_000) {
        // A rank-1 sparse header claiming `k` of `n` coefficients, then
        // noise where the gaps and values belong.
        let mut bytes = encode(&1u64);
        bytes.extend(encode(&n));
        bytes.push(2);
        bytes.extend(encode(&k));
        bytes.extend(raw);
        match decode::<EncodedTensor>(&bytes) {
            Ok(EncodedTensor { body: EncodedBody::TopK(sparse), .. }) => {
                let indices: Vec<u64> = sparse.entries().map(|(i, _)| i).collect();
                prop_assert_eq!(indices.len() as u64, k);
                prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(indices.iter().all(|&i| i < n));
            }
            Ok(other) => prop_assert!(false, "tag 2 decoded as {:?}", other),
            Err(e) => prop_assert!(matches!(e, FlError::BadConfig { .. }), "{}", e),
        }
    }
}

// Adversarial scenario plane (protocol v5): the scenario plan riding on
// the shard config round-trips through the full envelope path, invalid
// scenarios never decode, and hostile bytes never panic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adversary_plan_wire_roundtrip(
        seed in any::<u64>(),
        poisoners in 0.0f64..1.0,
        knobs in (0.0f32..10.0, 0.0f32..1.0),
    ) {
        let plan = adversary_plan_from(seed, poisoners, knobs);
        plan.validate().unwrap();
        let back: AdversaryPlan = decode(&encode(&plan)).unwrap();
        prop_assert_eq!(plan, back);
    }

    #[test]
    fn adversarial_shard_config_wire_roundtrip(
        seed in any::<u64>(),
        poisoners in 0.0f64..1.0,
        hostile in any::<bool>(),
    ) {
        let mut config = shard_config(
            DatasetSpec::Micro { len: 32, classes: 4, dim: 4, seed: 1 },
            ModelSpec::TinyMlp { inputs: 4, hidden: 2, outputs: 4, seed: 1 },
            (0, 8, 16),
            None,
        );
        config.adversaries =
            hostile.then(|| adversary_plan_from(seed, poisoners, (1.0, 0.1)));
        let back = through_envelope(MessageKind::ShardConfig, &config);
        prop_assert_eq!(config, back);
    }

    #[test]
    fn invalid_scenarios_never_decode(excess in 1.0f64..10.0) {
        // A fraction past 1 encodes fine (plain data) but must be
        // rejected on decode — a shard server must never instantiate an
        // impossible fleet.
        let overfull = AdversaryPlan::seeded(1).poisoners(1.0 + excess);
        prop_assert!(decode::<AdversaryPlan>(&encode(&overfull)).is_err());
        // Tag 2 was the retired uniform latency model, two f64 bounds
        // after the tag: it is refused as unknown, by name.
        let mut retired = vec![2u8];
        retired.extend_from_slice(&encode(&0.5f64));
        retired.extend_from_slice(&encode(&excess));
        let err = decode::<LatencyModel>(&retired).unwrap_err().to_string();
        prop_assert!(err.contains("unknown latency model tag 2"), "{}", err);
        let config = shard_config(
            DatasetSpec::Micro { len: 8, classes: 2, dim: 4, seed: 1 },
            ModelSpec::TinyMlp { inputs: 4, hidden: 2, outputs: 2, seed: 1 },
            (0, 4, 8),
            None,
        );
        // The backend's tag is the one byte that moves with the backend
        // alone; a tag past every backend this build knows is refused.
        let bytes = encode(&config);
        let tiled = encode(&ShardConfig { backend: BackendKind::Tiled, ..config.clone() });
        let at = (0..bytes.len()).find(|&i| bytes[i] != tiled[i]).unwrap();
        let mut unknown = bytes.clone();
        unknown[at] = BackendKind::ALL.len() as u8;
        prop_assert!(decode::<ShardConfig>(&unknown).is_err());
    }

    #[test]
    fn truncated_adversarial_configs_never_panic(cut in 0usize..400) {
        let mut config = shard_config(
            DatasetSpec::Cifar { len: 64, classes: 4, seed: 3 },
            ModelSpec::LeNet5 { classes: 4, seed: 5 },
            (0, 8, 16),
            Some(FaultPlan::seeded(9).dropout(0.1)),
        );
        config.adversaries =
            Some(adversary_plan_from(7, 0.2, (1.0, 0.1)));
        let mut bytes = encode(&Envelope::pack(MessageKind::ShardConfig, &config));
        bytes.truncate(cut.min(bytes.len().saturating_sub(1)));
        prop_assert!(decode::<Envelope>(&bytes).is_err());
    }

    #[test]
    fn garbled_adversarial_configs_never_panic(pos in 0usize..300, byte in any::<u8>()) {
        let mut config = shard_config(
            DatasetSpec::Micro { len: 16, classes: 2, dim: 4, seed: 1 },
            ModelSpec::TinyMlp { inputs: 4, hidden: 2, outputs: 2, seed: 1 },
            (0, 4, 8),
            None,
        );
        config.adversaries =
            Some(adversary_plan_from(3, 0.25, (2.0, 0.05)));
        let mut bytes = encode(&Envelope::pack(MessageKind::ShardConfig, &config));
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        // Either decodes to something or errors — no panic, no OOM.
        if let Ok(env) = decode::<Envelope>(&bytes) {
            let _ = env.open::<ShardConfig>(MessageKind::ShardConfig);
        }
    }
}
