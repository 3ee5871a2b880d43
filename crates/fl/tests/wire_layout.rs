//! The wire layout is frozen: one fixed instance of every [`Wire`] type,
//! encoded and compared against a SHA-256 digest of its bytes.
//!
//! Any change to how a leaf, a list, an optional or a tagged enum is
//! laid out — or to a message's field order — fails here by name. A
//! deliberate layout change bumps `PROTOCOL_VERSION` and re-captures the
//! table (the failure message prints the new digests): the rows that
//! move are its own and the four hellos' envelopes, which carry the
//! version.

use gradsec_fl::adversary::AdversaryPlan;
use gradsec_fl::client::DeviceProfile;
use gradsec_fl::codec::{encode_weights, CodecKind, EncodedBody, EncodedWeights};
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::faults::{FaultPlan, LatencyModel};
use gradsec_fl::message::{
    decode, encode, AttestationRequest, AttestationResponse, DatasetSpec, EncodedModelDownload,
    EncodedUpdateUpload, Envelope, ErrorReply, Hello, HelloAck, MessageKind, ModelDownload,
    ModelSpec, ScreenProbe, ShardConfig, ShardConfigAck, ShardHello, ShardHelloAck, ShardOutcome,
    ShardOutcomeKind, ShardRound, ShardRoundReply, ShardScreen, ShardScreenReply, UpdateUpload,
    Wire, PROTOCOL_VERSION,
};
use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tee::attestation::{Challenge, Measurement, Quote};
use gradsec_tee::cost::{ClientCycleCost, TimeBreakdown, WireBill};
use gradsec_tee::crypto::sha256::sha256;
use gradsec_tee::ta::Uuid;
use gradsec_tensor::{BackendKind, Tensor};

#[path = "common/shard_terms.rs"]
mod shard_terms;
use shard_terms::{reply_bytes, term_bytes};

fn tensor(dims: &[usize], offset: f32) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|i| offset + 0.375 * i as f32).collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Two layers, 12 + 3 and 6 + 2 coefficients: the delta codec ships
/// sparse bodies for the two weight tensors and falls back to dense for
/// the 3- and 2-coefficient biases, where one sparse entry (8-byte count,
/// gap, value) would outweigh the tensor.
fn weights(offset: f32) -> ModelWeights {
    ModelWeights::new(vec![
        LayerWeights {
            w: tensor(&[3, 4], offset),
            b: tensor(&[3], -offset),
        },
        LayerWeights {
            w: tensor(&[2, 3], offset * 0.5),
            b: tensor(&[2], 1.25),
        },
    ])
}

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 12,
        clients_per_round: 5,
        batches_per_cycle: 7,
        batch_size: 16,
        learning_rate: 0.125,
        seed: 99,
    }
}

fn cost(client_id: u64) -> ClientCycleCost {
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

fn quote() -> Quote {
    Quote {
        ta: Uuid([0xA1; 16]),
        measurement: Measurement([0xB2; 32]),
        nonce: [0xC3; 16],
        signature: [0xD4; 32],
    }
}

fn upload(client_id: u64) -> UpdateUpload {
    UpdateUpload {
        client_id,
        round: 4,
        weights: weights(client_id as f32),
        num_samples: 320,
        train_loss: 2.5,
        cost: cost(client_id),
    }
}

fn download() -> ModelDownload {
    ModelDownload {
        round: 4,
        weights: weights(1.0),
        plan: plan(),
        protected_layers: vec![1, 4],
    }
}

/// Every `FaultPlan` field populated, every `LatencyModel` arm present.
fn fault_plan() -> FaultPlan {
    FaultPlan::seeded(0xFA17)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .client_latency(3, LatencyModel::None)
        .client_latency(5, LatencyModel::Fixed(1.5))
        .client_latency(13, LatencyModel::Exponential { mean_s: 3.0 })
        .dropout(0.1)
        .crash_at(2, 1)
        .crash_at(7, 3)
        .drop_messages(0.05)
        .garble_replies(0.02)
        .deadline_s(30.0)
        .spare(2)
}

fn adversary_plan() -> AdversaryPlan {
    AdversaryPlan::seeded(0xBAD)
        .poisoners(0.2)
        .poison_strength(2.0)
        .poison_noise(0.25)
}

fn shard_config(hostile: bool) -> ShardConfig {
    ShardConfig {
        shard_index: 1,
        range_start: 8,
        range_end: 16,
        total_clients: 24,
        dataset: if hostile {
            DatasetSpec::Micro {
                len: 640,
                classes: 4,
                dim: 16,
                seed: 21,
            }
        } else {
            DatasetSpec::Cifar {
                len: 512,
                classes: 10,
                seed: 22,
            }
        },
        model: if hostile {
            ModelSpec::TinyMlp {
                inputs: 16,
                hidden: 8,
                outputs: 4,
                seed: 31,
            }
        } else {
            ModelSpec::LeNet5 {
                classes: 10,
                seed: 32,
            }
        },
        init_weights: weights(0.5),
        plan: plan(),
        backend: BackendKind::Tiled,
        codec: CodecKind::Int8,
        workers: 4,
        faults: hostile.then(fault_plan),
        adversaries: hostile.then(adversary_plan),
        devices: (8..16).map(|id| device(hostile, id)).collect(),
    }
}

/// A TrustZone device, or in a hostile fleet every fourth from the second
/// a legacy device and every fourth from the third a compromised one.
fn device(hostile: bool, id: u64) -> DeviceProfile {
    match id % 4 {
        1 if hostile => DeviceProfile::legacy(id),
        2 if hostile => DeviceProfile::compromised(id),
        _ => DeviceProfile::trustzone(id),
    }
}

fn encoded(codec: CodecKind) -> EncodedWeights {
    let base = weights(1.0);
    let mut next = weights(1.0);
    // One large move per wide tensor so top-k has something to keep.
    next.add_scaled(&weights(3.0), 0.01).unwrap();
    let reference = (codec == CodecKind::DeltaTopK).then_some((6, &base));
    encode_weights(codec, 7, &next, reference)
}

/// A shard's reply: a dense term, an int8 term in the form it crossed its
/// client's wire, a straggler and a failure. Only a shard server holds a
/// term in wire form, so the completed outcomes are spelled in bytes.
fn round_reply() -> ShardRoundReply {
    let terms = [
        term_bytes(9, &upload(3), None),
        term_bytes(4, &upload(1), Some(&encoded(CodecKind::Int8))),
    ];
    let mut reply: ShardRoundReply =
        decode(&reply_bytes(&terms)).expect("a dense and a wire-form term decode");
    reply.outcomes.extend([
        ShardOutcome {
            slot: 5,
            client: 6,
            kind: ShardOutcomeKind::Straggler {
                elapsed_s: 31.5,
                cost: cost(6),
            },
        },
        ShardOutcome {
            slot: 7,
            client: 2,
            kind: ShardOutcomeKind::Failed {
                reason: "fault injection: exchange dropped in flight".to_owned(),
            },
        },
    ]);
    reply
}

/// Encodes `msg`, checks the bytes decode back to an equal value, and
/// files the digest under `name`.
fn file<T: Wire + PartialEq + std::fmt::Debug>(
    table: &mut Vec<(&'static str, String)>,
    name: &'static str,
    msg: &T,
) {
    let bytes = encode(msg);
    let back: T = decode(&bytes).unwrap_or_else(|e| panic!("{name} does not decode: {e}"));
    assert_eq!(&back, msg, "{name} did not round-trip");
    let hex = sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect();
    table.push((name, hex));
}

/// Files the framed envelope of `msg` (header + payload — what a socket
/// carries) under `name`.
fn file_framed<T: Wire>(
    table: &mut Vec<(&'static str, String)>,
    name: &'static str,
    kind: MessageKind,
    msg: &T,
) {
    file(table, name, &Envelope::pack(kind, msg));
}

fn digests() -> Vec<(&'static str, String)> {
    let mut t = Vec::new();
    let challenge = Challenge::new([0x5A; 16]);

    // The nine client-plane envelope kinds, framed.
    file_framed(
        &mut t,
        "envelope/hello",
        MessageKind::Hello,
        &Hello::with_codec(CodecKind::Int8),
    );
    file_framed(
        &mut t,
        "envelope/hello_ack",
        MessageKind::HelloAck,
        &HelloAck {
            version: PROTOCOL_VERSION,
            client_id: 12,
            codec: CodecKind::DeltaTopK,
        },
    );
    file_framed(
        &mut t,
        "envelope/attestation_request",
        MessageKind::AttestationRequest,
        &AttestationRequest { challenge },
    );
    file_framed(
        &mut t,
        "envelope/attestation_response",
        MessageKind::AttestationResponse,
        &AttestationResponse {
            quote: Some(quote()),
        },
    );
    file(
        &mut t,
        "envelope/goodbye",
        &Envelope::control(MessageKind::Goodbye),
    );
    file(&mut t, "envelope/error", &Envelope::error("no such round"));
    file_framed(
        &mut t,
        "envelope/encoded_model_download",
        MessageKind::EncodedModelDownload,
        &EncodedModelDownload {
            round: 4,
            weights: encoded(CodecKind::Identity),
            plan: plan(),
            protected_layers: vec![0, 2],
        },
    );
    file_framed(
        &mut t,
        "envelope/encoded_update_upload",
        MessageKind::EncodedUpdateUpload,
        &EncodedUpdateUpload {
            client_id: 3,
            round: 4,
            weights: encoded(CodecKind::Int8),
            num_samples: 64,
            train_loss: 1.25,
            cost: cost(3),
        },
    );

    // The shard-control plane, framed.
    file_framed(
        &mut t,
        "envelope/shard_hello",
        MessageKind::ShardHello,
        &ShardHello {
            version: PROTOCOL_VERSION,
            pid: 4242,
        },
    );
    file_framed(
        &mut t,
        "envelope/shard_hello_ack",
        MessageKind::ShardHelloAck,
        &ShardHelloAck {
            version: PROTOCOL_VERSION,
            shard_index: 1,
        },
    );
    file_framed(
        &mut t,
        "envelope/shard_config_plain",
        MessageKind::ShardConfig,
        &shard_config(false),
    );
    file_framed(
        &mut t,
        "envelope/shard_config_hostile",
        MessageKind::ShardConfig,
        &shard_config(true),
    );
    file_framed(
        &mut t,
        "envelope/shard_config_ack",
        MessageKind::ShardConfigAck,
        &ShardConfigAck { clients: 8 },
    );
    file_framed(
        &mut t,
        "envelope/shard_screen",
        MessageKind::ShardScreen,
        &ShardScreen {
            probes: vec![
                ScreenProbe {
                    local: 2,
                    challenge,
                },
                ScreenProbe {
                    local: 5,
                    challenge: Challenge::new([0x7C; 16]),
                },
            ],
        },
    );
    file_framed(
        &mut t,
        "envelope/shard_screen_reply",
        MessageKind::ShardScreenReply,
        &ShardScreenReply {
            evidence: vec![
                Some(AttestationResponse {
                    quote: Some(quote()),
                }),
                None,
                Some(AttestationResponse { quote: None }),
            ],
        },
    );
    file_framed(
        &mut t,
        "envelope/shard_round",
        MessageKind::ShardRound,
        &ShardRound {
            download: download(),
            picks: vec![0, 3, 7],
            slot_base: 11,
        },
    );
    file_framed(
        &mut t,
        "envelope/shard_round_reply",
        MessageKind::ShardRoundReply,
        &round_reply(),
    );

    // Every building block on its own, so a drift names the leaf-most
    // type that moved rather than every message that contains it.
    file(&mut t, "tensor", &tensor(&[2, 3], -1.0));
    file(&mut t, "model_weights", &weights(1.0));
    file(&mut t, "training_plan", &plan());
    file(&mut t, "challenge", &challenge);
    file(&mut t, "quote", &quote());
    file(
        &mut t,
        "attestation_response/none",
        &AttestationResponse { quote: None },
    );
    file(&mut t, "model_download", &download());
    file(&mut t, "time_breakdown", &cost(1).time);
    file(&mut t, "client_cycle_cost", &cost(1));
    file(
        &mut t,
        "error_reply",
        &ErrorReply {
            reason: "peer reported: résumé".to_owned(),
        },
    );
    file(&mut t, "latency/none", &LatencyModel::None);
    file(&mut t, "latency/fixed", &LatencyModel::Fixed(1.5));
    file(
        &mut t,
        "latency/exponential",
        &LatencyModel::Exponential { mean_s: 3.0 },
    );
    file(&mut t, "fault_plan/quiet", &FaultPlan::seeded(9));
    file(&mut t, "fault_plan/full", &fault_plan());
    file(&mut t, "adversary_plan", &adversary_plan());
    file(&mut t, "dataset_spec/micro", &shard_config(true).dataset);
    file(&mut t, "dataset_spec/cifar", &shard_config(false).dataset);
    file(&mut t, "model_spec/tiny_mlp", &shard_config(true).model);
    file(&mut t, "model_spec/lenet5", &shard_config(false).model);
    let outcomes = [
        "shard_outcome/completed_dense",
        "shard_outcome/completed_int8",
        "shard_outcome/straggler",
        "shard_outcome/failed",
    ];
    for (name, outcome) in outcomes.into_iter().zip(&round_reply().outcomes) {
        file(&mut t, name, outcome);
    }
    file(
        &mut t,
        "encoded_weights/identity",
        &encoded(CodecKind::Identity),
    );
    file(&mut t, "encoded_weights/int8", &encoded(CodecKind::Int8));
    let delta = encoded(CodecKind::DeltaTopK);
    assert_eq!(delta.base_epoch, Some(6), "fixture must ship a delta");
    file(&mut t, "encoded_weights/delta_topk", &delta);
    assert!(matches!(delta.tensors[0].body, EncodedBody::TopK { .. }));
    file(&mut t, "encoded_tensor/sparse", &delta.tensors[0]);
    assert!(matches!(delta.tensors[3].body, EncodedBody::Dense(_)));
    file(&mut t, "encoded_tensor/dense_fallback", &delta.tensors[3]);
    for (name, id) in [
        ("device_profile/trustzone", 8),
        ("device_profile/legacy", 9),
        ("device_profile/compromised", 10),
    ] {
        file(&mut t, name, &device(true, id));
    }
    t
}

/// The digests at the `PROTOCOL_VERSION` the test asserts.
const FROZEN: &[(&str, &str)] = &[
    (
        "envelope/hello",
        "e542000a9183e260888643c9bc83a0c6ca58bc9030b9379004827a913276ac1c",
    ),
    (
        "envelope/hello_ack",
        "4ffce16848b05e6aebd0694aca6fe6d8265d8a00c1aa35fb7313575f0c0a679e",
    ),
    (
        "envelope/attestation_request",
        "0e62301d1692cb8d398a15f99d3333c5bab4e1a72d7f555e40b8aa8499ccda98",
    ),
    (
        "envelope/attestation_response",
        "7f5815d4a0aaabfd2db178a99f2694932f1461a83f285d2e03e38919441ac9c4",
    ),
    (
        "envelope/goodbye",
        "88b360f1be89a248a22593b7d4abc410cac57c14835f98e8d152030308ddfc89",
    ),
    (
        "envelope/error",
        "80d6d033aa5ac16c50d10b3888c4c5d8ec1c1885eb088530a8d52efdd862bc70",
    ),
    (
        "envelope/encoded_model_download",
        "6b1fa0b51730fc7c732c91c87da50c2188634523d8b408b2c54a4b122c1f5ed0",
    ),
    (
        "envelope/encoded_update_upload",
        "13b79c78fd152b36ad2689d3e78b3f71dad6d90f68d5fc34943154891164a491",
    ),
    (
        "envelope/shard_hello",
        "41e840e4da4ebf7448fcb8925eddd94070ba06021d69239eb87864108dba3a6a",
    ),
    (
        "envelope/shard_hello_ack",
        "d3f16614f19d78807f108e5b3c792545d11a16afaedd3f387a2740b9c45452bb",
    ),
    (
        "envelope/shard_config_plain",
        "d29e0f4b4d2d01270a7a1fcf7edea6be0efa5fea5c1c453d6da70449cd86d11b",
    ),
    (
        "envelope/shard_config_hostile",
        "44b89e86f364b46f84a65170710d938743b88df97a37ee7981ac91069e9e5279",
    ),
    (
        "envelope/shard_config_ack",
        "7778cd6d20d11ce1c6379fdd4629030ff4fa7d36d0497d081a11529902e264af",
    ),
    (
        "envelope/shard_screen",
        "4247458e56cc1ba4431dca7cca5a547e3ba4e3286ca7c1a6313134d8ca85b166",
    ),
    (
        "envelope/shard_screen_reply",
        "2bae90e44340f7beabbeb5c09d9cb0d715cc199e60286cc83e204064c3dfec01",
    ),
    (
        "envelope/shard_round",
        "aa0e63467cf09dc43d93cb5a585815d9691184fb8fcfd017f831bf8ee3e6049f",
    ),
    (
        "envelope/shard_round_reply",
        "33c2ce5cb3d6cbaf9346b5467aa77a36f128172ad18c11dab1d1b7ee3c7d88d1",
    ),
    (
        "tensor",
        "e75d232ded4867b28f8c4cb463a219a85fe7f983937dcf0149620e07113e7934",
    ),
    (
        "model_weights",
        "7c53c8a10e944164f494c5e49292c0ef70434c8a511bfd1e0d510fb014ee444e",
    ),
    (
        "training_plan",
        "94c629331026bef79eddbf1145df7b5b9645ddad381928adc186454b22c4fb83",
    ),
    (
        "challenge",
        "1c712ecc21e27e374111d5a1beeaf75a4e343b3814c1847cba14013420809873",
    ),
    (
        "quote",
        "cebfd4e7716f23e7899365819cf9fb6514df501c909bec1423414493885861e2",
    ),
    (
        "attestation_response/none",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ),
    (
        "model_download",
        "01e1d32f7f123acd0deaac95d3812e2f02415e63fc51a93493760395ce46f8c7",
    ),
    (
        "time_breakdown",
        "fd08118688c2bd001ea46ac6b711961e7e35a79b5b05ca0def4ae35b3b884072",
    ),
    (
        "client_cycle_cost",
        "26232a15b87fa9315ba773531541345c202c74f61006334d71d88bb40b18a523",
    ),
    (
        "error_reply",
        "af418296db903c7362a457b9720a5d4fc97071381b9b71148eacc1c586ccabd0",
    ),
    (
        "latency/none",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ),
    (
        "latency/fixed",
        "7d83d0304bdc2d2296626dcdb3004bb3b52ce89b95bf37153bfc53ba9604dbf8",
    ),
    (
        "latency/exponential",
        "cf37c2a98acbf5ea19e9b2341363fa04919bc3350bf9e3d6ea9ad70ee033dea7",
    ),
    (
        "fault_plan/quiet",
        "e708bf61b0126911609ba8bef61ae2a0ee746bd447394f58341752f913716f16",
    ),
    (
        "fault_plan/full",
        "c9535edcd9468f3cbe344b5f96878b5bf3501e21476b49c1bf3ca3d2d48c91f5",
    ),
    (
        "adversary_plan",
        "d7f340b0aef4993c69dc3994b0638482c8c762a91bb037f5c694a3faa2b1934d",
    ),
    (
        "dataset_spec/micro",
        "9beb05763c8eb83b309de92193f13b9a8b88356c38e981572025f8e0a924033e",
    ),
    (
        "dataset_spec/cifar",
        "13239578b812a7c86409e73aec7e40a86ff8d330d60de80320fc0c392e595706",
    ),
    (
        "model_spec/tiny_mlp",
        "5ecd6a73e9222d94c05a730370c0c2fb1930b98eca41a4dde85a49014eaf86e2",
    ),
    (
        "model_spec/lenet5",
        "59cf9e447fcbf41a76b375bfac7461fd9c10d19be2d0c2db27c9335852091a14",
    ),
    (
        "shard_outcome/completed_dense",
        "efd48386ec7722636bbb4c3197e2abcf9014657831c763a8a77e69328c03382d",
    ),
    (
        "shard_outcome/completed_int8",
        "097aab52a596a3e5cfc6c68f2a081721219a2b4ad514c6315298527e38fae497",
    ),
    (
        "shard_outcome/straggler",
        "4ee3ecb40c008b45c9e0e13714b98ebd690b562d2266f1354a1319f6d5042361",
    ),
    (
        "shard_outcome/failed",
        "e993fdb9045a81a435971bba76f04c44380398f8f8ae70d1270a976f114ad43e",
    ),
    (
        "encoded_weights/identity",
        "399e7ad6e752f585b079e5d49af758fc1d9c5bde968d3ccc44e481b24618c5df",
    ),
    (
        "encoded_weights/int8",
        "22056d73c6d7de7f6bfdc7082d1c461064d8f38e7231d2530117bb72ae40d416",
    ),
    (
        "encoded_weights/delta_topk",
        "ea6c8cd3c72ed96011e105276997a59097d3a4b215e985d4b5e14a6cb4d897ed",
    ),
    (
        "encoded_tensor/sparse",
        "93401a2bca72f1946512cd116984c7c4935e822e4d8e195cc57afd79c996ec88",
    ),
    (
        "encoded_tensor/dense_fallback",
        "4c130f70d4924d08583ad6cd84011d80e8d157765e5dfb4eb2a55710930e53f6",
    ),
    (
        "device_profile/trustzone",
        "eca30ef1921f3a44424add21da27d3f0102be660fd5e07c95ad1955162bc758c",
    ),
    (
        "device_profile/legacy",
        "0acbaa9eb0c94f998f2efb69cd03af71295afd1571feb3c527283b97a419b335",
    ),
    (
        "device_profile/compromised",
        "aa7e2f593927f60969f5c1cc4681e7ef5392501cd92e1df65f09b1c5fd36ea70",
    ),
];

#[test]
fn every_wire_type_keeps_its_frozen_layout() {
    assert_eq!(PROTOCOL_VERSION, 16, "a new version re-captures the table");
    let actual = digests();
    let moved: Vec<&str> = actual
        .iter()
        .enumerate()
        .filter(|(i, (name, hex))| FROZEN.get(*i) != Some(&(*name, hex.as_str())))
        .map(|(_, (name, _))| *name)
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, hex)| format!("    (\"{name}\", \"{hex}\"),\n"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == FROZEN.len(),
        "wire layout drifted for {moved:?}; the encoders now produce:\n{table}"
    );
}
