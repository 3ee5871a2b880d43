//! The wire layout is frozen: one fixed instance of every [`Wire`] type,
//! encoded and compared against a SHA-256 digest of the bytes protocol
//! version 7 has always produced.
//!
//! Any change to how a leaf, a list, an optional or a tagged enum is
//! laid out — or to a message's field order — fails here by name. A
//! deliberate layout change bumps `PROTOCOL_VERSION` and re-captures the
//! table (the failure message prints the new digests). Version 7 moved
//! only what it meant to: every `envelope/*` (the version stamp),
//! `encoded_weights/delta_topk` and `encoded_tensor/sparse` (gap-coded
//! indices); the other thirty digests are still the ones captured from
//! version 6's hand-written encoders.

use gradsec_fl::adversary::AdversaryPlan;
use gradsec_fl::aggregate::PartialAggregate;
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
use gradsec_tee::cost::{ClientCycleCost, RoundLedger, TimeBreakdown, WireBill};
use gradsec_tee::crypto::sha256::sha256;
use gradsec_tee::ta::Uuid;
use gradsec_tee::tiop::Frame;
use gradsec_tensor::Tensor;

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
        .client_latency(
            8,
            LatencyModel::Uniform {
                min_s: 0.25,
                max_s: 2.0,
            },
        )
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
        .scalers(0.1)
        .free_riders(0.05)
        .colluders(0.15)
        .poison_strength(2.0)
        .poison_noise(0.25)
        .scale_boost(4.0)
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
        backend: "tiled".to_owned(),
        codec: "int8".to_owned(),
        workers: 4,
        measurement: Measurement([0xE5; 32]),
        faults: hostile.then(fault_plan),
        partition: if hostile { "by-label" } else { "iid" }.to_owned(),
        adversaries: hostile.then(adversary_plan),
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

fn round_reply() -> ShardRoundReply {
    let mut partial = PartialAggregate::new();
    partial.push(9, upload(3));
    partial.push(4, upload(1));
    let mut ledger = RoundLedger::new();
    ledger.record(cost(3));
    ledger.record(cost(1));
    ledger.record(ClientCycleCost::unbilled(6));
    ShardRoundReply {
        partial,
        others: vec![
            ShardOutcome {
                slot: 5,
                client: 6,
                kind: ShardOutcomeKind::Straggler { elapsed_s: 31.5 },
            },
            ShardOutcome {
                slot: 7,
                client: 2,
                kind: ShardOutcomeKind::Failed {
                    reason: "fault injection: exchange dropped in flight".to_owned(),
                },
            },
        ],
        ledger,
    }
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
    let frame = Frame {
        seq: 17,
        ciphertext: (0u8..40).collect(),
        mac: vec![0x6B; 32],
    };
    file_framed(&mut t, "envelope/sealed", MessageKind::Sealed, &frame);
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
    file(&mut t, "update_upload", &upload(9));
    file(&mut t, "time_breakdown", &cost(1).time);
    file(&mut t, "client_cycle_cost", &cost(1));
    file(
        &mut t,
        "error_reply",
        &ErrorReply {
            reason: "peer reported: résumé".to_owned(),
        },
    );
    file(&mut t, "frame", &frame);
    file(&mut t, "latency/none", &LatencyModel::None);
    file(&mut t, "latency/fixed", &LatencyModel::Fixed(1.5));
    file(
        &mut t,
        "latency/uniform",
        &LatencyModel::Uniform {
            min_s: 0.25,
            max_s: 2.0,
        },
    );
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
    for outcome in &round_reply().others {
        let name = match outcome.kind {
            ShardOutcomeKind::Straggler { .. } => "shard_outcome/straggler",
            ShardOutcomeKind::Failed { .. } => "shard_outcome/failed",
        };
        file(&mut t, name, outcome);
    }
    file(&mut t, "partial_aggregate", &round_reply().partial);
    file(&mut t, "round_ledger", &round_reply().ledger);
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
    t
}

/// Protocol version 7 (see the module comment for what moved from 6).
const FROZEN: &[(&str, &str)] = &[
    (
        "envelope/hello",
        "f8d621422a9e77332af64b42406155e2df8bacacedf498fb1f9ae79f678409da",
    ),
    (
        "envelope/hello_ack",
        "e96cdb7cc4e0a6f87becc670396bfd1f83b654068f17dc89708c73f29e6133ee",
    ),
    (
        "envelope/attestation_request",
        "1b5ff805378c425064596ebb609e86a57e6911a4b8815ad452e520565cd01e8b",
    ),
    (
        "envelope/attestation_response",
        "fccb55ee1a17921b24439a6f6eafcb37641a36badf63d46498b1544a88206b0a",
    ),
    (
        "envelope/goodbye",
        "967abdf9a47cdc8d6d894d25ab8d1317115046e755c119f65f4ffd74ac3d5a48",
    ),
    (
        "envelope/error",
        "e667756c5469c600479f9dc6a015eacf6324fbd0a4e130e03f241a9eb280472e",
    ),
    (
        "envelope/sealed",
        "2524bdf833253edd136cc029259dfc6367446e769224fa7b54a34e57d9380ae1",
    ),
    (
        "envelope/encoded_model_download",
        "61b64e5f5fd29f072cf6535abe995b7bc1bbb86813a82d47db81c2511539c04c",
    ),
    (
        "envelope/encoded_update_upload",
        "ac78e0eb19b4fde4e42f826672b985741e6affc5e71a6e24f988467eef6a7c86",
    ),
    (
        "envelope/shard_hello",
        "5e82ff6e5c124e99e4bb2389803082817a7c834a8bdd07a9076f10fa07de8a9d",
    ),
    (
        "envelope/shard_hello_ack",
        "801aaeb35757c361c99b8c9e6550c25fc4774388944b257e3e54e2acf3cef599",
    ),
    (
        "envelope/shard_config_plain",
        "c632f401b9868481599cf2367b0f401030794d92f82af6b852cffb4cf2b5fbb5",
    ),
    (
        "envelope/shard_config_hostile",
        "f4dafe6ee09a397f4742a50441432b2a7583e9c7dd9096cbb8b810129e20873f",
    ),
    (
        "envelope/shard_config_ack",
        "bb5cc17f6f665ccbddab39aee091df1f25276055d26fc9e48a8670518f340aae",
    ),
    (
        "envelope/shard_screen",
        "d52debd50d3bb9cbd032578a53b1cd74832b4859fc4c9d121b3a7cf3e1c90468",
    ),
    (
        "envelope/shard_screen_reply",
        "f710bf1ea5a0c94821c551c3d140d2314593a51fa054e73b374127db8a7bfdd8",
    ),
    (
        "envelope/shard_round",
        "05150de328a80d8425ab2ae9200f5f9d976003a0386639193dad4c2911243783",
    ),
    (
        "envelope/shard_round_reply",
        "3b265abfe52472afb359e0eeeef94f4600feae2e2508250d96a94b4c147cc9fe",
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
        "update_upload",
        "ca2ede42d660fae2938dbaf2bdc2f58f737b9c769a52741de817588f261e0c2e",
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
        "frame",
        "9e825c0eff0564e81e315b41526d4cc9dff764c4546f2f26474075506946c92f",
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
        "latency/uniform",
        "d2ecc4fd460d14555176d0a9a5bb50e38510a23700a6c27c1a721e9512c609f7",
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
        "d27491c31ab5da83bf038701141701c7416a1ba72b1f039442745a70ad5f3faa",
    ),
    (
        "adversary_plan",
        "f1b0211d6c324ade7152c366d02f090b8e3c924bb493178cfab838440b7f320d",
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
        "shard_outcome/straggler",
        "6b15219b216ea503b36cdf4816b74b68a407cecd105c293fe84a4cbe5ab46ce7",
    ),
    (
        "shard_outcome/failed",
        "9947f821c08f994d975e78deb2c58e9a7c127e2f04a8c1e149aee79dee0b094f",
    ),
    (
        "partial_aggregate",
        "b02e63e667f6043f03a1c5a1566a61d1df6392c6ed1825ce61d297fdcb18d26c",
    ),
    (
        "round_ledger",
        "76629221e1f2353b2cc0be9a98209d0866ee37019007f582edc222e9f10f5ec5",
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
];

#[test]
fn every_wire_type_keeps_its_frozen_layout() {
    assert_eq!(PROTOCOL_VERSION, 7, "a new version re-captures the table");
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
