//! A shard term's bytes (laid out so since protocol version 8), for the
//! wire tests. A `ShardRoundReply` term tags its weights — `0` and a
//! dense model, or `1` and the self-contained payload its client sent —
//! and only a shard server holds a term in wire form, so a test that
//! needs one spells it in bytes. Included by each test binary with
//! `#[path]`.

#![allow(dead_code)]

use gradsec_fl::codec::EncodedWeights;
use gradsec_fl::message::{encode, UpdateUpload};
use gradsec_tee::cost::RoundLedger;

/// One `PartialAggregate` term's bytes: the slot, then `upload`'s fields
/// with the weights tag in front of its weights — `0` and the dense model,
/// or `1` and `wire`, the payload as it crossed the client's wire.
pub fn term_bytes(slot: usize, upload: &UpdateUpload, wire: Option<&EncodedWeights>) -> Vec<u8> {
    let mut bytes = encode(&slot);
    bytes.extend(encode(&upload.client_id));
    bytes.extend(encode(&upload.round));
    match wire {
        None => {
            bytes.push(0);
            bytes.extend(encode(&upload.weights));
        }
        Some(enc) => {
            bytes.push(1);
            bytes.extend(encode(enc));
        }
    }
    bytes.extend(encode(&upload.num_samples));
    bytes.extend(encode(&upload.train_loss));
    bytes.extend(encode(&upload.cost));
    bytes
}

/// A `PartialAggregate`'s bytes: the term count, then `terms`.
pub fn partial_bytes(terms: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = encode(&terms.len());
    terms.iter().for_each(|t| bytes.extend(t));
    bytes
}

/// A `ShardRoundReply`'s bytes: `terms`, no straggler or failure, `ledger`.
pub fn reply_bytes(terms: &[Vec<u8>], ledger: &RoundLedger) -> Vec<u8> {
    let mut bytes = partial_bytes(terms);
    bytes.extend(encode(&0usize));
    bytes.extend(encode(ledger));
    bytes
}
