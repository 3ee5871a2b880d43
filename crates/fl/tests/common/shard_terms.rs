//! A shard term's bytes (laid out so since protocol version 13), for the
//! wire tests. A `ShardRoundReply` is one list of slot-tagged outcomes; a
//! completed one tags its term's weights — `0` and a dense model, or `1`
//! and the self-contained payload its client sent — and only a shard
//! server holds a term in wire form, so a test that needs one spells it
//! in bytes. Included by each test binary with `#[path]`.

#![allow(dead_code)]

use gradsec_fl::codec::EncodedWeights;
use gradsec_fl::message::{encode, UpdateUpload};

/// Offset of a term's weights tag in its outcome's bytes: slot, client,
/// the outcome tag, then the term's client and round.
pub const WEIGHTS_TAG_AT: usize = 8 + 8 + 1 + 8 + 8;

/// One completed outcome's bytes: the slot, the client, the completed
/// tag `0`, then `upload`'s fields with the weights tag in front of its
/// weights — `0` and the dense model, or `1` and `wire`, the payload as
/// it crossed the client's wire.
pub fn term_bytes(slot: usize, upload: &UpdateUpload, wire: Option<&EncodedWeights>) -> Vec<u8> {
    let mut bytes = encode(&slot);
    bytes.extend(encode(&upload.client_id));
    bytes.push(0);
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

/// A `ShardRoundReply`'s bytes: the outcome count, then `outcomes`.
pub fn reply_bytes(outcomes: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = encode(&outcomes.len());
    outcomes.iter().for_each(|o| bytes.extend(o));
    bytes
}
