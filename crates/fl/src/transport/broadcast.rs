//! The round's download as a broadcast.
//!
//! The server ships *one* global model to every selected client (Figure
//! 2-➋), so the server half of a download — codec encode, the delta
//! codec's mirror decode, the two billing counts and the packed frame —
//! is the same work for every session that stands at the same point of
//! its history. A [`Broadcast`] is that work memoised for one round:
//! sessions with the same codec, the same epoch counter and the *same
//! allocation* as their committed reference view form a group, the first
//! member to arrive builds the group's [`Payload`], and the others reuse
//! it. A session whose history diverged (a failed cycle, a
//! [`BASE_MISMATCH`](crate::codec::BASE_MISMATCH) retry, another attempt
//! count) keys differently and is a group of one — which is also all
//! [`RemoteClient::train`](super::RemoteClient::train) is.
//!
//! It is a pure memo of a pure function of `(download, codec, epoch,
//! base view)`: owned by the `execute` call that fans the round out,
//! shared by reference with its workers, dropped with the round. Only the
//! views the sessions commit outlive it. Every member sends the group's
//! one frame as it lies here: an endpoint's `begin` borrows its request
//! ([`ServerEndpoint::begin`](super::ServerEndpoint::begin)), so no
//! member copies it.
//!
//! The client half is memoised the same way, by the fleet's store
//! (`client::ClientModels`): clients that hold the same view allocation
//! and receive the same frame bytes — the group's members, seen from the
//! other side — open, check and decode it once between them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use gradsec_nn::model::ModelWeights;

use crate::codec::{decode_weights, dense_wire_bytes, encode_weights, CodecKind};
use crate::message::{EncodedModelDownload, Envelope, MessageKind, ModelDownload};
use crate::Result;

/// A session's committed reference view for the delta codec: the epoch
/// that stamped it and the decoded model, shared by every session that
/// committed it out of the same broadcast group.
pub(super) type View = (u64, Arc<ModelWeights>);

/// What every member of one group sends and bills.
pub(super) struct Payload {
    /// The packed `EncodedModelDownload`, which every member sends.
    pub(super) frame: Envelope,
    /// The download's encoded-bytes billing column.
    pub(super) encoded_bytes: u64,
    /// The model the client will hold after decoding the frame — the
    /// reference its upload is coded against and, once it replies, the
    /// session's next view. Only the delta codec keeps one.
    pub(super) view_next: Option<Arc<ModelWeights>>,
}

/// `(codec, epoch, base view's epoch and address)`.
type GroupKey = (CodecKind, u64, Option<(u64, usize)>);

struct Group {
    /// Keeps the base view alive while its address is a key, so no later
    /// allocation of this round can be mistaken for it.
    base: Option<View>,
    payload: OnceLock<Result<Arc<Payload>>>,
}

/// One round's download, memoised per group of sessions (see the module
/// docs).
pub(crate) struct Broadcast<'a> {
    pub(crate) download: &'a ModelDownload,
    /// The raw-bytes billing column, the same for every group.
    pub(super) raw_bytes: u64,
    groups: Mutex<HashMap<GroupKey, Arc<Group>>>,
    #[cfg(test)]
    encodes: std::sync::atomic::AtomicUsize,
}

impl<'a> Broadcast<'a> {
    pub(crate) fn new(download: &'a ModelDownload) -> Self {
        Broadcast {
            download,
            raw_bytes: dense_wire_bytes(&download.weights),
            groups: Mutex::default(),
            #[cfg(test)]
            encodes: Default::default(),
        }
    }

    /// How many payloads this broadcast has built — one per group.
    #[cfg(test)]
    pub(crate) fn encodes(&self) -> usize {
        self.encodes.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The payload for a session at `epoch` whose committed view is
    /// `base`: built by the group's first caller (the others block on it,
    /// then share it).
    ///
    /// # Errors
    ///
    /// The mirror decode's failure, handed to every member of the group.
    pub(super) fn payload(
        &self,
        codec: CodecKind,
        epoch: u64,
        base: Option<&View>,
    ) -> Result<Arc<Payload>> {
        let key = (
            codec,
            epoch,
            base.map(|(e, w)| (*e, Arc::as_ptr(w) as usize)),
        );
        let group = Arc::clone(
            self.groups
                .lock()
                .expect("nothing panics while holding the group map")
                .entry(key)
                .or_insert_with(|| {
                    Arc::new(Group {
                        base: base.cloned(),
                        payload: OnceLock::new(),
                    })
                }),
        );
        group
            .payload
            .get_or_init(|| self.build(codec, epoch, group.base.as_ref()))
            .clone()
    }

    fn build(&self, codec: CodecKind, epoch: u64, base: Option<&View>) -> Result<Arc<Payload>> {
        #[cfg(test)]
        self.encodes
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let download = self.download;
        let encoded = encode_weights(
            codec,
            epoch,
            &download.weights,
            base.map(|(e, w)| (*e, &**w)),
        );
        // The client trains on the *decoded* model, so for delta commits
        // the server must mirror that decode (lossy codecs make it differ
        // from `download.weights`). Only the delta codec needs the mirror.
        let view_next = if codec == CodecKind::DeltaTopK {
            let decoded = decode_weights(&encoded, base.map(|(_, w)| &**w))?;
            Some(Arc::new(decoded))
        } else {
            None
        };
        // The raw column is the dense payload size; Identity's body IS
        // that payload bit-for-bit (its codec envelope is constant
        // per-message overhead, not payload), so it bills the two
        // columns equal and reports a ratio of exactly 1.
        let encoded_bytes = if codec == CodecKind::Identity {
            self.raw_bytes
        } else {
            encoded.wire_bytes()
        };
        let frame = Envelope::pack(
            MessageKind::EncodedModelDownload,
            &EncodedModelDownload {
                round: download.round,
                weights: encoded,
                plan: download.plan,
                protected_layers: download.protected_layers.clone(),
            },
        );
        Ok(Arc::new(Payload {
            frame,
            encoded_bytes,
            view_next,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::config::TrainingPlan;
    use crate::message::{ArrivedUpload, UpdateUpload};
    use crate::trainer::PlainSgdTrainer;
    use crate::transport::inprocess::LocalEndpoint;
    use crate::transport::{RemoteClient, ServerEndpoint};
    use crate::FlError;
    use gradsec_data::SyntheticMicro;
    use gradsec_nn::zoo;

    /// What a [`Scripted`] endpoint does to its n-th training exchange.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        /// The request never reaches the client: neither side commits.
        DropRequest,
        /// The client trains and commits, the reply arrives truncated: the
        /// server withholds its commit, so the views part.
        GarbleReply,
    }

    struct Scripted {
        inner: LocalEndpoint,
        script: Vec<(usize, Fault)>,
        downloads: usize,
        garble: bool,
    }

    impl ServerEndpoint for Scripted {
        fn begin(&mut self, request: &Envelope) -> Result<bool> {
            self.garble = false;
            if request.kind == MessageKind::EncodedModelDownload {
                let nth = self.downloads;
                self.downloads += 1;
                let fault = self.script.iter().find(|(at, _)| *at == nth).map(|s| s.1);
                if fault == Some(Fault::DropRequest) {
                    return Err(FlError::disconnected("scripted drop"));
                }
                self.garble = fault == Some(Fault::GarbleReply);
            }
            self.inner.begin(request)
        }

        fn finish(&mut self) -> Result<Envelope> {
            let mut reply = self.inner.finish()?;
            if self.garble {
                reply.payload.truncate(reply.payload.len() / 2);
            }
            Ok(reply)
        }

        fn notify(&mut self, message: Envelope) -> Result<()> {
            self.inner.notify(message)
        }

        fn descriptor(&self) -> String {
            "scripted".to_owned()
        }
    }

    /// Three delta-topk sessions: 0 healthy, 1 loses a reply on its second
    /// exchange, 2 loses a request on its second exchange.
    fn fleet() -> Vec<RemoteClient> {
        let scripts = [
            vec![],
            vec![(1, Fault::GarbleReply)],
            vec![(1, Fault::DropRequest)],
        ];
        let ds = Arc::new(SyntheticMicro::new(24, 2, 64, 1));
        scripts
            .into_iter()
            .zip(0u64..)
            .map(|(script, id)| {
                let client = FlClient::new(
                    id,
                    DeviceProfile::trustzone(id),
                    ds.clone(),
                    (0..24).collect(),
                    zoo::tiny_mlp(64, 16, 2, 1).unwrap(),
                    Box::new(PlainSgdTrainer),
                );
                let endpoint = Scripted {
                    inner: LocalEndpoint::new(client),
                    script,
                    downloads: 0,
                    garble: false,
                };
                RemoteClient::connect_with(Box::new(endpoint), CodecKind::DeltaTopK).unwrap()
            })
            .collect()
    }

    fn comparable(result: Result<UpdateUpload>) -> std::result::Result<UpdateUpload, String> {
        result.map_err(|e| e.to_string())
    }

    #[test]
    fn diverged_sessions_get_their_own_payload_and_the_per_client_result() {
        let mut shared = fleet();
        let mut alone = fleet();
        let mut download = ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(64, 16, 2, 1).unwrap().weights(),
            plan: TrainingPlan {
                batches_per_cycle: 1,
                batch_size: 4,
                ..TrainingPlan::default()
            },
            protected_layers: vec![],
        };
        let mut encodes = Vec::new();
        // Per round, what each member's download was billed (0: failed).
        let mut billed = Vec::new();
        for round in 0..4 {
            download.round = round;
            let broadcast = Broadcast::new(&download);
            let mut next = None;
            let mut bills = Vec::new();
            for (member, single) in shared.iter_mut().zip(&mut alone) {
                let got = comparable(
                    member
                        .train_begin(&broadcast)
                        .and_then(|(sent, _)| member.train_finish(&broadcast, sent))
                        .map(ArrivedUpload::expand),
                );
                assert_eq!(got, comparable(single.train(&download)), "round {round}");
                let bill = got.as_ref().map(|u| u.cost.wire.download_encoded_bytes);
                bills.push(bill.unwrap_or(0));
                next = next.or(got.ok());
            }
            encodes.push(broadcast.encodes());
            billed.push(bills);
            download.weights = next.expect("client 0 never fails").weights;
        }
        // Rounds 0 and 1: everyone in lockstep (the faults strike *during*
        // round 1). Round 2: client 0 moved on to the round-1 view; 1 and 2
        // still stand on the round-0 view at the same epoch and share one
        // delta — which client 2 accepts and client 1, having committed
        // round 1 alone, refuses with BASE_MISMATCH, so it is re-sent dense
        // from a group of its own. Round 3: three histories, three groups.
        assert_eq!(encodes, [1, 1, 3, 3]);
        // Client 1's round 2 put two frames on the wire and is billed for
        // both: the delta it refused (the one client 2 accepted) and the
        // dense re-send (the size of anyone's first download).
        assert_eq!(billed[2][1], billed[2][2] + billed[0][1]);
        assert!(billed[2][2] * 3 <= billed[0][1], "{billed:?}");
        assert!(!shared[0].shares_view_with(&shared[1]));
        assert!(!shared[1].shares_view_with(&shared[2]));
    }
}
