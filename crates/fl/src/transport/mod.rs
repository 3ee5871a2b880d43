//! Pluggable transports for the federation round exchange.
//!
//! The paper's protocol (Figure 2 ➊–➍) is a strict request/response
//! pattern: the server initiates every exchange, the client answers. This
//! module lifts that pattern onto a narrow byte-level seam so one protocol
//! implementation serves every deployment scenario:
//!
//! * [`ServerEndpoint`] — the server's handle to one client: send an
//!   [`Envelope`], block for the reply envelope.
//! * [`ClientEndpoint`] — the client's side: block for the next request,
//!   send the reply.
//!
//! Four backends implement the seam:
//!
//! * [`inprocess::LocalEndpoint`] — in-process dispatch, zero-copy in
//!   flight (the envelope is moved between endpoints, never re-buffered;
//!   each side pays the codec once, as on every transport); the default,
//!   and bit-identical to the pre-transport direct-call federation.
//! * [`inprocess::channel_pair`] — a channel-backed duplex for client
//!   service threads inside one process.
//! * [`tcp`] — the same envelopes over real sockets, the envelope header
//!   doubling as the length-prefixed frame; one blocking service thread
//!   per client session.
//! * [`mux`] — the same sockets, but client sessions multiplexed onto a
//!   small fixed pool of event-loop threads via nonblocking readiness
//!   polling ([`poller`]) — the fan-in shape for tens of thousands of
//!   sessions on one host.
//!
//! [`sealed`] wraps any of the four in the trusted I/O path
//! (`gradsec-tee::tiop`), sealing exactly the bytes that cross the wire.
//!
//! Above the byte seam sit the two protocol roles: [`RemoteClient`] (the
//! server's typed view of a client behind any endpoint, beginning with the
//! [`Hello`]/[`HelloAck`] version-check-and-codec handshake) and [`ClientHandler`] /
//! [`ClientSession`] (the client-side request dispatcher and its serve
//! loop). The server half of a round's download — encode, mirror decode,
//! billing, framing — is memoised per group of lockstep sessions by the
//! crate-private `broadcast` module.

pub(crate) mod broadcast;
pub mod inprocess;
pub mod mux;
pub mod poller;
pub mod sealed;
pub mod tcp;

use std::sync::Arc;

use gradsec_nn::model::ModelWeights;
use gradsec_tee::attestation::Challenge;
use gradsec_tee::cost::WireBill;

use self::broadcast::{Broadcast, View};
use crate::client::{DeviceProfile, FlClient};
use crate::codec::{decode_weights, dense_wire_bytes, encode_weights, CodecKind, BASE_MISMATCH};
use crate::message::{
    check_version, AttestationRequest, AttestationResponse, EncodedModelDownload,
    EncodedUpdateUpload, Envelope, Hello, HelloAck, MessageKind, ModelDownload, UpdateUpload, Wire,
    PROTOCOL_VERSION,
};
use crate::{FlError, Result};

/// The server's byte-level handle to one client.
///
/// Implementations deliver a request envelope and block until the
/// client's reply envelope arrives (the protocol is strictly
/// request/response, so no reordering can occur within one endpoint).
pub trait ServerEndpoint: Send {
    /// Sends `request` and blocks for the reply.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying pipe fails and
    /// [`FlError::Protocol`] on framing violations.
    fn exchange(&mut self, request: Envelope) -> Result<Envelope>;

    /// Sends `message` without waiting for a reply (session teardown).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying pipe fails.
    fn notify(&mut self, message: Envelope) -> Result<()>;

    /// A human-readable description of the peer ("in-process",
    /// "tcp:127.0.0.1:40812", …) for error context.
    fn descriptor(&self) -> String;
}

/// The client's byte-level side of the exchange.
pub trait ClientEndpoint: Send {
    /// Blocks for the next request envelope.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying pipe fails and
    /// [`FlError::Protocol`] on framing violations.
    fn recv(&mut self) -> Result<Envelope>;

    /// Sends a reply envelope.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying pipe fails.
    fn send(&mut self, reply: Envelope) -> Result<()>;

    /// A human-readable description of the peer, for error context.
    fn descriptor(&self) -> String;
}

impl ServerEndpoint for Box<dyn ServerEndpoint> {
    fn exchange(&mut self, request: Envelope) -> Result<Envelope> {
        (**self).exchange(request)
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        (**self).notify(message)
    }

    fn descriptor(&self) -> String {
        (**self).descriptor()
    }
}

/// The client-side protocol logic, independent of any transport: decodes
/// request envelopes, drives the wrapped [`FlClient`], encodes replies.
///
/// Failures never tear the session down silently — they are reported back
/// to the server as [`MessageKind::Error`] envelopes, so the server's
/// round logic can decide what a failed client costs.
pub struct ClientHandler {
    client: FlClient,
    /// The update codec the hello negotiated (None before a handshake).
    codec: Option<CodecKind>,
    /// The delta codec's committed reference view: the last downloaded
    /// model this client both trained on and successfully replied to,
    /// keyed by the server's epoch stamp.
    view: Option<(u64, ModelWeights)>,
}

impl std::fmt::Debug for ClientHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientHandler")
            .field("client", &self.client.id())
            .field("codec", &self.codec)
            .finish()
    }
}

impl ClientHandler {
    /// Wraps a client.
    pub fn new(client: FlClient) -> Self {
        ClientHandler {
            client,
            codec: None,
            view: None,
        }
    }

    /// The wrapped client.
    pub fn client(&self) -> &FlClient {
        &self.client
    }

    /// Mutable access to the wrapped client (tests inject failures here).
    pub fn client_mut(&mut self) -> &mut FlClient {
        &mut self.client
    }

    /// Unwraps the client.
    pub fn into_client(self) -> FlClient {
        self.client
    }

    /// Handles one request, returning the reply — or `None` for
    /// [`MessageKind::Goodbye`], which ends the session without a reply.
    pub fn handle(&mut self, request: Envelope) -> Option<Envelope> {
        if request.kind == MessageKind::Goodbye {
            return None;
        }
        Some(self.reply_to(request))
    }

    fn reply_to(&mut self, request: Envelope) -> Envelope {
        if let Err(e) = check_version("peer envelope", request.version) {
            return Envelope::error(e.to_string());
        }
        match request.kind {
            MessageKind::Hello => self.handle_hello(&request),
            MessageKind::AttestationRequest => {
                match request.open::<AttestationRequest>(MessageKind::AttestationRequest) {
                    Ok(req) => Envelope::pack(
                        MessageKind::AttestationResponse,
                        &self.client.attest(&req.challenge),
                    ),
                    Err(e) => Envelope::error(format!("malformed attestation request: {e}")),
                }
            }
            MessageKind::EncodedModelDownload => {
                match request.open::<EncodedModelDownload>(MessageKind::EncodedModelDownload) {
                    Ok(download) => self.handle_encoded_download(download),
                    Err(e) => Envelope::error(format!("malformed encoded download: {e}")),
                }
            }
            other => Envelope::error(format!("unexpected request kind {other:?}")),
        }
    }

    /// The training exchange: decode the download through the session
    /// codec, train, and reply with the update encoded the same way. The
    /// reference view for delta rounds commits only on the success path,
    /// mirroring the server's commit rule, so a failed cycle leaves both
    /// sides on the old base.
    fn handle_encoded_download(&mut self, download: EncodedModelDownload) -> Envelope {
        let codec = self.codec.unwrap_or(download.weights.codec);
        let reference = match download.weights.base_epoch {
            Some(base) => match &self.view {
                Some((epoch, weights)) if *epoch == base => Some(weights),
                _ => {
                    return Envelope::error(format!(
                        "{BASE_MISMATCH}: server referenced epoch {base} but this \
                         client holds {:?}",
                        self.view.as_ref().map(|(e, _)| *e)
                    ))
                }
            },
            None => None,
        };
        let weights = match decode_weights(&download.weights, reference) {
            Ok(w) => w,
            Err(e) => return Envelope::error(format!("malformed encoded download: {e}")),
        };
        let epoch = download.weights.epoch;
        let plain = ModelDownload {
            round: download.round,
            weights,
            plan: download.plan,
            protected_layers: download.protected_layers,
        };
        match self.client.run_cycle(&plain) {
            Ok(upload) => {
                let encoded =
                    encode_weights(codec, epoch, &upload.weights, Some((epoch, &plain.weights)));
                if codec == CodecKind::DeltaTopK {
                    self.view = Some((epoch, plain.weights));
                }
                Envelope::pack(
                    MessageKind::EncodedUpdateUpload,
                    &EncodedUpdateUpload {
                        client_id: upload.client_id,
                        round: upload.round,
                        weights: encoded,
                        num_samples: upload.num_samples,
                        train_loss: upload.train_loss,
                        cost: upload.cost,
                    },
                )
            }
            Err(e) => Envelope::error(format!("training cycle failed: {e}")),
        }
    }

    fn handle_hello(&mut self, request: &Envelope) -> Envelope {
        let hello = match request.open::<Hello>(MessageKind::Hello) {
            Ok(h) => h,
            Err(e) => return Envelope::error(format!("malformed hello: {e}")),
        };
        if let Err(e) = check_version("server", hello.version) {
            return Envelope::error(e.to_string());
        }
        self.codec = Some(hello.codec);
        Envelope::pack(
            MessageKind::HelloAck,
            &HelloAck {
                version: PROTOCOL_VERSION,
                client_id: self.client.id(),
                codec: hello.codec,
            },
        )
    }
}

/// A [`ClientHandler`] bound to a [`ClientEndpoint`]: the serve loop a
/// client device runs (typically on its own thread or process).
pub struct ClientSession<E: ClientEndpoint> {
    handler: ClientHandler,
    endpoint: E,
}

impl<E: ClientEndpoint> ClientSession<E> {
    /// Binds a client to its endpoint.
    pub fn new(client: FlClient, endpoint: E) -> Self {
        ClientSession {
            handler: ClientHandler::new(client),
            endpoint,
        }
    }

    /// Serves requests until the server says goodbye, returning the client
    /// (with its trained model and last-cycle stats) to the caller.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the pipe breaks mid-session.
    pub fn serve(mut self) -> Result<FlClient> {
        loop {
            let request = self.endpoint.recv()?;
            match self.handler.handle(request) {
                Some(reply) => self.endpoint.send(reply)?,
                None => return Ok(self.handler.into_client()),
            }
        }
    }
}

/// The server's typed view of one client behind a [`ServerEndpoint`].
///
/// Construction performs the protocol handshake: the server states its
/// version and proposes a codec, the client identifies itself, and the
/// attestation key for that identity is looked up from the provisioning
/// registry ([`DeviceProfile::provisioned_key`]).
pub struct RemoteClient {
    id: u64,
    attestation_key: Vec<u8>,
    codec: CodecKind,
    /// Epoch counter stamping each encoded download (one per train
    /// attempt, retries included, so the sequence is deterministic).
    epoch: u64,
    /// The delta codec's committed reference view: the last download
    /// this client demonstrably decoded and replied to. One allocation
    /// per broadcast group — lockstep sessions all point at the same one.
    view: Option<View>,
    endpoint: Box<dyn ServerEndpoint>,
}

impl std::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient")
            .field("id", &self.id)
            .field("codec", &self.codec)
            .field("endpoint", &self.endpoint.descriptor())
            .finish()
    }
}

impl RemoteClient {
    /// Handshakes with the client behind `endpoint` at the identity
    /// codec (the bit-exact default).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Protocol`] when the client speaks another
    /// protocol version or the ack is malformed, and
    /// [`FlError::Transport`] on pipe failures.
    pub fn connect(endpoint: Box<dyn ServerEndpoint>) -> Result<Self> {
        RemoteClient::connect_with(endpoint, CodecKind::Identity)
    }

    /// Handshakes with the client behind `endpoint`, proposing `codec`
    /// for the session's model payloads.
    ///
    /// # Errors
    ///
    /// Same conditions as [`connect`](Self::connect).
    pub fn connect_with(mut endpoint: Box<dyn ServerEndpoint>, codec: CodecKind) -> Result<Self> {
        let reply = endpoint.exchange(Envelope::pack(
            MessageKind::Hello,
            &Hello::with_codec(codec),
        ))?;
        let ack: HelloAck = reply.open(MessageKind::HelloAck)?;
        check_version("client", ack.version)?;
        Ok(RemoteClient {
            id: ack.client_id,
            attestation_key: DeviceProfile::provisioned_key(ack.client_id),
            codec: ack.codec,
            epoch: 0,
            view: None,
            endpoint,
        })
    }

    /// The update codec this session negotiated.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// The client's id (learned during the handshake).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The provisioned attestation key for this client's identity.
    pub fn attestation_key(&self) -> &[u8] {
        &self.attestation_key
    }

    /// The endpoint's peer description.
    pub fn descriptor(&self) -> String {
        self.endpoint.descriptor()
    }

    /// Sends `request`, blocks for the reply and opens it as `expect`; a
    /// client-side error report surfaces as [`FlError::ClientFailure`].
    fn exchange<Resp: Wire>(&mut self, request: Envelope, expect: MessageKind) -> Result<Resp> {
        let reply = self.endpoint.exchange(request)?;
        if reply.kind == MessageKind::Error {
            return Err(FlError::ClientFailure {
                client: self.id,
                reason: reply.error_reason(),
            });
        }
        reply.open(expect)
    }

    /// Challenges the client for attestation evidence (Figure 2-➊).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures; a client-side failure surfaces as
    /// [`FlError::ClientFailure`].
    pub fn attest(&mut self, challenge: &Challenge) -> Result<AttestationResponse> {
        let request = AttestationRequest {
            challenge: *challenge,
        };
        self.exchange(
            Envelope::pack(MessageKind::AttestationRequest, &request),
            MessageKind::AttestationResponse,
        )
    }

    /// Ships the global model and plan, blocking for the trained update
    /// (Figure 2-➋/➌/➍).
    ///
    /// Both directions travel as encoded codec payloads (identity
    /// included, so every session is billed uniformly); the
    /// decoded update plus its wire-bytes bill come back as the familiar
    /// [`UpdateUpload`] — the single chokepoint every execution path
    /// (flat, sharded, distributed) funnels through. This is the
    /// one-member [`Broadcast`]; the engine hands a whole round's
    /// sessions the same one.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures; a failed training cycle surfaces as
    /// [`FlError::ClientFailure`].
    pub fn train(&mut self, download: &ModelDownload) -> Result<UpdateUpload> {
        self.train_in(&Broadcast::new(download))
    }

    /// [`train`](Self::train) as one member of `round`'s broadcast.
    pub(crate) fn train_in(&mut self, round: &Broadcast<'_>) -> Result<UpdateUpload> {
        match self.train_encoded(round) {
            Err(FlError::ClientFailure { reason, .. }) if reason.contains(BASE_MISMATCH) => {
                // The client lost the reference view this delta was coded
                // against (e.g. its previous reply never arrived, so only
                // one side committed). Drop ours and re-send dense, once.
                self.view = None;
                self.train_encoded(round)
            }
            other => other,
        }
    }

    fn train_encoded(&mut self, round: &Broadcast<'_>) -> Result<UpdateUpload> {
        let epoch = self.epoch;
        self.epoch += 1;
        let shared = round.payload(self.codec, epoch, self.view.as_ref())?;
        let reply: EncodedUpdateUpload =
            self.exchange(shared.frame.clone(), MessageKind::EncodedUpdateUpload)?;
        if reply.weights.base_epoch.is_some_and(|base| base != epoch) {
            return Err(FlError::Protocol {
                reason: format!(
                    "client {} coded its update against epoch {:?}, expected {epoch}",
                    self.id, reply.weights.base_epoch
                ),
            });
        }
        let weights = decode_weights(&reply.weights, shared.view_next.as_deref())?;
        let upload_raw = dense_wire_bytes(&weights);
        let wire = WireBill {
            download_encoded_bytes: shared.encoded_bytes,
            download_raw_bytes: round.raw_bytes,
            upload_encoded_bytes: if self.codec == CodecKind::Identity {
                upload_raw
            } else {
                reply.weights.wire_bytes()
            },
            upload_raw_bytes: upload_raw,
        };
        // Commit the reference only after a decodable reply: the client
        // commits on its success path, so the views advance in lockstep
        // (a dropped or garbled reply leaves both sides on the old base,
        // and a half-committed pair recovers via the mismatch retry).
        if let Some(view) = &shared.view_next {
            self.view = Some((epoch, Arc::clone(view)));
        }
        let mut cost = reply.cost;
        cost.wire = wire;
        Ok(UpdateUpload {
            client_id: reply.client_id,
            round: reply.round,
            weights,
            num_samples: reply.num_samples,
            train_loss: reply.train_loss,
            cost,
        })
    }

    /// Ends the session (best effort — the client does not reply).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the pipe already broke.
    pub fn goodbye(&mut self) -> Result<()> {
        self.endpoint
            .notify(Envelope::control(MessageKind::Goodbye))
    }
}

#[cfg(test)]
mod tests {
    use super::inprocess::LocalEndpoint;
    use super::*;
    use crate::trainer::PlainSgdTrainer;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;

    impl RemoteClient {
        /// Whether both sessions hold the *same allocation* as their
        /// committed view (not merely equal weights).
        pub(crate) fn shares_view_with(&self, other: &RemoteClient) -> bool {
            match (&self.view, &other.view) {
                (Some((_, a)), Some((_, b))) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
    }

    fn fl_client(id: u64) -> FlClient {
        let ds = Arc::new(SyntheticCifar100::with_classes(16, 2, 1));
        FlClient::new(
            id,
            DeviceProfile::trustzone(id),
            ds,
            (0..16).collect(),
            zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap(),
            Box::new(PlainSgdTrainer),
        )
    }

    #[test]
    fn handshake_negotiates_current_version_and_identity() {
        let remote = RemoteClient::connect(Box::new(LocalEndpoint::new(fl_client(42)))).unwrap();
        assert_eq!(remote.id(), 42);
        assert_eq!(
            remote.attestation_key(),
            DeviceProfile::provisioned_key(42).as_slice()
        );
    }

    #[test]
    fn handler_rejects_disjoint_version_ranges() {
        let mut handler = ClientHandler::new(fl_client(1));
        let futuristic = Envelope::pack(
            MessageKind::Hello,
            &Hello {
                version: PROTOCOL_VERSION + 7,
                codec: CodecKind::Identity,
            },
        );
        let reply = handler.handle(futuristic).expect("hello gets a reply");
        assert_eq!(reply.kind, MessageKind::Error);
        let reason = reply.error_reason();
        assert!(
            reason.contains(&format!("version {},", PROTOCOL_VERSION + 7)),
            "{reason}"
        );
        assert!(
            reason.contains(&format!("speaks {PROTOCOL_VERSION}")),
            "{reason}"
        );
    }

    #[test]
    fn connect_rejects_an_ack_at_another_version() {
        /// A client that acks every hello at an older protocol version.
        struct StaleClient;
        impl ServerEndpoint for StaleClient {
            fn exchange(&mut self, _request: Envelope) -> Result<Envelope> {
                Ok(Envelope::pack(
                    MessageKind::HelloAck,
                    &HelloAck {
                        version: PROTOCOL_VERSION - 1,
                        client_id: 8,
                        codec: CodecKind::Identity,
                    },
                ))
            }
            fn notify(&mut self, _message: Envelope) -> Result<()> {
                Ok(())
            }
            fn descriptor(&self) -> String {
                "stale".to_owned()
            }
        }
        let err = RemoteClient::connect(Box::new(StaleClient)).unwrap_err();
        assert!(matches!(err, FlError::Protocol { .. }), "{err}");
        let text = err.to_string();
        assert!(text.contains("client speaks"), "{text}");
        assert!(
            text.contains(&format!("version {},", PROTOCOL_VERSION - 1)),
            "{text}"
        );
        assert!(
            text.contains(&format!("speaks {PROTOCOL_VERSION}")),
            "{text}"
        );
    }

    #[test]
    fn handler_rejects_unsupported_envelope_versions_after_handshake() {
        let mut handler = ClientHandler::new(fl_client(1));
        let mut req = Envelope::pack(
            MessageKind::AttestationRequest,
            &AttestationRequest {
                challenge: Challenge::new([0u8; 16]),
            },
        );
        req.version = 0;
        let reply = handler.handle(req).expect("a reply");
        assert_eq!(reply.kind, MessageKind::Error);
        let reason = reply.error_reason();
        assert!(reason.contains("version 0,"), "{reason}");
        assert!(
            reason.contains(&format!("speaks {PROTOCOL_VERSION}")),
            "{reason}"
        );
    }

    #[test]
    fn handshake_negotiates_the_proposed_codec() {
        let remote = RemoteClient::connect_with(
            Box::new(LocalEndpoint::new(fl_client(3))),
            CodecKind::DeltaTopK,
        )
        .unwrap();
        assert_eq!(remote.codec(), CodecKind::DeltaTopK);
        let identity = RemoteClient::connect(Box::new(LocalEndpoint::new(fl_client(4)))).unwrap();
        assert_eq!(identity.codec(), CodecKind::Identity);
    }

    #[test]
    fn encoded_train_matches_plain_train_bit_for_bit() {
        use crate::config::TrainingPlan;
        // The same client trained through the encoded identity exchange
        // and by a direct `run_cycle` call must produce identical
        // updates — the identity codec is bit-exact end to end.
        let download = ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap().weights(),
            plan: TrainingPlan {
                batches_per_cycle: 2,
                batch_size: 4,
                ..TrainingPlan::default()
            },
            protected_layers: vec![],
        };
        let mut encoded_path =
            RemoteClient::connect(Box::new(LocalEndpoint::new(fl_client(7)))).unwrap();
        let via_codec = encoded_path.train(&download).unwrap();
        assert!(via_codec.cost.wire.download_encoded_bytes > 0);
        assert_eq!(
            via_codec.cost.wire.download_encoded_bytes, via_codec.cost.wire.download_raw_bytes,
            "identity bills encoded == raw"
        );
        // Same client, same data, no transport or codec in between.
        let plain = fl_client(7).run_cycle(&download).unwrap();
        assert_eq!(via_codec.weights, plain.weights);
        assert_eq!(via_codec.train_loss, plain.train_loss);
    }

    #[test]
    fn delta_sessions_recover_from_a_lost_reference_view() {
        use crate::config::TrainingPlan;
        let download = ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap().weights(),
            plan: TrainingPlan {
                batches_per_cycle: 1,
                batch_size: 4,
                ..TrainingPlan::default()
            },
            protected_layers: vec![],
        };
        let mut remote = RemoteClient::connect_with(
            Box::new(LocalEndpoint::new(fl_client(9))),
            CodecKind::DeltaTopK,
        )
        .unwrap();
        remote.train(&download).unwrap();
        // Simulate one-sided state loss: the server thinks epoch 0 is
        // committed but pretends a newer epoch exists.
        remote.view = Some((99, Arc::new(download.weights.clone())));
        // The client rejects the unknown base, the server retries dense,
        // and the exchange still completes.
        let upload = remote.train(&download).unwrap();
        assert!(upload.cost.wire.upload_encoded_bytes > 0);
        // The session is re-synchronised afterwards: a further delta
        // round works without retry.
        remote.train(&download).unwrap();
    }

    #[test]
    fn goodbye_ends_the_session_without_a_reply() {
        let mut handler = ClientHandler::new(fl_client(1));
        assert!(handler
            .handle(Envelope::control(MessageKind::Goodbye))
            .is_none());
    }

    #[test]
    fn unexpected_kinds_get_error_replies_not_panics() {
        let mut handler = ClientHandler::new(fl_client(1));
        let reply = handler
            .handle(Envelope::control(MessageKind::EncodedUpdateUpload))
            .expect("a reply");
        assert_eq!(reply.kind, MessageKind::Error);
    }
}
