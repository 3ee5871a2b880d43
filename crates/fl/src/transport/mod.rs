//! Pluggable transports for the federation round exchange.
//!
//! The paper's protocol (Figure 2 ➊–➍) is a strict request/response
//! pattern: the server initiates every exchange, the client answers. This
//! module lifts that pattern onto a narrow byte-level seam so one protocol
//! implementation serves every deployment scenario:
//!
//! * [`ServerEndpoint`] — the server's handle to one client, in two
//!   halves: `begin` puts a request [`Envelope`] on the pipe, `finish`
//!   blocks for that session's reply (`exchange` is the two composed).
//! * [`ClientEndpoint`] — the client's side: block for the next request,
//!   send the reply.
//!
//! The split is what lets one server thread keep many sessions waiting
//! at once: every walk over sessions — the handshake, screening, an
//! engine worker's share of a round — goes through [`slide`], which
//! begins up to [`WINDOW`] sessions in canonical order before it collects
//! the oldest reply, in the same order. Each session still sees its own
//! messages one at a time and in the same sequence, so nothing a session
//! computes, and nothing keyed by its slot, can tell the difference; an
//! endpoint that answers inside `begin` (the in-process one) is collected
//! before the next session begins, which is the old one-at-a-time walk.
//!
//! Three backends implement the seam:
//!
//! * [`inprocess::LocalEndpoint`] — in-process dispatch, zero-copy in
//!   flight (the envelope is moved between endpoints, never re-buffered;
//!   each side pays the codec once, as on every transport); the default,
//!   and bit-identical to the pre-transport direct-call federation.
//! * [`mux`] — the same envelopes over real sockets, the envelope header
//!   doubling as the length-prefixed frame: the server side accepts
//!   blocking [`tcp`] endpoints, the fleet's client sessions are
//!   multiplexed onto a small fixed pool of event-loop threads via
//!   nonblocking readiness polling ([`poller`]) — the fan-in shape for
//!   tens of thousands of sessions on one host.
//! * [`tcp::connect`] — the client side of one such socket served by one
//!   blocking [`ClientSession`]: what a single device runs.
//!
//! [`sealed`] wraps any of the three in the trusted I/O path
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

use std::collections::VecDeque;
use std::sync::Arc;

use gradsec_tee::attestation::Challenge;
use gradsec_tee::cost::WireBill;

use self::broadcast::{Broadcast, Payload, View};
use crate::client::{DeviceProfile, FlClient};
use crate::codec::{
    check_against, encode_weights, flatten, rebuild_all, CheckedWeights, CodecKind, BASE_MISMATCH,
};
use crate::message::{
    check_version, ArrivedUpload, ArrivedWeights, AttestationRequest, AttestationResponse,
    EncodedModelDownload, EncodedUpdateUpload, Envelope, Hello, HelloAck, MessageKind,
    ModelDownload, UpdateUpload, Wire, PROTOCOL_VERSION,
};
use crate::{FlError, Result};

/// The server's byte-level handle to one client.
///
/// The protocol is strictly request/response, so no reordering can occur
/// within one endpoint: every [`begin`](Self::begin) that succeeded is
/// followed by exactly one [`finish`](Self::finish) before the next
/// request. Between the two the caller is free to begin *other* sessions.
pub trait ServerEndpoint: Send {
    /// Puts `request` on the pipe without waiting for the reply. Returns
    /// `true` when the endpoint answered inside the call (the reply is
    /// already parked for `finish`), `false` when `finish` will block for
    /// it. After an error there is nothing to finish.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying pipe fails.
    fn begin(&mut self, request: Envelope) -> Result<bool>;

    /// Blocks for the reply to the request last begun.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying pipe fails and
    /// [`FlError::Protocol`] on framing violations.
    fn finish(&mut self) -> Result<Envelope>;

    /// Sends `request` and blocks for the reply: the two halves composed.
    ///
    /// # Errors
    ///
    /// Those of [`begin`](Self::begin) and [`finish`](Self::finish).
    fn exchange(&mut self, request: Envelope) -> Result<Envelope> {
        self.begin(request)?;
        self.finish()
    }

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
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        (**self).begin(request)
    }

    fn finish(&mut self) -> Result<Envelope> {
        (**self).finish()
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        (**self).notify(message)
    }

    fn descriptor(&self) -> String {
        (**self).descriptor()
    }
}

/// How many sessions one driver keeps begun but unfinished.
pub(crate) const WINDOW: usize = 64;

/// Walks sessions `0..n` of `fleet` through `begin` then `finish`, both
/// in index order, with at most [`WINDOW`] begun and not yet finished;
/// results come back index-aligned. `begin` returns what its session's
/// `finish` needs, plus whether the endpoint answered inline — then a
/// whole reply is parked in the session, and everything begun is
/// collected before another session begins. A failed `begin` is that
/// session's result, handed to its `finish` in its turn; every session
/// begun is finished before the walk returns.
pub(crate) fn slide<F: ?Sized, B, T>(
    fleet: &mut F,
    n: usize,
    mut begin: impl FnMut(&mut F, usize) -> Result<(B, bool)>,
    mut finish: impl FnMut(&mut F, usize, Result<B>) -> T,
) -> Vec<T> {
    let mut begun = VecDeque::with_capacity(WINDOW.min(n));
    let mut done = Vec::with_capacity(n);
    while done.len() < n {
        let mut inline = false;
        while !inline && begun.len() < WINDOW && done.len() + begun.len() < n {
            let session = begin(fleet, done.len() + begun.len());
            inline = matches!(session, Ok((_, true)));
            begun.push_back(session.map(|(sent, _)| sent));
        }
        let collect = if inline { begun.len() } else { 1 };
        for session in begun.drain(..collect) {
            done.push(finish(fleet, done.len(), session));
        }
    }
    done
}

/// The client-side protocol logic, independent of any transport: decodes
/// request envelopes, drives the wrapped [`FlClient`], encodes replies.
///
/// Failures never tear the session down silently — they are reported back
/// to the server as [`MessageKind::Error`] envelopes, so the server's
/// round logic can decide what a failed client costs.
///
/// A delta-topk session's reference view is held here, as the server
/// holds its own: the decoded download with the epoch that names it, one
/// allocation per lockstep group (see `client::ClientModels`). The
/// wrapped client holds no model at all.
pub struct ClientHandler {
    client: FlClient,
    /// The update codec the hello negotiated (None before a handshake).
    codec: Option<CodecKind>,
    /// The delta codec's committed reference view: the last download
    /// this client trained on and successfully replied to — the
    /// client-side counterpart of `RemoteClient::view`.
    view: Option<View>,
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

    /// The committed delta view's model, if the session holds one.
    #[cfg(test)]
    pub(crate) fn view_weights(&self) -> Option<&gradsec_nn::model::ModelWeights> {
        self.view.as_ref().map(|(_, weights)| &**weights)
    }

    /// Tells the fleet's store which view this client holds now.
    #[cfg(test)]
    fn note_view(&self) {
        let view = self.view.as_ref().map(|(_, weights)| weights);
        self.client.models().note_view(self.client.id(), view);
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
    /// codec, train, and reply with the update encoded the same way.
    ///
    /// The download is checked against the view this client holds,
    /// whatever the bytes of its neighbours; a delta session is then
    /// handed its group's decoded view by the fleet's store, and the cycle
    /// trains from it in place. The view is taken before the cycle starts
    /// and put back untouched when the download is refused, or replaced by
    /// the decoded download when the cycle succeeds — so a cycle that
    /// fails or panics leaves no view, and the server's next delta is
    /// answered with [`BASE_MISMATCH`] and re-sent dense.
    fn handle_encoded_download(&mut self, download: EncodedModelDownload) -> Envelope {
        let held = self.view.take();
        #[cfg(test)]
        self.note_view();
        let reply = self.train_on(download, held);
        #[cfg(test)]
        self.note_view();
        reply
    }

    fn train_on(&mut self, download: EncodedModelDownload, held: Option<View>) -> Envelope {
        let codec = self.codec.unwrap_or(download.weights.codec);
        let base = match (download.weights.base_epoch, &held) {
            (None, _) => None,
            (Some(base), Some((epoch, view))) if base == *epoch => Some(Arc::clone(view)),
            (Some(base), _) => {
                let holds = held.as_ref().map(|(epoch, _)| *epoch);
                self.view = held;
                return Envelope::error(format!(
                    "{BASE_MISMATCH}: server referenced epoch {base} but this \
                     client holds {holds:?}"
                ));
            }
        };
        let reference = base.as_deref().map(flatten);
        if let Err(e) = check_against(&download.weights, reference.as_deref()) {
            self.view = held;
            return Envelope::error(format!("malformed encoded download: {e}"));
        }
        let epoch = download.weights.epoch;
        let global = if codec == CodecKind::DeltaTopK {
            self.client.models().view(base.as_ref(), download.weights)
        } else {
            Arc::new(rebuild_all(&download.weights, reference.as_deref()))
        };
        let (round, plan, protected) = (download.round, &download.plan, &download.protected_layers);
        match self.client.cycle(round, &global, plan, protected) {
            Ok(upload) => {
                let encoded = encode_weights(codec, epoch, &upload.weights, Some((epoch, &global)));
                if codec == CodecKind::DeltaTopK {
                    self.view = Some((epoch, global));
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
    /// (with its last-cycle stats) to the caller. A delta-topk session's
    /// view belongs to the session and ends with it.
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
    /// A request is on the pipe and its reply not yet collected.
    begun: bool,
    endpoint: Box<dyn ServerEndpoint>,
}

/// A training request on the pipe: what
/// [`train_finish`](RemoteClient::train_finish) needs to read its reply.
pub(crate) struct InFlight {
    epoch: u64,
    shared: Arc<Payload>,
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
    pub fn connect_with(endpoint: Box<dyn ServerEndpoint>, codec: CodecKind) -> Result<Self> {
        let mut one = RemoteClient::connect_all(vec![endpoint], codec)?;
        Ok(one.pop().expect("one endpoint in, one session out"))
    }

    /// Handshakes with every endpoint through one [`slide`], returning
    /// the sessions in endpoint order. Every hello sent is collected
    /// before the first failure, if any, is returned.
    pub(crate) fn connect_all(
        endpoints: Vec<Box<dyn ServerEndpoint>>,
        codec: CodecKind,
    ) -> Result<Vec<Self>> {
        let hello = Envelope::pack(MessageKind::Hello, &Hello::with_codec(codec));
        let mut endpoints: Vec<_> = endpoints.into_iter().map(Some).collect();
        let n = endpoints.len();
        let greeted = slide(
            &mut endpoints,
            n,
            |endpoints, i| {
                let endpoint = endpoints[i].as_mut().expect("greeted once");
                Ok(((), endpoint.begin(hello.clone())?))
            },
            |endpoints, i, sent| {
                let mut endpoint = endpoints[i].take().expect("greeted once");
                sent?;
                let ack: HelloAck = endpoint.finish()?.open(MessageKind::HelloAck)?;
                check_version("client", ack.version)?;
                Ok(RemoteClient {
                    id: ack.client_id,
                    attestation_key: DeviceProfile::provisioned_key(ack.client_id),
                    codec: ack.codec,
                    epoch: 0,
                    view: None,
                    begun: false,
                    endpoint,
                })
            },
        );
        greeted.into_iter().collect()
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

    /// Puts `request` on the pipe (see [`ServerEndpoint::begin`]). A
    /// session takes one request at a time: a second one before the
    /// first's reply is collected would let that reply answer the wrong
    /// request, so it is refused.
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        if self.begun {
            return Err(FlError::Protocol {
                reason: format!("client {} has a request in flight already", self.id),
            });
        }
        let inline = self.endpoint.begin(request)?;
        self.begun = true;
        Ok(inline)
    }

    /// Blocks for the reply to the request begun and opens it as
    /// `expect`; a client-side error report surfaces as
    /// [`FlError::ClientFailure`].
    fn finish<Resp: Wire>(&mut self, expect: MessageKind) -> Result<Resp> {
        if !std::mem::take(&mut self.begun) {
            return Err(FlError::Protocol {
                reason: format!("client {} has no request in flight", self.id),
            });
        }
        let reply = self.endpoint.finish()?;
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
        self.attest_begin(challenge)?;
        self.attest_finish()
    }

    /// The request half of [`attest`](Self::attest).
    pub(crate) fn attest_begin(&mut self, challenge: &Challenge) -> Result<bool> {
        let request = AttestationRequest {
            challenge: *challenge,
        };
        self.begin(Envelope::pack(MessageKind::AttestationRequest, &request))
    }

    /// The reply half of [`attest`](Self::attest).
    pub(crate) fn attest_finish(&mut self) -> Result<AttestationResponse> {
        self.finish(MessageKind::AttestationResponse)
    }

    /// Ships the global model and plan, blocking for the trained update
    /// (Figure 2-➋/➌/➍).
    ///
    /// Both directions travel as encoded codec payloads (identity
    /// included, so every session is billed uniformly). The reply is
    /// checked, billed and committed on arrival by the single chokepoint
    /// every execution path (flat, sharded, distributed) funnels through;
    /// this eager form then expands it into the familiar
    /// [`UpdateUpload`], where a round keeps it as it arrived until the
    /// fold. This is the one-member [`Broadcast`], begun and finished at
    /// once; the engine hands a whole round's sessions the same one and
    /// overlaps them.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures; a failed training cycle surfaces as
    /// [`FlError::ClientFailure`].
    pub fn train(&mut self, download: &ModelDownload) -> Result<UpdateUpload> {
        let round = Broadcast::new(download);
        let (sent, _) = self.train_begin(&round)?;
        self.train_finish(&round, sent).map(ArrivedUpload::expand)
    }

    /// The request half of [`train`](Self::train) as one member of
    /// `round`'s broadcast: stamps the next epoch and sends the group's
    /// frame.
    pub(crate) fn train_begin(&mut self, round: &Broadcast<'_>) -> Result<(InFlight, bool)> {
        let epoch = self.epoch;
        self.epoch += 1;
        let shared = round.payload(self.codec, epoch, self.view.as_ref())?;
        let inline = self.begin(shared.frame.clone())?;
        Ok((InFlight { epoch, shared }, inline))
    }

    /// The reply half of [`train`](Self::train): the update checked,
    /// billed and committed to the session's view, its weights left in
    /// the form they crossed the wire in.
    pub(crate) fn train_finish(
        &mut self,
        round: &Broadcast<'_>,
        sent: InFlight,
    ) -> Result<ArrivedUpload> {
        let refused = sent.shared.encoded_bytes;
        match self.collect(round, sent) {
            Err(FlError::ClientFailure { reason, .. }) if reason.contains(BASE_MISMATCH) => {
                // The client no longer holds the reference view this delta
                // was coded against (its previous reply never arrived, so
                // only it committed; or its last cycle failed and dropped
                // the view). Drop ours and re-send dense, once, waiting
                // for it here: a retry is rare, and the session's slot in
                // the walk is this one.
                self.view = None;
                let (resent, _) = self.train_begin(round)?;
                let mut upload = self.collect(round, resent)?;
                // The refused delta crossed the wire before the dense one.
                upload.cost.wire.download_encoded_bytes += refused;
                Ok(upload)
            }
            other => other,
        }
    }

    /// Reads one reply. Everything that can be wrong with its payload is
    /// found here, on arrival, by the one validator — against the model
    /// the client coded it against — before anything is billed, committed
    /// or kept; what is kept is the payload itself, not its expansion.
    fn collect(&mut self, round: &Broadcast<'_>, sent: InFlight) -> Result<ArrivedUpload> {
        let InFlight { epoch, shared } = sent;
        let reply: EncodedUpdateUpload = self.finish(MessageKind::EncodedUpdateUpload)?;
        if reply.weights.base_epoch.is_some_and(|base| base != epoch) {
            return Err(FlError::Protocol {
                reason: format!(
                    "client {} coded its update against epoch {:?}, expected {epoch}",
                    self.id, reply.weights.base_epoch
                ),
            });
        }
        let weights = CheckedWeights::new(reply.weights, shared.view_next.clone())?;
        let upload_raw = weights.dense_wire_bytes();
        let wire = WireBill {
            download_encoded_bytes: shared.encoded_bytes,
            download_raw_bytes: round.raw_bytes,
            upload_encoded_bytes: if self.codec == CodecKind::Identity {
                upload_raw
            } else {
                weights.encoded().wire_bytes()
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
        // A payload of dense bodies is the model already: expanding it
        // moves them, which saves nothing by waiting — so it is done here,
        // on the worker, not by the fold on the driver's one thread.
        let weights = if weights.is_dense() {
            ArrivedWeights::Dense(weights.into_dense())
        } else {
            ArrivedWeights::Wire(Box::new(weights))
        };
        Ok(ArrivedUpload {
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
pub(crate) mod tests {
    use super::inprocess::LocalEndpoint;
    use super::*;
    use crate::adversary::{Adversary, AdversaryPlan, Persona};
    use crate::codec::{decode_weights, flatten, EncodedBody, EncodedWeights};
    use crate::config::TrainingPlan;
    use crate::trainer::PlainSgdTrainer;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::model::ModelWeights;
    use gradsec_nn::zoo;
    use gradsec_tensor::Tensor;
    use std::sync::Mutex;

    impl RemoteClient {
        /// Training attempts so far (retries included).
        pub(crate) fn epoch(&self) -> u64 {
            self.epoch
        }

        /// The committed reference view's model, if the session holds one.
        pub(crate) fn view_weights(&self) -> Option<&ModelWeights> {
            self.view.as_ref().map(|(_, weights)| &**weights)
        }

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
            fn begin(&mut self, _request: Envelope) -> Result<bool> {
                Ok(true)
            }
            fn finish(&mut self) -> Result<Envelope> {
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

    /// The exact bits of a run of tensors: what "the two sides hold the
    /// same view" is asserted on (`==` on floats would let `-0.0` pass for
    /// `0.0`).
    pub(crate) fn bits<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> Vec<Vec<u32>> {
        let raw = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect();
        tensors.into_iter().map(raw).collect()
    }

    fn one_batch() -> TrainingPlan {
        TrainingPlan {
            batches_per_cycle: 1,
            batch_size: 4,
            ..TrainingPlan::default()
        }
    }

    /// A handler past a delta-topk handshake.
    fn delta_handler(client: FlClient) -> ClientHandler {
        let mut handler = ClientHandler::new(client);
        let hello = Hello::with_codec(CodecKind::DeltaTopK);
        let ack = handler.handle(Envelope::pack(MessageKind::Hello, &hello));
        assert_eq!(ack.expect("an ack").kind, MessageKind::HelloAck);
        handler
    }

    fn send(handler: &mut ClientHandler, round: u64, weights: EncodedWeights) -> Envelope {
        let request = EncodedModelDownload {
            round,
            weights,
            plan: one_batch(),
            protected_layers: vec![],
        };
        let request = Envelope::pack(MessageKind::EncodedModelDownload, &request);
        handler.handle(request).expect("a reply")
    }

    /// A [`LocalEndpoint`] the test keeps a second handle on, to read the
    /// client's view between exchanges.
    #[derive(Clone)]
    struct Watched(Arc<Mutex<LocalEndpoint>>);

    impl ServerEndpoint for Watched {
        fn begin(&mut self, request: Envelope) -> Result<bool> {
            self.0.lock().unwrap().begin(request)
        }
        fn finish(&mut self) -> Result<Envelope> {
            self.0.lock().unwrap().finish()
        }
        fn notify(&mut self, message: Envelope) -> Result<()> {
            self.0.lock().unwrap().notify(message)
        }
        fn descriptor(&self) -> String {
            "watched".to_owned()
        }
    }

    #[test]
    fn the_client_view_is_the_committed_view_after_every_delta_exchange() {
        let mut download = ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap().weights(),
            plan: one_batch(),
            protected_layers: vec![],
        };
        let watched = Watched(Arc::new(Mutex::new(LocalEndpoint::new(fl_client(5)))));
        let mut remote =
            RemoteClient::connect_with(Box::new(watched.clone()), CodecKind::DeltaTopK).unwrap();
        for round in 0..4 {
            download.round = round;
            let upload = remote.train(&download).unwrap();
            let view = remote.view_weights().expect("a delta session commits");
            let endpoint = watched.0.lock().unwrap();
            let held = endpoint
                .handler()
                .view_weights()
                .expect("and so does the client");
            assert_eq!(bits(flatten(held)), bits(flatten(view)), "round {round}");
            // Sparse from the second exchange on: the view really is
            // what the deltas are decoded against.
            let wire = upload.cost.wire;
            assert_eq!(
                wire.download_encoded_bytes * 3 <= wire.download_raw_bytes,
                round > 0,
                "round {round}: {wire:?}"
            );
            download.weights = upload.weights;
        }
    }

    #[test]
    fn a_refused_delta_leaves_the_replica_and_its_epoch_untouched() {
        let base = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap().weights();
        let mut handler = delta_handler(fl_client(1));
        let dense = encode_weights(CodecKind::DeltaTopK, 0, &base, None);
        let first = send(&mut handler, 0, dense);
        assert_eq!(first.kind, MessageKind::EncodedUpdateUpload);
        let held = |handler: &ClientHandler| bits(flatten(handler.view_weights().unwrap()));
        let parked = held(&handler);
        assert_eq!(parked, bits(flatten(&base)));

        let mut next = base.clone();
        next.add_scaled(&base, 0.01).unwrap();
        let good = encode_weights(CodecKind::DeltaTopK, 1, &next, Some((0, &base)));
        let mut stale = good.clone();
        stale.base_epoch = Some(7);
        // The same coefficients under transposed dims: every length and
        // index still fits, only the shape disagrees with the view.
        let mut reshaped = good.clone();
        reshaped.tensors[0].dims.reverse();
        let mut odd = good.clone();
        odd.tensors.pop();
        for (bad, why) in [
            (stale, BASE_MISMATCH),
            (reshaped, "has dims"),
            (odd, "odd tensor count"),
        ] {
            let reply = send(&mut handler, 1, bad);
            assert_eq!(reply.kind, MessageKind::Error, "{why}");
            let reason = reply.error_reason();
            assert!(reason.contains(why), "{why}: {reason}");
            assert_eq!(held(&handler), parked, "{why}");
        }
        // The view survived all three: a delta on the same base decodes.
        let want = decode_weights(&good, Some(&base)).unwrap();
        let reply = send(&mut handler, 1, good);
        let upload: EncodedUpdateUpload = reply.open(MessageKind::EncodedUpdateUpload).unwrap();
        assert_eq!(upload.weights.base_epoch, Some(1));
        assert_eq!(held(&handler), bits(flatten(&want)));
    }

    #[test]
    fn hostile_personas_park_the_decoded_download_too() {
        // A free-rider never trains and a poisoner uploads something
        // other than what it trained; the view is the decoded download
        // either way.
        let base = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap().weights();
        let mut next = base.clone();
        next.add_scaled(&base, 0.01).unwrap();
        for persona in [Persona::FreeRider, Persona::Poisoner] {
            let mut client = fl_client(2);
            client.set_adversary(Adversary {
                persona,
                plan: Arc::new(AdversaryPlan::seeded(5).poisoners(1.0)),
                log: None,
            });
            let mut handler = delta_handler(client);
            let dense = encode_weights(CodecKind::DeltaTopK, 0, &base, None);
            let delta = encode_weights(CodecKind::DeltaTopK, 1, &next, Some((0, &base)));
            let decoded = decode_weights(&delta, Some(&base)).unwrap();
            for (round, download, want) in [(0, dense, &base), (1, delta, &decoded)] {
                let reply = send(&mut handler, round, download);
                assert_eq!(
                    reply.kind,
                    MessageKind::EncodedUpdateUpload,
                    "{persona:?}, round {round}"
                );
                assert_eq!(
                    bits(flatten(handler.view_weights().unwrap())),
                    bits(flatten(want)),
                    "{persona:?}, round {round}"
                );
            }
        }
    }
    /// What a [`Tampering`] endpoint does to tensor 0 of an update on its
    /// way back to the server.
    #[derive(Debug, Clone, Copy)]
    enum Tamper {
        /// A sparse body whose one index is the tensor's element count.
        IndexOutOfRange,
        /// A sparse body naming the same index twice.
        IndexRepeated,
        /// The dims reversed: every length and index still fits.
        TransposedDims,
        /// The last tensor dropped.
        OddTensorCount,
        /// An int8 body one byte short of its dims.
        ShortInt8Body,
        /// A well-formed sparse body.
        DeltaBody,
        /// A well-formed body of this kind standing for one coefficient
        /// that is this non-finite value (at index 5; an int8 body's zero).
        NonFinite(Body, f32),
    }

    #[derive(Debug, Clone, Copy)]
    enum Body {
        Dense,
        Int8,
        Sparse,
    }

    impl Body {
        /// A body of this kind for `n` coefficients, one of them `x`.
        fn standing_for(self, x: f32, n: usize) -> EncodedBody {
            match self {
                Body::Dense => {
                    let mut v = vec![0.5; n];
                    v[5] = x;
                    EncodedBody::Dense(v)
                }
                Body::Int8 => EncodedBody::Int8 {
                    zero: x,
                    scale: 1.0,
                    q: vec![0; n],
                },
                Body::Sparse => EncodedBody::TopK {
                    indices: vec![5],
                    values: vec![x],
                },
            }
        }
    }

    impl Tamper {
        fn apply(self, weights: &mut EncodedWeights) {
            let n = weights.tensors[0].dims.iter().product::<usize>();
            let sparse = |indices: &[usize]| EncodedBody::TopK {
                indices: indices.iter().map(|&i| i as u32).collect(),
                values: vec![0.5; indices.len()],
            };
            match self {
                Tamper::IndexOutOfRange => weights.tensors[0].body = sparse(&[n]),
                Tamper::IndexRepeated => weights.tensors[0].body = sparse(&[3, 3]),
                Tamper::TransposedDims => weights.tensors[0].dims.reverse(),
                Tamper::OddTensorCount => drop(weights.tensors.pop()),
                Tamper::ShortInt8Body => {
                    weights.tensors[0].body = EncodedBody::Int8 {
                        zero: 0.0,
                        scale: 1.0,
                        q: vec![0; n - 1],
                    }
                }
                Tamper::DeltaBody => weights.tensors[0].body = sparse(&[0]),
                Tamper::NonFinite(body, x) => weights.tensors[0].body = body.standing_for(x, n),
            }
        }
    }

    /// A [`LocalEndpoint`] whose `at`-th update is tampered with in
    /// flight: opened, rewritten and packed again, so what the server
    /// reads is a well-framed reply from a hostile client.
    struct Tampering {
        inner: LocalEndpoint,
        /// Which update to rewrite, and how; `None` is an honest client.
        tamper: Option<(usize, Tamper)>,
        updates: usize,
    }

    impl ServerEndpoint for Tampering {
        fn begin(&mut self, request: Envelope) -> Result<bool> {
            self.inner.begin(request)
        }
        fn finish(&mut self) -> Result<Envelope> {
            let reply = self.inner.finish()?;
            if reply.kind != MessageKind::EncodedUpdateUpload {
                return Ok(reply);
            }
            let nth = self.updates;
            self.updates += 1;
            match self.tamper {
                Some((at, tamper)) if at == nth => {
                    let mut update: EncodedUpdateUpload =
                        reply.open(MessageKind::EncodedUpdateUpload)?;
                    tamper.apply(&mut update.weights);
                    Ok(Envelope::pack(MessageKind::EncodedUpdateUpload, &update))
                }
                _ => Ok(reply),
            }
        }
        fn notify(&mut self, message: Envelope) -> Result<()> {
            self.inner.notify(message)
        }
        fn descriptor(&self) -> String {
            "tampering".to_owned()
        }
    }

    #[test]
    fn a_hostile_update_is_refused_on_arrival_by_name_and_leaves_nothing_behind() {
        use crate::engine::{ClientOutcome, ExecutionEngine};
        use gradsec_tee::cost::ClientCycleCost;
        use CodecKind::{DeltaTopK, Identity, Int8};
        // Every refusal is the text it has always been. The frame decoder
        // is the first to see a body and names what a gap-coded index or
        // a body read by its dims cannot express; the arrival check names
        // the rest. Dims are compared with the reference only — without a
        // view there is nothing for them to disagree with before the fold
        // — and a sparse body is a refusal only where no view exists. A
        // coefficient that would decode to NaN or ±inf is refused in every
        // body kind, naming the tensor and the position.
        let structural: [(&[CodecKind], Tamper, &str); 6] = [
            (
                &[Identity, Int8, DeltaTopK],
                Tamper::IndexOutOfRange,
                "sparse index 12288 out of bounds for tensor of 12288",
            ),
            (
                &[Identity, Int8, DeltaTopK],
                Tamper::IndexRepeated,
                "sparse index 4294967299 out of bounds for tensor of 12288",
            ),
            (
                &[DeltaTopK],
                Tamper::TransposedDims,
                "reference tensor 0 has dims [4, 3072], payload [3072, 4]",
            ),
            (
                &[Identity, Int8, DeltaTopK],
                Tamper::OddTensorCount,
                "encoded payload has odd tensor count 3",
            ),
            // Read by its dims, a short body ends one byte into the next
            // tensor, whose rank (1) and first dim (4) then read as 4 << 56.
            (
                &[Identity, Int8, DeltaTopK],
                Tamper::ShortInt8Body,
                "encoded tensor rank 288230376151711744 exceeds protocol maximum",
            ),
            (
                &[Identity, Int8],
                Tamper::DeltaBody,
                "delta body without a reference view",
            ),
        ];
        let mut cases: Vec<(&[CodecKind], Tamper, String)> = structural
            .into_iter()
            .map(|(codecs, tamper, why)| (codecs, tamper, why.to_owned()))
            .collect();
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let at =
                |position: &str| format!("non-finite coefficient {x} in tensor 0 at {position}");
            cases.extend([
                (
                    &[Identity, Int8, DeltaTopK][..],
                    Tamper::NonFinite(Body::Dense, x),
                    at("index 5"),
                ),
                (
                    &[Identity, Int8, DeltaTopK],
                    Tamper::NonFinite(Body::Int8, x),
                    at("int8 zero"),
                ),
                (
                    &[DeltaTopK],
                    Tamper::NonFinite(Body::Sparse, x),
                    at("index 5"),
                ),
            ]);
        }
        let session = |id: u64, codec, tamper| {
            let endpoint = Tampering {
                inner: LocalEndpoint::new(fl_client(id)),
                tamper,
                updates: 0,
            };
            RemoteClient::connect_with(Box::new(endpoint), codec).unwrap()
        };
        let engine = ExecutionEngine::sequential();
        for (codecs, tamper, why) in cases {
            for &codec in codecs {
                let what = format!("{codec:?}, {tamper:?}");
                // Client 0 is honest; client 1 is too in round 0, so that a
                // delta session has a view to lose in round 1.
                let mut clients = vec![
                    session(0, codec, None),
                    session(1, codec, Some((1, tamper))),
                ];
                let mut download = ModelDownload {
                    round: 0,
                    weights: zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap().weights(),
                    plan: one_batch(),
                    protected_layers: vec![],
                };
                let (honest, _) = engine
                    .execute_cycles(&mut clients, &[0, 1], &download)
                    .unwrap();
                assert!(honest.iter().all(ClientOutcome::is_completed), "{what}");
                let committed = clients[1].view_weights().cloned();
                assert_eq!(committed.is_some(), codec == DeltaTopK, "{what}");

                download.round = 1;
                download.weights = honest[0].update().unwrap().weights.clone();
                let (outcomes, ledger) = engine
                    .execute_cycles(&mut clients, &[0, 1], &download)
                    .unwrap();
                assert!(outcomes[0].is_completed(), "{what}");
                let refusal = match &outcomes[1] {
                    ClientOutcome::Failed { client: 1, error } => error.to_string(),
                    other => panic!("{what}: expected a refusal, got {other:?}"),
                };
                assert!(refusal.contains(&why), "{what}: {refusal}");
                assert_eq!(
                    ledger.client(1),
                    Some(&ClientCycleCost::unbilled(1)),
                    "{what}"
                );
                assert_ne!(
                    ledger.client(0),
                    Some(&ClientCycleCost::unbilled(0)),
                    "{what}"
                );
                // The refused session's view did not move; its neighbour's did.
                assert_eq!(clients[1].view_weights(), committed.as_ref(), "{what}");
                assert_eq!(
                    clients[0].view_weights() != committed.as_ref(),
                    codec == DeltaTopK,
                    "{what}"
                );

                // And the session is not poisoned: the next round completes
                // (a delta session by way of one dense re-send).
                download.round = 2;
                let (recovered, _) = engine
                    .execute_cycles(&mut clients, &[0, 1], &download)
                    .unwrap();
                assert!(recovered.iter().all(ClientOutcome::is_completed), "{what}");
                assert_eq!(clients[1].epoch(), if codec == DeltaTopK { 4 } else { 3 });
            }
        }
    }
}
