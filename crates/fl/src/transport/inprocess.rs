//! The in-process transport.
//!
//! [`Envelope`]s cross without their payload bytes being copied *in
//! flight*: the server's `begin` lends its request to the client's
//! handler, which reads it where it lies — a broadcast group's members
//! all read the group's one frame — and the reply is moved back.
//! Encoding/decoding still happens once per side — that is the point of
//! the seam: every transport carries the identical protocol bytes, so a
//! deployment over the [`mux`](super::mux) sockets is bit-identical.
//!
//! [`LocalEndpoint`] is synchronous dispatch: the server's `begin` *is*
//! the client's request handling, on the calling thread, and reports the
//! reply as already waiting — so a walk over in-process sessions collects
//! each before it begins the next and never holds more than one
//! exchange's buffers. This is the default federation transport; the
//! execution engine's worker pool fans exchanges out exactly as it used
//! to fan direct `run_cycle` calls, so determinism and parallel speedup
//! carry over bit-for-bit. The handler runs on the caller's stack, so a
//! trainer that panics unwinds through it into the engine's containment:
//! the handler has already taken its delta view by then, the replica the
//! cycle borrowed is dropped rather than handed back, and the session
//! recovers with one dense re-send like any other failed cycle.

use crate::client::FlClient;
use crate::message::Envelope;
use crate::transport::{ClientHandler, ServerEndpoint};
use crate::{FlError, Result};

/// A synchronous, zero-copy in-process endpoint: requests are dispatched
/// to the wrapped client's `ClientHandler` on the calling thread.
pub struct LocalEndpoint {
    handler: ClientHandler,
    /// The reply `begin` produced, parked for `finish`.
    reply: Option<Envelope>,
}

impl LocalEndpoint {
    /// Wraps a client for direct dispatch.
    pub fn new(client: FlClient) -> Self {
        LocalEndpoint {
            handler: ClientHandler::new(client),
            reply: None,
        }
    }

    /// The handler serving the client.
    #[cfg(test)]
    pub(crate) fn handler(&self) -> &ClientHandler {
        &self.handler
    }
}

impl std::fmt::Debug for LocalEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalEndpoint")
            .field("client", &self.handler.client().id())
            .finish()
    }
}

impl ServerEndpoint for LocalEndpoint {
    fn begin(&mut self, request: &Envelope) -> Result<bool> {
        self.reply = Some(self.handler.handle(request).ok_or_else(|| {
            FlError::disconnected("exchanging with an in-process client that said goodbye")
        })?);
        Ok(true)
    }

    fn finish(&mut self) -> Result<Envelope> {
        self.reply.take().ok_or_else(|| FlError::Protocol {
            reason: "no request begun on this in-process endpoint".to_owned(),
        })
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        // Goodbye (and any other fire-and-forget message) is absorbed by
        // the handler; a reply, if produced, has nobody waiting for it.
        let _ = self.handler.handle(&message);
        Ok(())
    }

    fn descriptor(&self) -> String {
        format!("in-process:client-{}", self.handler.client().id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DeviceProfile;
    use crate::codec::CodecKind;
    use crate::message::{Hello, HelloAck, MessageKind};
    use crate::trainer::PlainSgdTrainer;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;
    use std::sync::Arc;

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
    fn local_endpoint_answers_hello_inline() {
        let mut ep = LocalEndpoint::new(fl_client(9));
        let reply = ep
            .exchange(&Envelope::pack(
                MessageKind::Hello,
                &Hello::with_codec(CodecKind::Identity),
            ))
            .unwrap();
        let ack: HelloAck = reply.open(MessageKind::HelloAck).unwrap();
        assert_eq!(ack.client_id, 9);
    }
}
