//! The in-process transport.
//!
//! [`Envelope`]s move without their payload bytes being copied *in
//! flight* (the envelope is moved, never re-buffered between endpoints).
//! Encoding/decoding still happens once per side — that is the point of
//! the seam: every transport carries the identical protocol bytes, so the
//! trusted I/O path can seal them and a TCP deployment is bit-identical.
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
//!
//! Unit tests also get `channel_pair`, an mpsc-backed duplex that runs a
//! [`ClientSession`](super::ClientSession) serve loop on its own thread
//! without a socket.

#[cfg(test)]
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::client::FlClient;
use crate::message::Envelope;
#[cfg(test)]
use crate::transport::ClientEndpoint;
use crate::transport::{ClientHandler, ServerEndpoint};
use crate::{FlError, Result};

/// A synchronous, zero-copy in-process endpoint: requests are dispatched
/// to the wrapped client's [`ClientHandler`] on the calling thread.
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

    /// The wrapped client.
    pub fn client(&self) -> &FlClient {
        self.handler.client()
    }

    /// Mutable access to the wrapped client.
    pub fn client_mut(&mut self) -> &mut FlClient {
        self.handler.client_mut()
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
    fn begin(&mut self, request: Envelope) -> Result<bool> {
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
        let _ = self.handler.handle(message);
        Ok(())
    }

    fn descriptor(&self) -> String {
        format!("in-process:client-{}", self.handler.client().id())
    }
}

/// The server half of a channel-backed in-process duplex.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ChannelServerEndpoint {
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
}

/// The client half of a channel-backed in-process duplex.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ChannelClientEndpoint {
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
}

/// Builds a connected (server, client) endpoint pair over two unbounded
/// channels. Envelopes are moved through the channels — payload bytes are
/// never copied in flight.
#[cfg(test)]
pub(crate) fn channel_pair() -> (ChannelServerEndpoint, ChannelClientEndpoint) {
    let (to_client, from_server) = channel();
    let (to_server, from_client) = channel();
    (
        ChannelServerEndpoint {
            tx: to_client,
            rx: from_client,
        },
        ChannelClientEndpoint {
            tx: to_server,
            rx: from_server,
        },
    )
}

#[cfg(test)]
impl ServerEndpoint for ChannelServerEndpoint {
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        self.tx
            .send(request)
            .map_err(|_| FlError::disconnected("sending request to in-process channel"))?;
        Ok(false)
    }

    fn finish(&mut self) -> Result<Envelope> {
        self.rx
            .recv()
            .map_err(|_| FlError::disconnected("awaiting reply from in-process channel"))
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        self.tx
            .send(message)
            .map_err(|_| FlError::disconnected("notifying in-process channel"))
    }

    fn descriptor(&self) -> String {
        "in-process:channel".to_owned()
    }
}

#[cfg(test)]
impl ClientEndpoint for ChannelClientEndpoint {
    fn recv(&mut self) -> Result<Envelope> {
        self.rx
            .recv()
            .map_err(|_| FlError::disconnected("awaiting request from in-process channel"))
    }

    fn send(&mut self, reply: Envelope) -> Result<()> {
        self.tx
            .send(reply)
            .map_err(|_| FlError::disconnected("sending reply to in-process channel"))
    }

    fn descriptor(&self) -> String {
        "in-process:channel".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DeviceProfile;
    use crate::message::{Hello, HelloAck, MessageKind};
    use crate::trainer::PlainSgdTrainer;
    use crate::transport::{ClientSession, RemoteClient};
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
    fn channel_pair_serves_a_session_on_a_thread() {
        let (server_ep, client_ep) = channel_pair();
        let session = ClientSession::new(fl_client(3), client_ep);
        let handle = std::thread::spawn(move || session.serve());
        let mut remote = RemoteClient::connect(Box::new(server_ep)).unwrap();
        assert_eq!(remote.id(), 3);
        remote.goodbye().unwrap();
        let client = handle.join().unwrap().unwrap();
        assert_eq!(client.id(), 3);
    }

    #[test]
    fn hung_up_channel_is_a_transport_error_with_io_source() {
        let (mut server_ep, client_ep) = channel_pair();
        drop(client_ep);
        let err = server_ep
            .exchange(Envelope::pack(MessageKind::Hello, &Hello::current()))
            .unwrap_err();
        match &err {
            FlError::Transport { source, .. } => {
                assert_eq!(source.kind(), std::io::ErrorKind::BrokenPipe);
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn local_endpoint_answers_hello_inline() {
        let mut ep = LocalEndpoint::new(fl_client(9));
        let reply = ep
            .exchange(Envelope::pack(MessageKind::Hello, &Hello::current()))
            .unwrap();
        let ack: HelloAck = reply.open(MessageKind::HelloAck).unwrap();
        assert_eq!(ack.client_id, 9);
    }
}
