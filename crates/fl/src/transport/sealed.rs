//! Trusted I/O over any transport (paper §7.3).
//!
//! Wraps a pair of endpoints in `gradsec-tee::tiop`'s [`SecureChannel`]:
//! every envelope is encoded, sealed into an authenticated, sequenced
//! [`Frame`], and shipped inside a [`MessageKind::Sealed`] carrier
//! envelope. The bytes the normal world (or the network) sees are
//! ciphertext; replay, reorder and tampering are all detected by the
//! channel. Because sealing happens *above* the byte seam, it composes
//! with every backend — in-process and TCP alike.

use gradsec_tee::tiop::{Frame, Role, SecureChannel};

use crate::message::{decode, encode, Envelope, MessageKind};
use crate::transport::{ClientEndpoint, ServerEndpoint};
use crate::{FlError, Result};

fn seal_envelope(channel: &mut SecureChannel, envelope: &Envelope) -> Envelope {
    let frame = channel.seal(&encode(envelope));
    Envelope {
        version: envelope.version,
        kind: MessageKind::Sealed,
        payload: encode(&frame),
    }
}

fn open_envelope(channel: &mut SecureChannel, carrier: &Envelope) -> Result<Envelope> {
    if carrier.kind != MessageKind::Sealed {
        return Err(FlError::Protocol {
            reason: format!("expected a sealed frame, got {:?}", carrier.kind),
        });
    }
    let frame: Frame = decode(&carrier.payload)?;
    let plain = channel.open(&frame)?;
    decode(&plain)
}

/// A [`ServerEndpoint`] whose traffic is sealed through the trusted I/O
/// path.
pub struct SealedServerEndpoint<E: ServerEndpoint> {
    inner: E,
    channel: SecureChannel,
}

impl<E: ServerEndpoint> SealedServerEndpoint<E> {
    /// Wraps `inner`, deriving directional keys from the shared secret
    /// established out-of-band through remote attestation.
    pub fn established(inner: E, shared_secret: &[u8]) -> Self {
        SealedServerEndpoint {
            inner,
            channel: SecureChannel::established(shared_secret, Role::Server),
        }
    }
}

impl<E: ServerEndpoint> ServerEndpoint for SealedServerEndpoint<E> {
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        let sealed = seal_envelope(&mut self.channel, &request);
        self.inner.begin(sealed)
    }

    fn finish(&mut self) -> Result<Envelope> {
        let reply = self.inner.finish()?;
        open_envelope(&mut self.channel, &reply)
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        let sealed = seal_envelope(&mut self.channel, &message);
        self.inner.notify(sealed)
    }

    fn descriptor(&self) -> String {
        format!("sealed:{}", self.inner.descriptor())
    }
}

/// A [`ClientEndpoint`] whose traffic is sealed through the trusted I/O
/// path.
pub struct SealedClientEndpoint<E: ClientEndpoint> {
    inner: E,
    channel: SecureChannel,
}

impl<E: ClientEndpoint> SealedClientEndpoint<E> {
    /// Wraps `inner` with the client-role keys of the shared secret.
    pub fn established(inner: E, shared_secret: &[u8]) -> Self {
        SealedClientEndpoint {
            inner,
            channel: SecureChannel::established(shared_secret, Role::Client),
        }
    }
}

impl<E: ClientEndpoint> ClientEndpoint for SealedClientEndpoint<E> {
    fn recv(&mut self) -> Result<Envelope> {
        let carrier = self.inner.recv()?;
        open_envelope(&mut self.channel, &carrier)
    }

    fn send(&mut self, reply: Envelope) -> Result<()> {
        let sealed = seal_envelope(&mut self.channel, &reply);
        self.inner.send(sealed)
    }

    fn descriptor(&self) -> String {
        format!("sealed:{}", self.inner.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::message::Hello;
    use crate::trainer::PlainSgdTrainer;
    use crate::transport::inprocess::channel_pair;
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
    fn sealed_session_handshakes_and_says_goodbye() {
        let (server_ep, client_ep) = channel_pair();
        let sealed_client = SealedClientEndpoint::established(client_ep, b"shared-secret");
        let session = ClientSession::new(fl_client(5), sealed_client);
        let handle = std::thread::spawn(move || session.serve());
        let sealed_server = SealedServerEndpoint::established(server_ep, b"shared-secret");
        let mut remote = RemoteClient::connect(Box::new(sealed_server)).unwrap();
        assert_eq!(remote.id(), 5);
        remote.goodbye().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn wire_bytes_are_ciphertext_and_roundtrip() {
        let mut server = SecureChannel::established(b"secret", Role::Server);
        let mut client = SecureChannel::established(b"secret", Role::Client);
        let hello = Envelope::pack(MessageKind::Hello, &Hello::current());
        let plain_bytes = encode(&hello);
        let carrier = seal_envelope(&mut server, &hello);
        // What crosses the wire is a Sealed carrier whose payload does not
        // contain the plaintext envelope.
        assert_eq!(carrier.kind, MessageKind::Sealed);
        let frame: Frame = decode(&carrier.payload).unwrap();
        assert_ne!(frame.ciphertext, plain_bytes);
        let opened = open_envelope(&mut client, &carrier).unwrap();
        assert_eq!(opened, hello);
    }

    #[test]
    fn replayed_carrier_is_rejected() {
        let mut server = SecureChannel::established(b"secret", Role::Server);
        let mut client = SecureChannel::established(b"secret", Role::Client);
        let carrier = seal_envelope(
            &mut server,
            &Envelope::pack(MessageKind::Hello, &Hello::current()),
        );
        open_envelope(&mut client, &carrier).unwrap();
        let err = open_envelope(&mut client, &carrier).unwrap_err();
        assert!(matches!(err, FlError::Tee(_)), "{err:?}");
    }

    #[test]
    fn mismatched_secrets_fail_integrity() {
        let (server_ep, client_ep) = channel_pair();
        let sealed_client = SealedClientEndpoint::established(client_ep, b"secret-b");
        let session = ClientSession::new(fl_client(2), sealed_client);
        let handle = std::thread::spawn(move || session.serve());
        let sealed_server = SealedServerEndpoint::established(server_ep, b"secret-a");
        let err = RemoteClient::connect(Box::new(sealed_server)).unwrap_err();
        // Either the client-side open failed (session tears down, channel
        // hangs up → transport error) or the server rejects the reply MAC.
        assert!(
            matches!(err, FlError::Tee(_) | FlError::Transport { .. }),
            "{err:?}"
        );
        let _ = handle.join().unwrap();
    }
}
