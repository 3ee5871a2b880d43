//! TCP transport: the same envelopes over real sockets.
//!
//! The [`Envelope`](crate::message::Envelope) binary layout doubles as
//! the socket frame — a fixed 13-byte header (magic, version, kind,
//! payload length) followed by exactly `payload length` bytes — so the
//! reader never needs to guess message boundaries and a hostile length
//! prefix is rejected before any allocation
//! ([`MAX_ENVELOPE_PAYLOAD`](crate::message::MAX_ENVELOPE_PAYLOAD)).
//!
//! Deployment shape: the FL server [`bind`]s and [`TcpListenerEndpoint::accept`]s
//! one connection per client; a client device [`connect`]s and runs one
//! blocking [`ClientSession`](super::ClientSession) serve loop over its
//! socket. A fleet simulated inside one process connects to the same
//! listener from the [`mux`](super::mux) event loops instead, and the
//! shard-control channel frames its messages with the same
//! `read_envelope` / `write_envelope`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

use bytes::BytesMut;

use crate::message::{parse_envelope_head, Envelope, Wire, ENVELOPE_HEADER_LEN};
use crate::transport::poller::Poller;
use crate::transport::{ClientEndpoint, ServerEndpoint};
use crate::{FlError, Result};

/// Writes one envelope to a stream (header + payload, single buffer).
///
/// `scratch` is the endpoint's write buffer, reused across frames: the
/// envelope is encoded into it in place and its capacity survives the
/// call, so steady-state rounds do one allocation per *session*, not one
/// (or, with the old `encode` → `to_vec` path, two) per envelope.
pub(crate) fn write_envelope<W: Write>(
    w: &mut W,
    scratch: &mut BytesMut,
    envelope: &Envelope,
    peer: &str,
) -> Result<()> {
    scratch.clear();
    envelope.encode_into(scratch);
    w.write_all(scratch.as_slice())
        .and_then(|()| w.flush())
        .map_err(|e| FlError::transport(format!("writing envelope to {peer}"), e))
}

/// Reads one envelope from a stream: fixed header first (parsed in place
/// by [`parse_envelope_head`] — no buffer allocation), then the
/// advertised payload length read directly into the envelope's own
/// buffer (no reassembly or second decode pass — this is the hot round
/// path, and the payload `Vec` is the envelope's storage, not scratch).
pub(crate) fn read_envelope<R: Read>(r: &mut R, peer: &str) -> Result<Envelope> {
    let mut header = [0u8; ENVELOPE_HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| FlError::transport(format!("reading envelope header from {peer}"), e))?;
    let head = parse_envelope_head(&header).map_err(|e| match e {
        FlError::Protocol { reason } => FlError::Protocol {
            reason: format!("{reason} (from {peer})"),
        },
        other => other,
    })?;
    let mut payload = vec![0u8; head.payload_len];
    r.read_exact(&mut payload)
        .map_err(|e| FlError::transport(format!("reading envelope payload from {peer}"), e))?;
    Ok(Envelope {
        version: head.version,
        kind: head.kind,
        payload,
    })
}

fn configure(stream: &TcpStream, peer: &str) -> Result<()> {
    // One small frame per exchange: Nagle only adds latency here.
    stream
        .set_nodelay(true)
        .map_err(|e| FlError::transport(format!("configuring socket to {peer}"), e))
}

/// The server's socket to one connected client.
#[derive(Debug)]
pub struct TcpServerEndpoint {
    stream: TcpStream,
    peer: String,
    /// Per-session write scratch (see [`write_envelope`]).
    scratch: BytesMut,
}

impl ServerEndpoint for TcpServerEndpoint {
    fn begin(&mut self, request: Envelope) -> Result<bool> {
        write_envelope(&mut self.stream, &mut self.scratch, &request, &self.peer)?;
        Ok(false)
    }

    fn finish(&mut self) -> Result<Envelope> {
        read_envelope(&mut self.stream, &self.peer)
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        write_envelope(&mut self.stream, &mut self.scratch, &message, &self.peer)
    }

    fn descriptor(&self) -> String {
        format!("tcp:{}", self.peer)
    }
}

/// The client's socket to the server.
#[derive(Debug)]
pub struct TcpClientEndpoint {
    stream: TcpStream,
    peer: String,
    /// Per-session write scratch (see [`write_envelope`]).
    scratch: BytesMut,
}

impl ClientEndpoint for TcpClientEndpoint {
    fn recv(&mut self) -> Result<Envelope> {
        read_envelope(&mut self.stream, &self.peer)
    }

    fn send(&mut self, reply: Envelope) -> Result<()> {
        write_envelope(&mut self.stream, &mut self.scratch, &reply, &self.peer)
    }

    fn descriptor(&self) -> String {
        format!("tcp:{}", self.peer)
    }
}

/// A listening FL server socket.
#[derive(Debug)]
pub struct TcpListenerEndpoint {
    listener: TcpListener,
}

impl TcpListenerEndpoint {
    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| FlError::transport("querying listener address", e))
    }

    /// Accepts one client connection, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] on accept failure.
    pub fn accept(&self) -> Result<TcpServerEndpoint> {
        let (stream, addr) = self
            .listener
            .accept()
            .map_err(|e| FlError::transport("accepting client connection", e))?;
        self.admit(stream, addr)
    }

    /// Deepens the accept backlog toward `backlog` connections (best
    /// effort — see
    /// [`deepen_listen_backlog`](crate::transport::poller::deepen_listen_backlog)).
    /// Call before wiring kilo-client fleets whose sessions all connect
    /// at once: the std default backlog of 128 drops the overflow SYNs
    /// into kernel retry backoff.
    pub fn deepen_backlog(&self, backlog: u32) -> bool {
        crate::transport::poller::deepen_listen_backlog(&self.listener, backlog)
    }

    /// Switches the listener between blocking accepts (the default) and
    /// polled ones ([`try_accept`](Self::try_accept)) — once per accept
    /// loop, not once per accept.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the socket is gone.
    pub fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        self.listener
            .set_nonblocking(nonblocking)
            .map_err(|e| FlError::transport("configuring listener", e))
    }

    /// Registers the listener with `poller` under `token`, so an accept
    /// loop can wait for the backlog to fill instead of napping between
    /// [`try_accept`](Self::try_accept)s.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the poller rejects the watch.
    pub(crate) fn watch(&self, poller: &mut Poller, token: usize) -> Result<()> {
        poller.register_listener(&self.listener, token)
    }

    /// Polls a [non-blocking](Self::set_nonblocking) listener for one
    /// client connection: `Ok(None)` when nobody is waiting. Callers that
    /// interleave accepting with other work (liveness checks, deadlines)
    /// use this instead of [`accept`].
    ///
    /// [`accept`]: TcpListenerEndpoint::accept
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] on accept failure.
    pub fn try_accept(&self) -> Result<Option<TcpServerEndpoint>> {
        match self.listener.accept() {
            Ok((stream, addr)) => self.admit(stream, addr).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(FlError::transport("accepting client connection", e)),
        }
    }

    fn admit(&self, stream: TcpStream, addr: SocketAddr) -> Result<TcpServerEndpoint> {
        let peer = addr.to_string();
        // The listener may have been polled in non-blocking mode; the
        // session socket must block.
        stream
            .set_nonblocking(false)
            .map_err(|e| FlError::transport(format!("configuring socket to {peer}"), e))?;
        configure(&stream, &peer)?;
        Ok(TcpServerEndpoint {
            stream,
            peer,
            scratch: BytesMut::new(),
        })
    }
}

/// Binds the FL server's listening socket (use port 0 for an ephemeral
/// loopback port in tests).
///
/// # Errors
///
/// Returns [`FlError::Transport`] on bind failure.
pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<TcpListenerEndpoint> {
    let listener =
        TcpListener::bind(addr).map_err(|e| FlError::transport("binding server socket", e))?;
    Ok(TcpListenerEndpoint { listener })
}

/// Connects a client device to the FL server.
///
/// # Errors
///
/// Returns [`FlError::Transport`] on connect failure.
pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpClientEndpoint> {
    let stream =
        TcpStream::connect(addr).map_err(|e| FlError::transport("connecting to server", e))?;
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    configure(&stream, &peer)?;
    Ok(TcpClientEndpoint {
        stream,
        peer,
        scratch: BytesMut::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Hello, MessageKind};

    #[test]
    fn envelope_roundtrips_over_a_socket_pair() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut client = connect(addr).unwrap();
            let req = client.recv().unwrap();
            client.send(req).unwrap(); // echo
        });
        let mut server = listener.accept().unwrap();
        let sent = Envelope::pack(MessageKind::Hello, &Hello::current());
        let echoed = server.exchange(sent.clone()).unwrap();
        assert_eq!(sent, echoed);
        handle.join().unwrap();
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(&[0u8; ENVELOPE_HEADER_LEN]).unwrap();
        });
        let mut server = listener.accept().unwrap();
        let err = read_envelope(&mut server.stream, "test").unwrap_err();
        assert!(matches!(err, FlError::Protocol { .. }), "{err:?}");
        handle.join().unwrap();
    }

    #[test]
    fn closed_peer_is_a_transport_error() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _ = connect(addr).unwrap();
            // drop: connection closes without a byte sent
        });
        let mut server = listener.accept().unwrap();
        client.join().unwrap();
        let err = read_envelope(&mut server.stream, "test").unwrap_err();
        assert!(matches!(err, FlError::Transport { .. }), "{err:?}");
    }
}
