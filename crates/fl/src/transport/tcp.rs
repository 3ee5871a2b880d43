//! TCP transport: the same envelopes over real sockets, framed in one
//! place.
//!
//! The [`Envelope`] binary layout doubles as the socket frame — a fixed
//! 11-byte header (magic, kind, payload length) followed by
//! exactly `payload length` bytes — so the reader never needs to guess
//! message boundaries and a hostile length prefix is rejected before any
//! allocation (`MAX_ENVELOPE_PAYLOAD`).
//!
//! Every blocking socket is a [`FramedStream`]: the FL server's end of a
//! client session (whose client side is a [`mux`](super::mux) session —
//! one device is a one-session [`MuxFleet`](super::mux::MuxFleet)) and
//! both ends of a coordinator's shard-control channel. The FL server
//! [`bind`]s and accepts one connection per peer; a fleet whose peers all
//! connect back at once — mux sessions, shard servers — goes through the
//! one crate-private accept loop, which waits on a [`Poller`] and fails
//! at once on a dead peer or a passed deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::message::{parse_envelope_head, Envelope, Wire, ENVELOPE_HEADER_LEN};
use crate::transport::poller::Poller;
use crate::transport::ServerEndpoint;
use crate::{FlError, Result};

/// One blocking envelope stream: the FL server's end of a client session,
/// or either end of a shard-control channel. It names its peer in every
/// error and counts the envelope bytes it carried each way.
#[derive(Debug)]
pub struct FramedStream {
    stream: TcpStream,
    peer: String,
    /// Write buffer reused across frames: each envelope is encoded into
    /// it in place and its capacity survives the call, so steady-state
    /// rounds do one allocation per *session*, not one per envelope.
    scratch: BytesMut,
    sent: u64,
    received: u64,
}

impl FramedStream {
    /// Frames a connected socket: blocking, since it may come from a
    /// polled listener, and with Nagle off, which only adds latency to
    /// one small frame per exchange.
    pub(crate) fn new(stream: TcpStream) -> Result<Self> {
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "<unknown peer>".to_owned(), |a| a.to_string());
        stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| FlError::transport(format!("configuring socket to {peer}"), e))?;
        Ok(FramedStream {
            stream,
            peer,
            scratch: BytesMut::new(),
            sent: 0,
            received: 0,
        })
    }

    /// Writes one envelope (header + payload, one buffer).
    pub(crate) fn send(&mut self, envelope: &Envelope) -> Result<()> {
        self.scratch.clear();
        envelope.encode_into(&mut self.scratch);
        self.stream
            .write_all(self.scratch.as_slice())
            .and_then(|()| self.stream.flush())
            .map_err(|e| FlError::transport(format!("writing envelope to {}", self.peer), e))?;
        self.sent += self.scratch.len() as u64;
        Ok(())
    }

    /// Reads one envelope: the fixed header first (parsed in place by
    /// [`parse_envelope_head`] — no buffer allocation), then the
    /// advertised payload length read directly into the envelope's own
    /// buffer (no reassembly or second decode pass — this is the hot
    /// round path, and the payload `Vec` is the envelope's storage, not
    /// scratch).
    pub(crate) fn recv(&mut self) -> Result<Envelope> {
        let peer = &self.peer;
        let mut header = [0u8; ENVELOPE_HEADER_LEN];
        self.stream
            .read_exact(&mut header)
            .map_err(|e| FlError::transport(format!("reading envelope header from {peer}"), e))?;
        let head = parse_envelope_head(&header).map_err(|e| match e {
            FlError::Protocol { reason } => FlError::Protocol {
                reason: format!("{reason} (from {peer})"),
            },
            other => other,
        })?;
        let mut payload = vec![0u8; head.payload_len];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| FlError::transport(format!("reading envelope payload from {peer}"), e))?;
        self.received += (ENVELOPE_HEADER_LEN + payload.len()) as u64;
        Ok(Envelope {
            kind: head.kind,
            payload,
        })
    }

    /// Envelope bytes `(sent, received)` over this stream so far.
    pub(crate) fn bytes(&self) -> (u64, u64) {
        (self.sent, self.received)
    }
}

impl ServerEndpoint for FramedStream {
    fn begin(&mut self, request: &Envelope) -> Result<bool> {
        self.send(request)?;
        Ok(false)
    }

    fn finish(&mut self) -> Result<Envelope> {
        self.recv()
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        self.send(&message)
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
    pub fn accept(&self) -> Result<FramedStream> {
        let (stream, _) = self
            .listener
            .accept()
            .map_err(|e| FlError::transport("accepting client connection", e))?;
        FramedStream::new(stream)
    }

    /// Deepens the accept backlog toward `backlog` connections (best
    /// effort — see
    /// [`deepen_listen_backlog`](crate::transport::poller::deepen_listen_backlog)).
    /// Call before wiring kilo-client fleets whose sessions all connect
    /// at once: the std default backlog of 128 drops the overflow SYNs
    /// into kernel retry backoff.
    pub(crate) fn deepen_backlog(&self, backlog: u32) -> bool {
        crate::transport::poller::deepen_listen_backlog(&self.listener, backlog)
    }

    /// Accepts exactly `n` connections and returns them framed, in
    /// arrival order. An empty backlog is waited on through a [`Poller`],
    /// which returns as soon as a connection lands — or within a
    /// millisecond, to ask `dead_peer` and look at `deadline` again. A
    /// peer that died before connecting never will, so the first error
    /// `dead_peer` reports fails the accept at once; a passed `deadline`
    /// fails it with a disconnect naming `waiting_for`. The listener is
    /// consumed: it is left non-blocking.
    ///
    /// # Errors
    ///
    /// Returns `dead_peer`'s error, [`FlError::Transport`] on a passed
    /// deadline or an accept or poll failure.
    pub(crate) fn accept_all(
        self,
        n: usize,
        deadline: Instant,
        waiting_for: &str,
        mut dead_peer: impl FnMut() -> Option<FlError>,
    ) -> Result<Vec<FramedStream>> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| FlError::transport("configuring listener", e))?;
        let mut backlog = Poller::new();
        backlog.register_listener(&self.listener, 0)?;
        let mut landed = Vec::new();
        let mut accepted = Vec::with_capacity(n);
        while accepted.len() < n {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    accepted.push(FramedStream::new(stream)?);
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(FlError::transport(format!("accepting {waiting_for}"), e)),
            }
            if let Some(e) = dead_peer() {
                return Err(e);
            }
            if Instant::now() > deadline {
                return Err(FlError::disconnected(format!("waiting for {waiting_for}")));
            }
            backlog.wait(&mut landed, Duration::from_millis(1))?;
        }
        Ok(accepted)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecKind;
    use crate::message::{Hello, MessageKind};

    fn hello() -> Envelope {
        Envelope::pack(MessageKind::Hello, &Hello::with_codec(CodecKind::Identity))
    }

    #[test]
    fn envelope_roundtrips_over_a_socket_pair() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut client = FramedStream::new(TcpStream::connect(addr).unwrap()).unwrap();
            let req = client.recv().unwrap();
            client.send(&req).unwrap(); // echo
            client.bytes()
        });
        let mut server = listener.accept().unwrap();
        let sent = hello();
        let echoed = server.exchange(&sent).unwrap();
        assert_eq!(sent, echoed);
        // Each end counts the whole frame, header included, each way.
        let frame = (ENVELOPE_HEADER_LEN + sent.payload.len()) as u64;
        assert_eq!(server.bytes(), (frame, frame));
        assert_eq!(handle.join().unwrap(), (frame, frame));
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0u8; ENVELOPE_HEADER_LEN]).unwrap();
        });
        let mut server = listener.accept().unwrap();
        let err = server.recv().unwrap_err();
        assert!(matches!(err, FlError::Protocol { .. }), "{err:?}");
        handle.join().unwrap();
    }

    #[test]
    fn closed_peer_is_a_transport_error() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _ = TcpStream::connect(addr).unwrap();
            // drop: connection closes without a byte sent
        });
        let mut server = listener.accept().unwrap();
        client.join().unwrap();
        let err = server.recv().unwrap_err();
        assert!(matches!(err, FlError::Transport { .. }), "{err:?}");
    }

    /// `FramedStream::new` makes its socket blocking whatever it was
    /// handed: a stream explicitly set non-blocking reads a frame its
    /// peer sends only after a pause, where it would otherwise fail the
    /// read with `WouldBlock`.
    #[test]
    fn a_non_blocking_stream_is_framed_blocking() {
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (reading, writer_go) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut peer = listener.accept().unwrap();
            writer_go.recv().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            peer.send(&hello()).unwrap();
            // Held until the frame was read, so the read sees no close.
            writer_go.recv().unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut framed = FramedStream::new(stream).unwrap();
        reading.send(()).unwrap();
        assert_eq!(framed.recv().unwrap(), hello());
        reading.send(()).unwrap();
        writer.join().unwrap();
    }

    /// A dead peer reported by the liveness check fails the accept at
    /// once with the check's own error, long before the deadline — even
    /// with part of the fleet already accepted.
    #[test]
    fn the_accept_loop_fails_at_once_on_a_dead_peer() {
        let listener = bind("127.0.0.1:0").unwrap();
        let _early = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let started = Instant::now();
        let deadline = started + Duration::from_secs(30);
        let err = listener
            .accept_all(2, deadline, "test peers", || {
                Some(FlError::Protocol {
                    reason: "peer 1 exited before connecting".to_owned(),
                })
            })
            .unwrap_err();
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(3), "waited {waited:?}");
        assert!(matches!(err, FlError::Protocol { .. }), "{err:?}");
        assert!(err.to_string().contains("peer 1 exited"), "{err}");
    }

    /// A passed deadline fails the accept with a disconnect that names
    /// what the loop was waiting for.
    #[test]
    fn the_accept_loop_gives_up_at_its_deadline_naming_what_it_waited_for() {
        let listener = bind("127.0.0.1:0").unwrap();
        let err = listener
            .accept_all(1, Instant::now(), "test peers", || None)
            .unwrap_err();
        assert!(matches!(err, FlError::Transport { .. }), "{err:?}");
        assert!(err.to_string().contains("waiting for test peers"), "{err}");
    }

    /// The loop takes exactly `n` connections and hands each back
    /// blocking with Nagle off: a peer that writes only after the server
    /// started reading is read whole, where a non-blocking stream would
    /// fail the read with `WouldBlock`.
    #[test]
    fn the_accept_loop_takes_n_connections_blocking_with_nodelay() {
        const N: usize = 3;
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peers: Vec<TcpStream> = (0..N).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut accepted = listener
            .accept_all(N, deadline, "test peers", || None)
            .unwrap();
        assert_eq!(accepted.len(), N);
        let (reading, writer_go) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            writer_go.recv().unwrap();
            // The pause only makes a non-blocking stream's failure
            // likely; a blocking one passes whatever the timing.
            std::thread::sleep(Duration::from_millis(50));
            for peer in peers {
                FramedStream::new(peer).unwrap().send(&hello()).unwrap();
            }
        });
        reading.send(()).unwrap();
        for stream in &mut accepted {
            assert!(stream.stream.nodelay().unwrap());
            assert_eq!(stream.recv().unwrap(), hello());
        }
        writer.join().unwrap();
    }
}
