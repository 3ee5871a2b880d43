//! Multiplexed TCP transport: a fixed pool of event-loop threads driving
//! tens of thousands of client sessions over nonblocking sockets.
//!
//! One blocking service thread per client would stall a socket-backed
//! fleet around the OS thread limit long before the sharded engine
//! saturates. This module is the *client side* of a socket fleet
//! instead: [`MuxFleet`] spawns `loops` event-loop threads (one per
//! core by default), each owning its share of the fleet as nonblocking
//! sockets registered with a [`Poller`]. A
//! per-session `Session` state machine reassembles [`Envelope`] frames
//! from partial reads ([`FrameReassembler`]), dispatches them through the
//! ordinary `ClientHandler`, and queues the encoded reply in a bounded
//! per-session write buffer — when the buffer backs up past the
//! configured bound, that session's reads pause until the peer drains it
//! (backpressure, never unbounded queueing).
//!
//! The server side is plain blocking sockets: the engine drives
//! [`FramedStream`](super::tcp::FramedStream)s
//! (optionally wrapped by `faults::FaultyEndpoint`),
//! a window of them at a time (the transport's `slide`) so the loops
//! have many requests to serve per wake-up, and completed uploads feed
//! the round's commit, whose exact fold no arrival order moves — so a
//! mux round is bit-identical to the in-process round; only the pipe
//! changed. Teardown follows the
//! protocol's `Goodbye` discipline: a session that receives `Goodbye`
//! drains its write queue before closing, and [`MuxFleet::join`] bounds
//! the event-loop join with a grace deadline plus a shutdown flag every
//! loop polls, so a lost goodbye can stall teardown by at most one poll
//! interval past the grace, never forever.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::BytesMut;
use gradsec_tensor::ops::threads;

use crate::client::FlClient;
use crate::config::MuxOptions;
use crate::message::{parse_envelope_head, Envelope, EnvelopeHead, Wire, ENVELOPE_HEADER_LEN};
use crate::transport::poller::{Interest, PollEvent, Poller};
use crate::transport::ClientHandler;
use crate::{FlError, Result};

/// How long the event loops sleep between readiness checks when idle —
/// also the latency bound on noticing the shutdown flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);

/// Default grace [`MuxFleet::join`] waits for sessions to finish
/// naturally before forcing the shutdown flag.
pub const DEFAULT_JOIN_GRACE: Duration = Duration::from_secs(30);

/// Incremental [`Envelope`] parser for nonblocking sockets: feed it byte
/// chunks as they arrive — any split, down to one byte at a time — and it
/// emits each envelope exactly once, however the header/payload
/// boundaries straddle the chunks. Validation (magic, kind tag, hostile
/// length prefixes) is `parse_envelope_head`, the same decoder the
/// blocking reader uses, so both paths reject garbage identically.
#[derive(Debug, Default)]
pub struct FrameReassembler {
    header: [u8; ENVELOPE_HEADER_LEN],
    header_filled: usize,
    head: Option<EnvelopeHead>,
    payload: Vec<u8>,
    payload_filled: usize,
}

impl FrameReassembler {
    /// An empty reassembler, mid-frame nowhere.
    pub fn new() -> Self {
        FrameReassembler::default()
    }

    /// `true` while a partially received frame is buffered (EOF here
    /// means the peer died mid-envelope).
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.head.is_some()
    }

    /// Consumes one received chunk, appending every envelope it completes
    /// to `out` (possibly none, possibly several when frames coalesce).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Protocol`] on bad magic, an unknown kind or a
    /// hostile payload length — after which the stream is unframeable and
    /// the session must close.
    pub fn feed(&mut self, mut chunk: &[u8], out: &mut Vec<Envelope>) -> Result<()> {
        loop {
            match self.head {
                None => {
                    if chunk.is_empty() {
                        return Ok(());
                    }
                    let want = ENVELOPE_HEADER_LEN - self.header_filled;
                    let take = want.min(chunk.len());
                    self.header[self.header_filled..self.header_filled + take]
                        .copy_from_slice(&chunk[..take]);
                    self.header_filled += take;
                    chunk = &chunk[take..];
                    if self.header_filled == ENVELOPE_HEADER_LEN {
                        let head = parse_envelope_head(&self.header)?;
                        // This buffer becomes the envelope's owned payload
                        // (moved out below), not per-frame scratch churn.
                        self.payload = vec![0u8; head.payload_len];
                        self.payload_filled = 0;
                        self.head = Some(head);
                    }
                }
                Some(head) => {
                    if self.payload_filled < head.payload_len {
                        if chunk.is_empty() {
                            return Ok(());
                        }
                        let want = head.payload_len - self.payload_filled;
                        let take = want.min(chunk.len());
                        self.payload[self.payload_filled..self.payload_filled + take]
                            .copy_from_slice(&chunk[..take]);
                        self.payload_filled += take;
                        chunk = &chunk[take..];
                    }
                    // Completion is checked whether or not input remains:
                    // a zero-payload frame (Goodbye) whose header ends a
                    // chunk must be emitted *now*, not when the next
                    // chunk arrives — there may never be one.
                    if self.payload_filled == head.payload_len {
                        out.push(Envelope {
                            kind: head.kind,
                            payload: std::mem::take(&mut self.payload),
                        });
                        self.head = None;
                        self.header_filled = 0;
                        self.payload_filled = 0;
                    }
                }
            }
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Handling requests.
    Serving,
    /// `Goodbye` received: flush the remaining write queue, then close.
    Draining,
}

/// What one [`Session::advance`] call concluded.
enum Advance {
    /// The session is still live; keep it registered.
    Live,
    /// The session completed (goodbye received and write queue drained).
    Finished,
}

/// One multiplexed client session: a nonblocking socket plus the state
/// to resume it at any byte boundary.
struct Session {
    stream: TcpStream,
    peer: String,
    handler: ClientHandler,
    rx: FrameReassembler,
    /// Queued reply bytes (encode scratch reused across frames).
    wbuf: BytesMut,
    /// How much of `wbuf` has already been written to the socket.
    wpos: usize,
    phase: Phase,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Completed frames parked between feed and dispatch (reused).
    frames: Vec<Envelope>,
}

impl Session {
    fn connect(addr: SocketAddr, client: FlClient) -> Result<Session> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| FlError::transport("connecting mux session to server", e))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_owned());
        stream
            .set_nodelay(true)
            .map_err(|e| FlError::transport(format!("configuring mux socket to {peer}"), e))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| FlError::transport(format!("configuring mux socket to {peer}"), e))?;
        Ok(Session {
            stream,
            peer,
            handler: ClientHandler::new(client),
            rx: FrameReassembler::new(),
            wbuf: BytesMut::new(),
            wpos: 0,
            phase: Phase::Serving,
            interest: Interest::READ,
            frames: Vec::new(),
        })
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The interest this session wants *now*: reads while serving and not
    /// backpressured, writes while reply bytes are queued.
    fn desired_interest(&self, write_bound: usize) -> Interest {
        Interest {
            readable: self.phase == Phase::Serving && self.pending_write() < write_bound,
            writable: self.pending_write() > 0,
        }
    }

    /// Writes queued bytes until the socket would block or the queue
    /// empties (then the scratch resets so its capacity is reused).
    fn flush(&mut self) -> Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf.as_slice()[self.wpos..]) {
                Ok(0) => {
                    return Err(FlError::disconnected(format!(
                        "mux peer {} stopped accepting bytes",
                        self.peer
                    )))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(FlError::transport(
                        format!("writing to mux peer {}", self.peer),
                        e,
                    ))
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Drives the session as far as the socket allows: flush queued
    /// writes, then (while serving and under the write bound) read, parse
    /// and dispatch frames, queueing replies.
    ///
    /// # Errors
    ///
    /// Propagates pipe failures and framing violations; the caller
    /// retires the session, recording the error.
    fn advance(&mut self, chunk: &mut [u8], write_bound: usize) -> Result<Advance> {
        self.flush()?;
        while self.phase == Phase::Serving && self.pending_write() < write_bound {
            match self.stream.read(chunk) {
                Ok(0) => {
                    // EOF without a goodbye: the server is gone, and the
                    // session ends with a disconnect error.
                    return Err(FlError::disconnected(format!(
                        "mux peer {} closed mid-session",
                        self.peer
                    )));
                }
                Ok(n) => {
                    let mut frames = std::mem::take(&mut self.frames);
                    frames.clear();
                    let fed = self.rx.feed(&chunk[..n], &mut frames);
                    for envelope in frames.drain(..) {
                        match self.handler.handle(&envelope) {
                            Some(reply) => reply.encode_into(&mut self.wbuf),
                            None => self.phase = Phase::Draining,
                        }
                    }
                    self.frames = frames;
                    fed?;
                    self.flush()?;
                    // A short read emptied the socket. The pollers are
                    // level-triggered, so whatever arrives next raises a
                    // new event; reading again now would only learn that.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(FlError::transport(
                        format!("reading from mux peer {}", self.peer),
                        e,
                    ))
                }
            }
        }
        if self.phase == Phase::Draining {
            self.flush()?;
            if self.pending_write() == 0 {
                return Ok(Advance::Finished);
            }
        }
        Ok(Advance::Live)
    }
}

/// What one event loop returns: the sessions it served (each client's
/// handler, trained state and delta view included) plus the first session
/// error it saw, if any — a failed connect included.
struct LoopOutcome {
    handlers: Vec<ClientHandler>,
    error: Option<FlError>,
}

/// One event-loop thread: connects its share of the fleet, registers
/// every socket, then polls readiness until all sessions finish (goodbye
/// received, queue drained) or the shutdown flag trips.
fn run_loop(
    addr: SocketAddr,
    fleet: Vec<FlClient>,
    read_chunk: usize,
    write_bound: usize,
    shutdown: Arc<AtomicBool>,
    early_error: Arc<Mutex<Option<FlError>>>,
) -> LoopOutcome {
    fn record(slot: &mut Option<FlError>, e: FlError) {
        slot.get_or_insert(e);
    }
    let mut outcome = LoopOutcome {
        handlers: Vec::with_capacity(fleet.len()),
        error: None,
    };
    let mut poller = Poller::new();
    let mut sessions: Vec<Option<Session>> = Vec::with_capacity(fleet.len());
    for client in fleet {
        match Session::connect(addr, client) {
            Ok(session) => {
                let token = sessions.len();
                match poller.register(&session.stream, token, session.interest) {
                    Ok(()) => sessions.push(Some(session)),
                    Err(e) => {
                        outcome.handlers.push(session.handler);
                        record(&mut outcome.error, e);
                    }
                }
            }
            Err(e) => {
                // Surface connect failures to the builder immediately —
                // its accept loop is waiting for this socket and must not
                // run out its deadline discovering the failure.
                let mut early = early_error.lock().expect("mux error slot poisoned");
                early.get_or_insert_with(|| FlError::Protocol {
                    reason: format!("mux session failed to connect: {e}"),
                });
                drop(early);
                record(&mut outcome.error, e);
            }
        }
    }
    let mut live = sessions.iter().filter(|s| s.is_some()).count();
    let mut chunk = vec![0u8; read_chunk.max(ENVELOPE_HEADER_LEN)];
    let mut events: Vec<PollEvent> = Vec::new();
    while live > 0 && !shutdown.load(Ordering::Relaxed) {
        if let Err(e) = poller.wait(&mut events, POLL_TIMEOUT) {
            record(&mut outcome.error, e);
            break;
        }
        for &PollEvent { token, .. } in &events {
            let Some(slot) = sessions.get_mut(token) else {
                continue;
            };
            let Some(session) = slot.as_mut() else {
                continue;
            };
            let advanced = session.advance(&mut chunk, write_bound);
            let finished = match &advanced {
                Ok(Advance::Live) => {
                    let want = session.desired_interest(write_bound);
                    if want != session.interest {
                        if let Err(e) = poller.modify(&session.stream, token, want) {
                            record(&mut outcome.error, e);
                            true
                        } else {
                            session.interest = want;
                            false
                        }
                    } else {
                        false
                    }
                }
                Ok(Advance::Finished) | Err(_) => true,
            };
            if let Err(e) = advanced {
                record(&mut outcome.error, e);
            }
            if finished {
                let session = slot.take().expect("session checked live above");
                if let Err(e) = poller.deregister(&session.stream, token) {
                    record(&mut outcome.error, e);
                }
                outcome.handlers.push(session.handler);
                live -= 1;
                // The stream drops (closes) here.
            }
        }
    }
    // Forced shutdown (or a poller failure): retire whatever remains,
    // recording the cut-off unless a more specific error already did.
    for slot in &mut sessions {
        if let Some(session) = slot.take() {
            record(
                &mut outcome.error,
                FlError::disconnected(format!(
                    "mux session to {} cut off at event-loop shutdown",
                    session.peer
                )),
            );
            outcome.handlers.push(session.handler);
        }
    }
    outcome
}

/// The client side of a multiplexed fleet: a handle over the event-loop
/// threads serving every session. Created by the federation builder for
/// [`TransportKind::TcpMux`](crate::config::TransportKind::TcpMux);
/// joined (with a grace bound) at teardown.
pub struct MuxFleet {
    handles: Vec<JoinHandle<LoopOutcome>>,
    /// Never carries a message: every loop holds a sender until it
    /// returns or unwinds, so this disconnects once the last loop ended.
    exited: mpsc::Receiver<()>,
    shutdown: Arc<AtomicBool>,
    early_error: Arc<Mutex<Option<FlError>>>,
    loops: usize,
    sessions: usize,
}

impl std::fmt::Debug for MuxFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxFleet")
            .field("loops", &self.loops)
            .field("sessions", &self.sessions)
            .finish()
    }
}

impl MuxFleet {
    /// Spawns the event-loop pool and hands it the fleet: clients are
    /// dealt round-robin across `MuxOptions::effective_loops` threads,
    /// each of which connects its share to `addr` and starts polling. The
    /// server side accepts those connections with
    /// [`TcpListenerEndpoint::accept`](super::tcp::TcpListenerEndpoint::accept)
    /// and handshakes them through
    /// [`RemoteClient::connect`](super::RemoteClient::connect). A single
    /// device is a one-client fleet: `join` hands that client back once
    /// the server says goodbye.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for invalid options. Connect
    /// failures inside the loops surface through
    /// `take_early_error` and
    /// [`join`](Self::join), not here.
    pub fn launch(
        addr: SocketAddr,
        fleet: Vec<FlClient>,
        options: &MuxOptions,
    ) -> Result<MuxFleet> {
        options.validate()?;
        let sessions = fleet.len();
        let loops = options.effective_loops().min(sessions.max(1));
        let mut per_loop: Vec<Vec<FlClient>> = (0..loops).map(|_| Vec::new()).collect();
        for (i, client) in fleet.into_iter().enumerate() {
            per_loop[i % loops].push(client);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let early_error = Arc::new(Mutex::new(None));
        let read_chunk = options.read_chunk;
        let write_bound = options.write_bound;
        // Clients train on their loop's thread: split the kernel budget.
        let kernel_threads = threads::budget() / loops;
        let (exit, exited) = mpsc::channel();
        let handles = per_loop
            .into_iter()
            .map(|share| {
                let shutdown = shutdown.clone();
                let early_error = early_error.clone();
                spawn_loop(exit.clone(), move || {
                    threads::with_budget(kernel_threads, || {
                        run_loop(addr, share, read_chunk, write_bound, shutdown, early_error)
                    })
                })
            })
            .collect();
        Ok(MuxFleet {
            handles,
            exited,
            shutdown,
            early_error,
            loops,
            sessions,
        })
    }

    /// Takes the first connect-time failure a loop reported, if any —
    /// polled by the builder while it waits for the fleet's connections,
    /// so a refused connect fails the build immediately instead of
    /// timing out the accept deadline.
    pub(crate) fn take_early_error(&self) -> Option<FlError> {
        self.early_error
            .lock()
            .expect("mux error slot poisoned")
            .take()
    }

    /// Joins the event loops with watchdog discipline: waits up to
    /// `grace` for every session to finish naturally (goodbye received,
    /// write queue drained), then trips the shutdown flag — which every
    /// loop checks at least once per poll interval — and joins the
    /// now-bounded threads. Returns the served clients, or the first
    /// session/loop error.
    ///
    /// # Errors
    ///
    /// Returns the first error any session or loop recorded, a cut-off
    /// disconnect for sessions that outlived the grace, or
    /// [`FlError::Protocol`] for a panicked loop thread.
    pub fn join(&mut self, grace: Duration) -> Result<Vec<FlClient>> {
        let handlers = self.join_handlers(grace)?;
        Ok(handlers
            .into_iter()
            .map(ClientHandler::into_client)
            .collect())
    }

    /// [`join`](Self::join), handing back each session's handler.
    ///
    /// The first error is read from the loops' outcomes in loop order,
    /// never from the early-error slot: every early error is also in its
    /// loop's outcome, while the slot holds whichever loop posted first —
    /// and one the builder already took is no longer there at all.
    pub(crate) fn join_handlers(&mut self, grace: Duration) -> Result<Vec<ClientHandler>> {
        if self.exited.recv_timeout(grace) == Err(RecvTimeoutError::Timeout) {
            self.shutdown.store(true, Ordering::Relaxed);
        }
        let mut handlers = Vec::with_capacity(self.sessions);
        let mut first_err = None;
        for handle in self.handles.drain(..) {
            match handle.join() {
                Ok(mut outcome) => {
                    handlers.append(&mut outcome.handlers);
                    if let Some(e) = outcome.error {
                        first_err.get_or_insert(e);
                    }
                }
                Err(_) => {
                    first_err.get_or_insert(FlError::Protocol {
                        reason: "mux event-loop thread panicked".to_owned(),
                    });
                }
            }
        }
        match first_err {
            None => Ok(handlers),
            Some(e) => Err(e),
        }
    }
}

/// Spawns one event loop that holds `exit` — a sender of
/// [`MuxFleet::exited`] — until `body` returns or unwinds, so `join` wakes
/// as soon as the last loop ends, a panicked one included.
fn spawn_loop(
    exit: mpsc::Sender<()>,
    body: impl FnOnce() -> LoopOutcome + Send + 'static,
) -> JoinHandle<LoopOutcome> {
    std::thread::spawn(move || {
        let _exit = exit;
        body()
    })
}

impl Drop for MuxFleet {
    fn drop(&mut self) {
        // Best effort on abnormal paths: force the loops down and reap
        // them so no event-loop thread outlives the federation.
        if !self.handles.is_empty() {
            self.shutdown.store(true, Ordering::Relaxed);
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DeviceProfile;
    use crate::codec::CodecKind;
    use crate::message::{encode, Hello, MessageKind};
    use crate::trainer::PlainSgdTrainer;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;
    use std::sync::Arc;
    use std::time::Instant;

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

    fn hello_frame() -> (Envelope, Vec<u8>) {
        let envelope = Envelope::pack(MessageKind::Hello, &Hello::with_codec(CodecKind::Identity));
        let bytes = encode(&envelope);
        (envelope, bytes)
    }

    #[test]
    fn reassembler_handles_one_byte_feeds() {
        let (envelope, bytes) = hello_frame();
        let mut rx = FrameReassembler::new();
        let mut out = Vec::new();
        for b in &bytes {
            rx.feed(std::slice::from_ref(b), &mut out).unwrap();
        }
        assert_eq!(out, vec![envelope]);
        assert!(!rx.mid_frame());
    }

    #[test]
    fn reassembler_handles_coalesced_frames() {
        let (envelope, bytes) = hello_frame();
        let goodbye = Envelope::control(MessageKind::Goodbye);
        let mut wire = bytes.clone();
        wire.extend_from_slice(&encode(&goodbye));
        wire.extend_from_slice(&bytes[..5]); // trailing partial header
        let mut rx = FrameReassembler::new();
        let mut out = Vec::new();
        rx.feed(&wire, &mut out).unwrap();
        assert_eq!(out, vec![envelope, goodbye]);
        assert!(rx.mid_frame());
    }

    #[test]
    fn reassembler_rejects_bad_magic() {
        let mut rx = FrameReassembler::new();
        let mut out = Vec::new();
        let err = rx.feed(&[0u8; ENVELOPE_HEADER_LEN], &mut out).unwrap_err();
        assert!(matches!(err, FlError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn fleet_serves_a_handshake_and_goodbye() {
        use crate::transport::{tcp, RemoteClient};
        let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fleet = MuxFleet::launch(
            addr,
            vec![fl_client(3), fl_client(8)],
            &MuxOptions::default(),
        )
        .unwrap();
        let mut remotes: Vec<RemoteClient> = (0..2)
            .map(|_| {
                let endpoint = listener.accept().unwrap();
                RemoteClient::connect(Box::new(endpoint)).unwrap()
            })
            .collect();
        remotes.sort_by_key(RemoteClient::id);
        assert_eq!(remotes[0].id(), 3);
        assert_eq!(remotes[1].id(), 8);
        for mut remote in remotes {
            remote.goodbye().unwrap();
        }
        let mut clients = fleet.join(DEFAULT_JOIN_GRACE).unwrap();
        clients.sort_by_key(FlClient::id);
        assert_eq!(clients.len(), 2);
        assert_eq!(clients[0].id(), 3);
    }

    /// A loop that panics still ends `join`'s wait at once — its exit
    /// sender drops as it unwinds — and `join` reports the panic.
    #[test]
    fn join_wakes_at_once_when_a_loop_panics() {
        let (exit, exited) = mpsc::channel();
        let (go, wait) = mpsc::channel::<()>();
        let handle = spawn_loop(exit, move || {
            wait.recv().expect("the test sends go");
            panic!("event loop died")
        });
        let mut fleet = MuxFleet {
            handles: vec![handle],
            exited,
            shutdown: Arc::new(AtomicBool::new(false)),
            early_error: Arc::new(Mutex::new(None)),
            loops: 1,
            sessions: 0,
        };
        let start = Instant::now();
        go.send(()).unwrap();
        let err = fleet.join(Duration::from_secs(60)).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "join waited out its grace"
        );
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(!fleet.shutdown.load(Ordering::Relaxed), "the grace ran out");
    }

    #[test]
    fn join_bounds_a_lost_goodbye() {
        use crate::transport::tcp;
        let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fleet = MuxFleet::launch(addr, vec![fl_client(1)], &MuxOptions::default()).unwrap();
        // Accept but never say goodbye, and keep the endpoint alive so the
        // session cannot even observe a close.
        let endpoint = listener.accept().unwrap();
        let start = Instant::now();
        let err = fleet.join(Duration::from_millis(200)).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "join was not bounded"
        );
        assert!(matches!(err, FlError::Transport { .. }), "{err:?}");
        drop(endpoint);
    }

    /// The one liveness check `wire_fleet`'s accept loop keeps: a refused
    /// connect reaches the builder through `take_early_error` at once,
    /// instead of through the 30 s accept deadline. A thread-per-client
    /// fleet would have left its session threads detached on this path;
    /// here `join` (and, on an abandoned build, `Drop`) reaps every loop.
    #[test]
    fn connect_failure_surfaces_as_early_error() {
        // A listener that is bound and immediately dropped leaves a port
        // that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let options = MuxOptions {
            loops: 2,
            ..MuxOptions::default()
        };
        let mut fleet = MuxFleet::launch(addr, vec![fl_client(1), fl_client(2)], &options).unwrap();
        assert_eq!(fleet.loops, 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        let early = loop {
            if let Some(e) = fleet.take_early_error() {
                break e;
            }
            assert!(Instant::now() < deadline, "connect failure never surfaced");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(matches!(early, FlError::Protocol { .. }), "{early:?}");
        // Neither loop has a live session, so both exit on their own: the
        // join returns the refused connect itself well inside its grace.
        let grace = Duration::from_secs(5);
        let start = Instant::now();
        let err = fleet.join(grace).unwrap_err();
        assert!(start.elapsed() < grace, "join ran out its grace");
        assert!(matches!(err, FlError::Transport { .. }), "{err:?}");
        assert!(fleet.handles.is_empty(), "a loop thread was left unjoined");
    }
}
