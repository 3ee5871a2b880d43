//! Readiness polling for the multiplexed transport.
//!
//! Two implementations behind one [`Poller`] facade:
//!
//! * **epoll** (Linux) — a minimal wrapper over the kernel's readiness
//!   queue, so one event-loop thread can own tens of thousands of
//!   nonblocking sockets and wake only for the ones with work. This is
//!   the only module in the crate allowed to contain `unsafe` code (the
//!   crate is `deny(unsafe_code)` elsewhere): a handful of raw libc
//!   syscall declarations, each wrapped in a safe, errno-checked method.
//! * **portable** — a dependency-free fallback that reports every
//!   registered session as ready and lets the session state machines
//!   discover actual readiness via `WouldBlock`. Correct anywhere
//!   `std::net` works (tests and non-Linux hosts), at the cost of some
//!   idle polling; selected automatically off Linux, or explicitly by
//!   constructing [`Poller::Portable`].
//!
//! Both are *level-triggered*: an event means "this session can make
//! progress now", and the mux event loop advances each flagged session
//! until it hits `WouldBlock` or a short read — so a spurious event is
//! harmless, a missed edge cannot strand a session, and bytes that land
//! after a session stopped reading raise an event of their own.

#![allow(unsafe_code)]

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::{FlError, Result};

/// What a session wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket has bytes to read (or hit EOF/error).
    pub readable: bool,
    /// Wake when the socket can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle session.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — a session with queued reply bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event: the registered token plus what it can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the socket was registered under (the mux uses the
    /// session's slot index).
    pub token: usize,
    /// Reading (or observing EOF/error) will make progress.
    pub readable: bool,
    /// Writing will make progress.
    pub writable: bool,
}

/// A readiness poller: epoll on Linux, the portable scan elsewhere.
#[derive(Debug)]
pub enum Poller {
    /// Kernel readiness queue (Linux only).
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    /// Everything-is-ready fallback driven by `WouldBlock`.
    Portable(PortablePoller),
}

impl Poller {
    /// Builds the best poller for this host: epoll on Linux, the
    /// portable fallback elsewhere — and on an epoll setup failure,
    /// rather than erroring.
    pub fn new() -> Poller {
        #[cfg(target_os = "linux")]
        if let Ok(p) = EpollPoller::new() {
            return Poller::Epoll(p);
        }
        Poller::Portable(PortablePoller::default())
    }

    /// Which implementation backs this poller (for logs and benches).
    pub fn kind(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Portable(_) => "portable",
        }
    }

    /// Starts watching `stream` under `token`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the kernel rejects the watch.
    pub fn register(&mut self, stream: &TcpStream, token: usize, interest: Interest) -> Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(EPOLL_CTL_ADD, stream, token, interest),
            Poller::Portable(p) => {
                p.set(token, Some(interest));
                Ok(())
            }
        }
    }

    /// Starts watching a listening socket under `token`: it reads as
    /// ready while a connection waits to be accepted.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the kernel rejects the watch.
    pub(crate) fn register_listener(&mut self, listener: &TcpListener, token: usize) -> Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(EPOLL_CTL_ADD, listener, token, Interest::READ),
            Poller::Portable(p) => {
                p.set(token, Some(Interest::READ));
                Ok(())
            }
        }
    }

    /// Changes what `token` is woken for.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the kernel rejects the change.
    pub fn modify(&mut self, stream: &TcpStream, token: usize, interest: Interest) -> Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(EPOLL_CTL_MOD, stream, token, interest),
            Poller::Portable(p) => {
                p.set(token, Some(interest));
                Ok(())
            }
        }
    }

    /// Stops watching `token` (call before closing the socket).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the kernel rejects the removal.
    pub fn deregister(&mut self, stream: &TcpStream, token: usize) -> Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(EPOLL_CTL_DEL, stream, token, Interest::READ),
            Poller::Portable(p) => {
                p.set(token, None);
                Ok(())
            }
        }
    }

    /// Waits up to `timeout` and fills `events` with ready sessions
    /// (cleared first; empty after an idle timeout).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the wait itself fails.
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout),
            Poller::Portable(p) => {
                p.wait(events, timeout);
                Ok(())
            }
        }
    }
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

/// The portable fallback: keeps the registered token set and reports all
/// of it as ready after a short nap, leaving actual readiness discovery
/// to the sessions' nonblocking reads/writes (`WouldBlock` means "not
/// yet"). The nap is capped well below the caller's idle timeout so
/// fallback latency stays in the single milliseconds.
#[derive(Debug, Default)]
pub struct PortablePoller {
    watched: Vec<(usize, Interest)>,
}

impl PortablePoller {
    fn set(&mut self, token: usize, interest: Option<Interest>) {
        self.watched.retain(|&(t, _)| t != token);
        if let Some(i) = interest {
            self.watched.push((token, i));
        }
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) {
        if !timeout.is_zero() {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
        }
        events.extend(self.watched.iter().map(|&(token, interest)| PollEvent {
            token,
            readable: interest.readable,
            writable: interest.writable,
        }));
    }
}

// ---------------------------------------------------------------------------
// Linux epoll wrapper (the unsafe island).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: i32 = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: i32 = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: i32 = 3;

#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x010;
#[cfg(target_os = "linux")]
const EPOLLRDHUP: u32 = 0x2000;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
/// every other architecture uses natural alignment — mirroring libc's
/// definition exactly is what keeps the raw syscalls below sound.
#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// The Linux readiness queue: one epoll instance per event-loop thread.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct EpollPoller {
    epfd: i32,
    buf: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> std::io::Result<EpollPoller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // an errno failure, checked before the fd is used anywhere.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(
        &mut self,
        op: i32,
        socket: &impl std::os::fd::AsRawFd,
        token: usize,
        interest: Interest,
    ) -> Result<()> {
        let mut flags = EPOLLRDHUP;
        if interest.readable {
            flags |= EPOLLIN;
        }
        if interest.writable {
            flags |= EPOLLOUT;
        }
        let mut ev = EpollEvent {
            events: flags,
            data: token as u64,
        };
        // SAFETY: `ev` is a live, properly-laid-out epoll_event for the
        // duration of the call; the fd is borrowed from an open
        // socket, so it cannot be closed concurrently.
        let rc = unsafe { epoll_ctl(self.epfd, op, socket.as_raw_fd(), &mut ev) };
        if rc < 0 {
            return Err(FlError::transport(
                "updating epoll interest",
                std::io::Error::last_os_error(),
            ));
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> Result<()> {
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let n = loop {
            // SAFETY: the buffer outlives the call and maxevents matches
            // its length, so the kernel never writes out of bounds.
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(FlError::transport("waiting on epoll", err));
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let flags = { ev.events };
            let data = { ev.data };
            events.push(PollEvent {
                token: data as usize,
                readable: flags & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: flags & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        // A full buffer means more events may be pending: grow so a huge
        // session count cannot starve the tail tokens.
        if n == self.buf.len() {
            self.buf.resize(n * 2, EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: the fd was returned by epoll_create1 and is closed
        // exactly once, here.
        unsafe {
            close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// File-descriptor budget (rlimit) helpers.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;

#[cfg(target_os = "linux")]
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

/// Deepens a bound listener's accept backlog. `std::net::TcpListener`
/// hardwires `listen(fd, 128)`; a kilo-client fleet connecting all at
/// once overflows that queue, and the dropped SYNs land in multi-second
/// kernel retry backoff — slower than any amount of accepting can fix.
/// Calling `listen` again on the bound socket just resizes the queue
/// (the kernel clamps to `net.core.somaxconn`). Best effort: `false`
/// when the host refuses or exposes no such API.
pub fn deepen_listen_backlog(listener: &std::net::TcpListener, backlog: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        let capped = backlog.min(i32::MAX as u32) as i32;
        // SAFETY: the fd is a valid listening socket owned by `listener`
        // for the duration of the call; re-listen only resizes the
        // accept queue.
        let rc = unsafe { listen(listener.as_raw_fd(), capped) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, backlog);
        false
    }
}

/// The process's current open-file soft limit, if the host exposes one.
/// A loopback mux fleet costs **two** descriptors per session (both
/// socket ends live in this process), so size fleets against
/// `(limit - slack) / 2`.
pub fn fd_soft_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a valid, writable RLimit for the call.
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
        if rc == 0 {
            return Some(lim.rlim_cur);
        }
    }
    None
}

/// Raises the open-file soft limit to the hard limit (the unprivileged
/// maximum), returning the resulting soft limit. Best effort: `None`
/// when the host exposes no rlimit API, the prior soft limit when the
/// raise is refused. Call this before building >1k-session socket
/// fleets.
pub fn raise_fd_soft_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a valid, writable RLimit for the call.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return None;
        }
        if lim.rlim_cur < lim.rlim_max {
            let want = RLimit {
                rlim_cur: lim.rlim_max,
                rlim_max: lim.rlim_max,
            };
            // SAFETY: `want` is a valid RLimit; raising soft to hard
            // needs no privilege, and failure leaves the limit as-is.
            if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                return Some(want.rlim_cur);
            }
        }
        Some(lim.rlim_cur)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn drives_readiness(mut poller: Poller) {
        let (a, mut b) = socket_pair();
        a.set_nonblocking(true).unwrap();
        poller.register(&a, 7, Interest::READ).unwrap();

        // Nothing to read yet: an epoll wait comes back empty; the
        // portable poller may report the token, but the socket itself
        // must say WouldBlock.
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(5)).unwrap();
        let mut scratch = [0u8; 8];
        if let Some(ev) = events.iter().find(|e| e.token == 7) {
            assert!(ev.readable);
            let err = (&a).read(&mut scratch).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        }

        // After the peer writes, the token must surface as readable and
        // the bytes must be there.
        b.write_all(b"hi").unwrap();
        b.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "readable never fired");
        }
        let n = (&a).read(&mut scratch).unwrap();
        assert_eq!(&scratch[..n], b"hi");

        // Write interest fires on a fresh socket with buffer space.
        poller.modify(&a, 7, Interest::READ_WRITE).unwrap();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(&a, 7).unwrap();
        poller.wait(&mut events, Duration::from_millis(5)).unwrap();
        assert!(events.iter().all(|e| e.token != 7));
    }

    #[test]
    fn default_poller_drives_readiness() {
        drives_readiness(Poller::new());
    }

    #[test]
    fn portable_poller_drives_readiness() {
        drives_readiness(Poller::Portable(PortablePoller::default()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_is_the_linux_default() {
        assert_eq!(Poller::new().kind(), "epoll");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn fd_limits_are_readable_and_raisable() {
        let before = fd_soft_limit().expect("linux exposes RLIMIT_NOFILE");
        assert!(before > 0);
        let after = raise_fd_soft_limit().expect("raise reports a limit");
        assert!(after >= before);
    }
}
