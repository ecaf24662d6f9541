//! `FanOutFront` — a small fan-out front multiplexing clients over `N`
//! partitioned backend verifiers.
//!
//! One `lofat serve` process is one partition of the session/nonce space
//! (see [`lofat::service::ServiceConfig::partition_count`]).  The front is
//! the piece that makes `N` such processes *look like* one verifier: clients
//! connect to the front, and the front relays whole frames to the backend
//! that owns each frame's session stripe.
//!
//! Routing is purely structural — the front never decodes a body, holds no
//! key material and keeps no per-session state, so it can never change a
//! verdict byte:
//!
//! * a **session request** names no session yet; it goes to the next backend
//!   round-robin.  With `N` backends of partitions `0..N`, round-robin from
//!   backend 0 mirrors the round-robin shard cursor inside a single sharded
//!   service, so sequential clients still observe dense session ids
//!   `1, 2, 3, …`;
//! * every **other envelope frame** carries its session id at a fixed header
//!   offset; session `n` belongs to the backend whose partition index is
//!   `(n - 1) % N`;
//! * a frame too short to name a session (or naming session 0) goes
//!   round-robin — any backend rejects it with the same bytes, because
//!   rejection verdicts for unparseable input are a pure function of the
//!   input.
//!
//! ```text
//!                      ┌──────────────┐    session n
//!  client ──frames──▶  │  FanOutFront │ ──────────────▶ backend (n-1) % N
//!                      │  (no state,  │    request          │ partition p=…
//!                      │   no keys)   │ ◀────────────── verdict / challenge
//!                      └──────────────┘     round-robin
//! ```
//!
//! The front is the second role of the event loop that runs
//! [`EventLoopServer`](crate::EventLoopServer), so bounded accept (past
//! [`ServerConfig::max_connections`] clients), the deadline wheel, write
//! backpressure, the graceful drain and the farewell to a frame announced
//! above [`NetLimits::max_frame_bytes`](crate::NetLimits) (the server's
//! verdict, then a close) are the server's own code.  A frame cut short or
//! announced too large reaches no backend, so the front books it itself,
//! by a server's rule ([`lofat::service::RejectionBooks`]):
//! [`FanOutFront::stats`] summed with every backend's books reads as one
//! service's.
//!
//! Each client reaches backend *b* over its own connection, dialled on the
//! client's first frame for *b* without waiting for the handshake on Linux
//! (other Unix hosts connect blocking): the frame waits in the connection's
//! write buffer, and the read and write deadlines bound the connect like
//! any other wait on a backend that owes a reply.
//! Pipelined frames go out as they complete and are answered in frame
//! order.  A backend that fails, closes or misses its read or write deadline
//! while it owes a client replies fails that client at the oldest frame it
//! owes: the client gets the replies before that frame, in order, and is
//! closed.  An idle connection a backend closes is dialled again on next
//! use.

use crate::conn::is_session_request_frame;
use crate::error::NetError;
use crate::event_loop::{LoopHandle, Role};
use crate::server::ServerConfig;
use lofat::service::{RejectionBooks, ServiceStats};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Byte offset of the session id within an envelope payload (see the offset
/// table in [`lofat::wire`]: magic 4 + version 2, then the `u64` session).
const SESSION_OFFSET: usize = 6;

/// A stateless fan-out front over `N` partitioned backend verifiers (see the
/// [module docs](self)).
///
/// The front accepts clients like a server and speaks to each backend like a
/// client; it owns neither sessions nor keys, so a partitioned deployment
/// behind one front is verdict-byte-identical to a single service with the
/// same total shard count (`tests/e14_network.rs` proves this
/// differentially).
pub struct FanOutFront {
    handle: LoopHandle,
    backends: Vec<SocketAddr>,
    books: Arc<RejectionBooks>,
}

impl std::fmt::Debug for FanOutFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOutFront")
            .field("local_addr", &self.local_addr())
            .field("backends", &self.backends)
            .field("connections_served", &self.connections_served())
            .field("frames_served", &self.frames_served())
            .finish()
    }
}

impl FanOutFront {
    /// Binds the front on `addr` (port 0 for ephemeral) over the given
    /// backend addresses, in partition order: `backends[p]` must be the
    /// process serving partition `p` of `backends.len()`.  Backend
    /// connections are opened lazily, one set per client.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the listener, the poller, the wake channel
    /// or the [`ServerConfig::log_path`] file cannot be created, and an
    /// `InvalidInput` I/O error when `backends` is empty.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<SocketAddr>,
        config: ServerConfig,
    ) -> Result<Self, NetError> {
        if backends.is_empty() {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a fan-out front needs at least one backend",
            )));
        }
        let transport = format!("backends={backends:?} transport=fan-out");
        let books = Arc::new(RejectionBooks::default());
        let routes = Routes { backends: backends.clone(), round_robin: 0 };
        let role = Role::Front { routes, books: Arc::clone(&books) };
        Ok(Self { handle: LoopHandle::spawn(addr, &config, role, &transport)?, backends, books })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr
    }

    /// The backend addresses, in partition order.
    pub fn backends(&self) -> &[SocketAddr] {
        &self.backends
    }

    /// Client connections accepted over the front's lifetime.
    pub fn connections_served(&self) -> u64 {
        self.handle.shared.connections_served.load(Ordering::Relaxed)
    }

    /// Frames relayed (and answered) over the front's lifetime.
    pub fn frames_served(&self) -> u64 {
        self.handle.shared.frames_served.load(Ordering::Relaxed)
    }

    /// A snapshot of the in-memory event log.
    pub fn events(&self) -> Vec<String> {
        self.handle.shared.log.snapshot()
    }

    /// The front's own books: the input it refused before any backend saw
    /// it (an oversized length prefix, a frame cut short), booked as a
    /// server books it.  [`ServiceStats::absorb`] over them and every
    /// backend's books gives the books of one service that saw the same
    /// traffic.
    pub fn stats(&self) -> ServiceStats {
        self.books.stats()
    }

    /// Gracefully shuts the front down: stop accepting, stop reading,
    /// deliver the replies backends still owe and flush staged replies
    /// (bounded by the write deadline), then close every client and backend
    /// connection.  The backends themselves are *not* shut down; they belong
    /// to their own processes.
    pub fn shutdown(mut self) {
        self.handle.stop();
    }
}

/// The front's routing table: the backends in partition order and the
/// round-robin cursor for frames that name no session.
pub(crate) struct Routes {
    backends: Vec<SocketAddr>,
    round_robin: u64,
}

impl Routes {
    /// Which backend owns one client frame: its partition index and address.
    pub(crate) fn route(&mut self, frame: &[u8]) -> (usize, SocketAddr) {
        let n = self.backends.len() as u64;
        if !is_session_request_frame(frame) && frame.len() >= SESSION_OFFSET + 8 {
            let session = u64::from_le_bytes(
                frame[SESSION_OFFSET..SESSION_OFFSET + 8].try_into().expect("8 bytes"),
            );
            if session != 0 {
                // Session n lives on the backend serving partition (n - 1) % N —
                // the same congruence that routes it to a shard inside that
                // backend.
                let backend = ((session - 1) % n) as usize;
                return (backend, self.backends[backend]);
            }
        }
        // Session requests (no session yet), session-0 scraps and frames too
        // short to name a session: round-robin.  For the scraps any backend
        // answers the same rejection bytes, so the choice cannot matter.
        let backend = (self.round_robin % n) as usize;
        self.round_robin += 1;
        (backend, self.backends[backend])
    }
}

/// [`dial`] off Linux: a blocking connect bounded by `timeout` (the write
/// deadline), the loop's one blocking call there.
#[cfg(not(target_os = "linux"))]
pub(crate) fn dial(
    addr: &SocketAddr,
    timeout: Option<std::time::Duration>,
) -> std::io::Result<std::net::TcpStream> {
    let stream = timeout.map_or_else(
        || std::net::TcpStream::connect(addr),
        |timeout| std::net::TcpStream::connect_timeout(addr, timeout),
    )?;
    stream.set_nonblocking(true).map(|()| stream)
}

#[cfg(target_os = "linux")]
pub(crate) use connect::dial;

#[cfg(target_os = "linux")]
mod connect {
    //! `socket(2)` and `connect(2)`, declared directly (no crates.io access)
    //! with the generic Linux ABI's values, as the poller's epoll shims are.
    #![allow(unsafe_code)]

    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::time::Duration;

    /// `SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC`.
    const STREAM_NONBLOCK_CLOEXEC: i32 = 1 | 0o4000 | 0o200_0000;
    const EINPROGRESS: i32 = 115;

    extern "C" {
        fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    }

    /// Opens a nonblocking connection to backend `addr` and returns before
    /// the handshake ends: the socket turns writable once connected, and a
    /// refused or failed connect surfaces as the error of its first read or
    /// write.  The link's deadlines, not `_timeout`, bound the handshake.
    pub(crate) fn dial(addr: &SocketAddr, _timeout: Option<Duration>) -> io::Result<TcpStream> {
        // `sockaddr_in` (16 bytes) or `sockaddr_in6` (28): the family
        // (`AF_INET` 2 or `AF_INET6` 10) in host order, the port in network
        // order, then the address.
        let mut raw = [0u8; 28];
        let (family, len) = match addr {
            SocketAddr::V4(v4) => {
                raw[4..8].copy_from_slice(&v4.ip().octets());
                (2u16, 16)
            }
            SocketAddr::V6(v6) => {
                raw[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                raw[8..24].copy_from_slice(&v6.ip().octets());
                raw[24..].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (10, 28)
            }
        };
        raw[..2].copy_from_slice(&family.to_ne_bytes());
        raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
        // SAFETY: socket(2) has no memory preconditions; the descriptor it
        // returns (checked valid) is owned exactly once, by the stream.
        let fd = unsafe { socket(i32::from(family), STREAM_NONBLOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let stream = TcpStream::from(unsafe { OwnedFd::from_raw_fd(fd) });
        // SAFETY: `raw` outlives the call and holds at least `len` bytes.
        if unsafe { connect(fd, raw.as_ptr(), len) } < 0 {
            let error = io::Error::last_os_error();
            if error.raw_os_error() != Some(EINPROGRESS) {
                return Err(error);
            }
        }
        Ok(stream)
    }
}
