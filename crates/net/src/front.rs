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
//! The one wire-level behaviour the front owns is the same one the server
//! owns: a client announcing a frame above
//! [`NetLimits::max_frame_bytes`](crate::NetLimits) is answered with the rejecting
//! verdict for an oversized announcement (byte-identical to the server's
//! farewell, addressed to session 0), then disconnected — the stream cannot
//! be resynchronised.
//!
//! Each client gets its own relay thread, and at most
//! [`ServerConfig::max_connections`] relays run at once: past the cap the
//! acceptor stops pulling from the kernel backlog until a client leaves, so a
//! connection flood waits there instead of spawning unbounded threads.

use crate::conn::is_session_request_frame;
use crate::error::NetError;
use crate::frame::{read_frame, write_frame};
use crate::server::{EventLog, ServerConfig};
use lofat::wire::{Envelope, Message, SessionId, VerdictMsg, WireError};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Byte offset of the session id within an envelope payload (see the offset
/// table in [`lofat::wire`]: magic 4 + version 2, then the `u64` session).
const SESSION_OFFSET: usize = 6;

struct FrontShared {
    backends: Vec<SocketAddr>,
    config: ServerConfig,
    /// Round-robin cursor for frames that name no session (session requests
    /// and undecodable scraps).
    round_robin: AtomicU64,
    shutting_down: AtomicBool,
    /// One handle per live relay (shutdown disconnects them through it); its
    /// length is the count the accept cap bounds.
    clients: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled when a relay ends (or shutdown starts).
    slot_freed: Condvar,
    connections_served: AtomicU64,
    frames_served: AtomicU64,
    log: EventLog,
}

/// A stateless fan-out front over `N` partitioned backend verifiers (see the
/// [module docs](self)).
///
/// The front accepts clients like a server and speaks to each backend like a
/// client; it owns neither sessions nor keys, so a partitioned deployment
/// behind one front is verdict-byte-identical to a single service with the
/// same total shard count (`tests/e14_network.rs` proves this
/// differentially).
pub struct FanOutFront {
    shared: Arc<FrontShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FanOutFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOutFront")
            .field("local_addr", &self.local_addr)
            .field("backends", &self.shared.backends)
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
    /// Returns [`NetError::Io`] if the listener or the
    /// [`ServerConfig::log_path`] file cannot be created, and an
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
        let log = EventLog::new(config.log_path.as_ref())?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(FrontShared {
            log,
            backends,
            config,
            round_robin: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            clients: Mutex::new(HashMap::new()),
            slot_freed: Condvar::new(),
            connections_served: AtomicU64::new(0),
            frames_served: AtomicU64::new(0),
        });
        shared.log.push(format!(
            "front addr={local_addr} backends={:?} transport=fan-out",
            shared.backends
        ));
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lofat-front-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn front acceptor")
        };
        Ok(Self { shared, local_addr, acceptor: Some(acceptor) })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The backend addresses, in partition order.
    pub fn backends(&self) -> &[SocketAddr] {
        &self.shared.backends
    }

    /// Client connections accepted over the front's lifetime.
    pub fn connections_served(&self) -> u64 {
        self.shared.connections_served.load(Ordering::Relaxed)
    }

    /// Frames relayed (and answered) over the front's lifetime.
    pub fn frames_served(&self) -> u64 {
        self.shared.frames_served.load(Ordering::Relaxed)
    }

    /// A snapshot of the in-memory event log.
    pub fn events(&self) -> Vec<String> {
        self.shared.log.snapshot()
    }

    /// Shuts the front down: stop accepting, disconnect every client (their
    /// backends' sessions survive — the front holds no state worth
    /// draining), and join the relay threads.  The backends themselves are
    /// *not* shut down; they belong to their own processes.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.log.push("front shutdown requested".into());
        {
            // Notified under the lock, so an acceptor between its flag check
            // and its wait cannot miss the wake-up.
            let clients = self.shared.clients.lock().expect("client registry poisoned");
            for stream in clients.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            self.shared.slot_freed.notify_all();
        }
        // Unblock an acceptor parked in accept() with a loopback nudge.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.log.push(format!(
            "front shutdown complete connections={} frames={}",
            self.connections_served(),
            self.frames_served(),
        ));
    }
}

impl Drop for FanOutFront {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<FrontShared>) {
    let max_connections = shared.config.max_connections.max(1);
    let mut relays: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    loop {
        // Bounded accept: do not pull another client off the backlog while
        // `max_connections` relays are live.
        {
            let mut clients = shared.clients.lock().expect("client registry poisoned");
            while clients.len() >= max_connections && !shared.shutting_down.load(Ordering::SeqCst) {
                clients = shared.slot_freed.wait(clients).expect("client registry poisoned");
            }
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) => {
                shared.log.push(format!("front accept error: {e}"));
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        next_id += 1;
        let id = next_id;
        shared.connections_served.fetch_add(1, Ordering::Relaxed);
        shared.log.push(format!("front accept id={id} peer={peer}"));
        // The registry handle is both the shutdown lever and the slot the
        // cap counts; a client that cannot have one is dropped.
        let handle = match stream.try_clone() {
            Ok(handle) => handle,
            Err(e) => {
                shared.log.push(format!("front drop id={id}: cannot register client: {e}"));
                continue;
            }
        };
        shared.clients.lock().expect("client registry poisoned").insert(id, handle);
        relays.retain(|handle| !handle.is_finished());
        let spawned = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new().name(format!("lofat-front-conn-{id}")).spawn(move || {
                let outcome = relay_connection(&shared, stream, id);
                release_slot(&shared, id);
                shared.log.push(format!("front close id={id} ({outcome})"));
            })
        };
        match spawned {
            Ok(relay) => relays.push(relay),
            Err(e) => {
                // Out of threads: this one client is dropped (its stream
                // went down with the failed closure); the front keeps
                // accepting.
                release_slot(shared, id);
                shared.log.push(format!("front drop id={id}: cannot spawn relay: {e}"));
            }
        }
    }
    for handle in relays {
        let _ = handle.join();
    }
}

/// Frees a relay's slot under the accept cap.
fn release_slot(shared: &FrontShared, id: u64) {
    shared.clients.lock().expect("client registry poisoned").remove(&id);
    shared.slot_freed.notify_all();
}

/// Which backend owns one client frame.
fn route(shared: &FrontShared, frame: &[u8]) -> usize {
    let n = shared.backends.len() as u64;
    if !is_session_request_frame(frame) && frame.len() >= SESSION_OFFSET + 8 {
        let session = u64::from_le_bytes(
            frame[SESSION_OFFSET..SESSION_OFFSET + 8].try_into().expect("8 bytes"),
        );
        if session != 0 {
            // Session n lives on the backend serving partition (n - 1) % N —
            // the same congruence that routes it to a shard inside that
            // backend.
            return ((session - 1) % n) as usize;
        }
    }
    // Session requests (no session yet), session-0 scraps and frames too
    // short to name a session: round-robin.  For the scraps any backend
    // answers the same rejection bytes, so the choice cannot matter.
    (shared.round_robin.fetch_add(1, Ordering::SeqCst) % n) as usize
}

/// Relays one client's frames until the client closes, a backend fails, or
/// shutdown.  Returns a human-readable close description for the log.
fn relay_connection(shared: &FrontShared, mut client: TcpStream, id: u64) -> String {
    let limits = &shared.config.limits;
    let _ = client.set_read_timeout(limits.read_timeout);
    let _ = client.set_write_timeout(limits.write_timeout);
    let _ = client.set_nodelay(true);
    let mut backends: Vec<Option<TcpStream>> = shared.backends.iter().map(|_| None).collect();
    let mut frames = 0u64;
    loop {
        let frame = match read_frame(&mut client, limits.max_frame_bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => return format!("client closed frames={frames}"),
            Err(NetError::FrameTooLarge { len, .. }) => {
                // Same farewell the servers write for an oversized
                // announcement, then close: the stream cannot be
                // resynchronised.  The verdict is a pure function of the
                // error, so the bytes match a real server's byte-for-byte.
                let error = WireError::Oversized { len };
                let farewell = Envelope::new(
                    SessionId(0),
                    Message::Verdict(VerdictMsg::rejected(error.code(), error.to_string())),
                );
                if let Ok(bytes) = farewell.encode() {
                    let _ = write_frame(&mut client, &bytes, limits.max_frame_bytes);
                }
                return format!("oversized announcement ({len} bytes) frames={frames}");
            }
            Err(e) => return format!("client read failed: {e} frames={frames}"),
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return format!("shutdown frames={frames}");
        }
        let backend_index = route(shared, &frame);
        let reply = match relay_to_backend(shared, &mut backends, backend_index, &frame, id) {
            Ok(reply) => reply,
            Err(e) => return format!("backend {backend_index} failed: {e} frames={frames}"),
        };
        frames += 1;
        shared.frames_served.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = write_frame(&mut client, &reply, limits.max_frame_bytes) {
            return format!("client write failed: {e} frames={frames}");
        }
    }
}

/// Sends one frame to `backends[index]` (connecting lazily) and reads the
/// reply frame.
fn relay_to_backend(
    shared: &FrontShared,
    backends: &mut [Option<TcpStream>],
    index: usize,
    frame: &[u8],
    client_id: u64,
) -> Result<Vec<u8>, NetError> {
    let limits = &shared.config.limits;
    if backends[index].is_none() {
        let stream = TcpStream::connect(shared.backends[index])?;
        let _ = stream.set_read_timeout(limits.read_timeout);
        let _ = stream.set_write_timeout(limits.write_timeout);
        let _ = stream.set_nodelay(true);
        shared.log.push(format!(
            "front id={client_id} connected backend[{index}]={}",
            shared.backends[index]
        ));
        backends[index] = Some(stream);
    }
    let stream = backends[index].as_mut().expect("just connected");
    write_frame(stream, frame, limits.max_frame_bytes)?;
    match read_frame(stream, limits.max_frame_bytes)? {
        Some(reply) => Ok(reply),
        None => Err(NetError::Closed),
    }
}
