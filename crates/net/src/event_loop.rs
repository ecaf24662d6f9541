//! `EventLoopServer` — the verifier server: every connection on one readiness-driven loop
//! thread (e14 holds 1 032 at once; `lofat serve` runs the default `max_connections`, 64).
//!
//! This is the server `lofat serve` runs.  A thread per connection is fine
//! for hundreds of devices, not for the long tail of a production
//! attestation fleet where most connections are idle most of the time, so
//! every connection lives in a single loop:
//!
//! * **nonblocking accept** with a bounded connection count (past
//!   `max_connections` the listener is deregistered until a slot frees, so a
//!   flood waits in the kernel backlog);
//! * **per-connection [`Connection`] machines** — framing, session
//!   multiplexing, close reasons and accounting live in that sans-I/O state
//!   machine, and `tests/e14_network.rs` proves the server byte-identical
//!   to the in-process path;
//! * **write-interest management**: replies are written greedily; when the
//!   socket refuses bytes the connection's staged output waits for
//!   writability, so a slow reader backpressures into its own buffer instead
//!   of blocking the loop;
//! * **a deadline wheel** (256 slots × 25 ms) enforcing the
//!   [`NetLimits::read_timeout`] inactivity deadline and
//!   [`NetLimits::write_timeout`] stall deadline lazily — slow-loris
//!   connections are swept in O(due) per tick, not O(connections);
//! * **verification off-loop**: evidence frames are submitted to the
//!   [`ParallelVerifier`] pool together with a reply that the worker runs
//!   as soon as the verdict exists: it files the verdict under its
//!   connection and sequence number and wakes the loop through a wake
//!   channel.  Each connection keeps an ordered reply queue, so pipelined
//!   frames are answered strictly in arrival order even though verdicts
//!   finish in any order;
//! * **graceful drain on shutdown**: accepting stops, reads stop, in-flight
//!   verdicts are delivered and staged replies flushed (bounded by the write
//!   deadline) before connections close.
//!
//! The same loop runs [`crate::FanOutFront`] in a second role: it relays
//! each complete frame to a backend connection the loop also owns and files
//! the reply in the same ordered reply queue (see [`crate::front`]).
//!
//! Readiness comes from a crate-private poller whose backend the build
//! target picks: epoll on Linux, `poll(2)` on other Unix hosts.  The loop
//! deregisters every descriptor before closing it, which `poll(2)` needs.
//!
//! # Example
//!
//! ```
//! use lofat::service::{ServiceConfig, VerifierService};
//! use lofat::{EngineConfig, MeasurementDatabase, Prover, Verifier};
//! use lofat_crypto::DeviceKey;
//! use lofat_net::{EventLoopServer, ProverClient, ServerConfig};
//! use lofat_rv32::asm::assemble;
//! use std::sync::Arc;
//!
//! let program = assemble(
//!     ".text\nmain:\n    li t0, 4\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
//! )?;
//! let key = DeviceKey::from_seed("fleet");
//! let mut prover = Prover::new(program.clone(), "demo", key.clone());
//! let verifier = Verifier::new(program, "demo", key.verification_key())?;
//! let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![]])?;
//! let service = Arc::new(VerifierService::new(
//!     db,
//!     key.verification_key(),
//!     ServiceConfig::default(),
//! ));
//!
//! // Serve on an ephemeral loopback port; attest over a real socket.
//! let server =
//!     EventLoopServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())?;
//! let mut client = ProverClient::connect(server.local_addr())?;
//! let outcome = client.attest(&mut prover, vec![])?;
//! assert!(outcome.verdict.accepted);
//! drop(client);
//! server.shutdown();
//! assert_eq!(service.stats().accepted, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::conn::{
    session_limit_refusal, session_request_reply, Admission, CloseReason, Connection,
};
use crate::error::NetError;
use crate::front::{dial, Routes};
use crate::limits::NetLimits;
use crate::poller::{Event, Poller, HANGUP, READABLE, WRITABLE};
use crate::server::{EventLog, ServerConfig};
use lofat::pool::ParallelVerifier;
use lofat::service::{RejectionBooks, ServiceError, VerifierService};
use lofat::wire::{Envelope, Message, SessionId};
use std::collections::{HashMap, VecDeque};
use std::fmt::Display;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raises this process's soft open-file limit to at least `target`
/// descriptors (needed to *hold* thousands of sockets, not just accept them) and
/// returns the resulting soft limit.  Raising beyond the hard limit needs
/// privileges; on failure the current limit is returned unchanged, so
/// callers clamp their connection budget to the return value.
#[must_use]
pub fn raise_nofile_limit(target: u64) -> u64 {
    rlimit::raise_nofile(target)
}

mod rlimit {
    //! `getrlimit`/`setrlimit` over `RLIMIT_NOFILE`, declared directly (no
    //! crates.io access) — the crate's other unsafe code is the poller's
    //! syscall shims and the front's connect.
    #![allow(unsafe_code)]

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    pub(super) fn raise_nofile(target: u64) -> u64 {
        let mut current = RLimit { rlim_cur: 0, rlim_max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut current) } != 0 {
            return 0;
        }
        if current.rlim_cur >= target {
            return current.rlim_cur;
        }
        // First try raising both limits (works for privileged processes),
        // then settle for the hard limit.
        for wanted in [
            RLimit { rlim_cur: target, rlim_max: target.max(current.rlim_max) },
            RLimit { rlim_cur: target.min(current.rlim_max), rlim_max: current.rlim_max },
        ] {
            if unsafe { setrlimit(RLIMIT_NOFILE, &wanted) } == 0 {
                return wanted.rlim_cur;
            }
        }
        current.rlim_cur
    }
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
const WHEEL_SLOTS: usize = 256;
const WHEEL_GRANULARITY_MS: u64 = 25;
const READ_CHUNK: usize = 16 * 1024;
const DEFAULT_DRAIN_CAP: Duration = Duration::from_secs(5);

/// A verifier service on a TCP socket, serving every connection from one
/// readiness-driven loop thread (see the [module docs](self)).
///
/// Each accepted connection speaks length-prefixed [`Envelope`] frames (see
/// [`crate::frame`]): a [`Message::SessionRequest`] opens a session and is
/// answered with the challenge; an evidence frame is verified on the shared
/// [`ParallelVerifier`] pool and answered with the verdict; anything else —
/// including bytes that do not decode at all — is answered with the
/// rejecting verdict the in-process [`VerifierService`] produces for the same
/// input.  One connection may interleave any number of sessions (up to
/// [`NetLimits::max_sessions_per_connection`]) and pipeline frames — replies
/// always come back in frame order.
pub struct EventLoopServer {
    handle: LoopHandle,
    service: Arc<VerifierService>,
}

/// A frame's reply, or why its connection closes after the replies before
/// it.
type Reply = Result<Vec<u8>, CloseReason>;

/// Files what the service answered; a failure to answer closes the
/// connection.
fn served(reply: Result<Vec<u8>, ServiceError>) -> Reply {
    reply.map_err(|e| CloseReason::ServiceError(e.to_string()))
}

pub(crate) struct LoopShared {
    pub(crate) log: EventLog,
    shutting_down: AtomicBool,
    pub(crate) connections_served: AtomicU64,
    pub(crate) frames_served: AtomicU64,
    active: AtomicUsize,
    /// Finished verdicts, filed by the pool's workers:
    /// `(connection, seq, reply)`.
    completed: Mutex<Vec<(u64, u64, Reply)>>,
    wake_tx: Mutex<UnixStream>,
}

impl LoopShared {
    fn wake(&self) {
        // Recover the sender even if a waker panicked mid-write: the stream
        // handle itself is still coherent, and losing the wake channel would
        // leave completed verdicts sitting until the next deadline tick.
        let mut tx = self.wake_tx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match tx.write(&[1]) {
                Ok(_) => return,
                // A full pipe means a wake-up is already pending — which is
                // everything this byte could have achieved.
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    drop(tx);
                    // A real transport failure on the wake channel is worth
                    // surfacing: the loop now only advances on socket
                    // readiness and deadline ticks.
                    self.log.push(format!("wake channel write failed: {e}"));
                    return;
                }
            }
        }
    }

    /// The completion queue, recovered from poisoning if a thread panicked
    /// while holding it (the payload is a plain `Vec` — always coherent) and
    /// logged so the recovery is observable, instead of cascading the panic
    /// into a dead server.
    fn completed_lock(&self) -> std::sync::MutexGuard<'_, Vec<(u64, u64, Reply)>> {
        self.completed.lock().unwrap_or_else(|poisoned| {
            self.log.push("completion lock poisoned by a panicked thread; recovered".into());
            poisoned.into_inner()
        })
    }
}

impl std::fmt::Debug for EventLoopServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoopServer")
            .field("local_addr", &self.local_addr())
            .field("connections_served", &self.connections_served())
            .field("frames_served", &self.frames_served())
            .finish()
    }
}

impl EventLoopServer {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port), spawns
    /// the verification pool and the loop thread, and starts serving.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the listener, the poller, the wake channel
    /// or the [`ServerConfig::log_path`] file cannot be created.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<VerifierService>,
        config: ServerConfig,
    ) -> Result<Self, NetError> {
        let pool = ParallelVerifier::spawn(Arc::clone(&service), config.pool);
        let transport = format!(
            "program={} workers={} transport=event-loop",
            service.program_id(),
            pool.worker_count()
        );
        let role = Role::Verifier { service: Arc::clone(&service), pool };
        Ok(Self { handle: LoopHandle::spawn(addr, &config, role, &transport)?, service })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<VerifierService> {
        &self.service
    }

    /// Connections accepted over the server lifetime.
    pub fn connections_served(&self) -> u64 {
        self.handle.shared.connections_served.load(Ordering::Relaxed)
    }

    /// Frames answered over the server lifetime.
    pub fn frames_served(&self) -> u64 {
        self.handle.shared.frames_served.load(Ordering::Relaxed)
    }

    /// Connections currently held by the loop.
    pub fn active_connections(&self) -> usize {
        self.handle.shared.active.load(Ordering::Relaxed)
    }

    /// A snapshot of the in-memory event log (the most recent few thousand
    /// events; the full history goes to [`ServerConfig::log_path`] when set).
    pub fn events(&self) -> Vec<String> {
        self.handle.shared.log.snapshot()
    }

    /// Gracefully shuts the server down: stop accepting, stop reading,
    /// deliver in-flight verdicts and flush staged replies (bounded by the
    /// write deadline), then drain the verification pool.
    pub fn shutdown(mut self) {
        self.handle.stop();
    }

    /// [`EventLoopServer::shutdown`], then drain the quiesced service into a
    /// durable snapshot at `path` (written atomically, with `reserve` future
    /// sessions added to every issuance watermark — see
    /// [`lofat::service::VerifierService::write_snapshot`]).  Taken after the
    /// graceful shutdown, so every delivered verdict is in the books it
    /// captures.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the snapshot cannot be encoded or written;
    /// the shutdown itself has already completed either way.
    pub fn shutdown_to_snapshot(
        mut self,
        path: impl AsRef<std::path::Path>,
        reserve: u64,
    ) -> Result<(), NetError> {
        self.handle.stop();
        self.service
            .write_snapshot(path, reserve)
            .map_err(|e| NetError::Io(std::io::Error::other(e.to_string())))
    }
}

/// What the loop does with a complete client frame.
pub(crate) enum Role {
    /// Answer it: session requests inline, evidence on the pool.
    Verifier { service: Arc<VerifierService>, pool: ParallelVerifier },
    /// Relay it to the backend that owns its session (see [`crate::front`]),
    /// and book what the front refuses itself.
    Front { routes: Routes, books: Arc<RejectionBooks> },
}

/// The handle [`EventLoopServer`] and [`crate::FanOutFront`] hold on their
/// loop thread; dropping it shuts the loop down.
pub(crate) struct LoopHandle {
    pub(crate) shared: Arc<LoopShared>,
    pub(crate) local_addr: SocketAddr,
    driver: Option<JoinHandle<()>>,
}

impl LoopHandle {
    /// Binds a listener on `addr` and starts the loop thread in `role`,
    /// logging `transport` as what it serves.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the listener, the poller, the wake channel
    /// or the [`ServerConfig::log_path`] file cannot be created.
    pub(crate) fn spawn(
        addr: impl ToSocketAddrs,
        config: &ServerConfig,
        role: Role,
        transport: &str,
    ) -> Result<Self, NetError> {
        let log = EventLog::new(config.log_path.as_ref())?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let max_connections = config.max_connections.max(1);
        log.push(format!("listen addr={local_addr} {transport} max_connections={max_connections}"));
        let shared = Arc::new(LoopShared {
            log,
            shutting_down: AtomicBool::new(false),
            connections_served: AtomicU64::new(0),
            frames_served: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            completed: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
        });
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, READABLE)?;
        let driver = Driver {
            poller,
            listener: Some(listener),
            accepting: true,
            conns: HashMap::new(),
            links: HashMap::new(),
            next_id: 0,
            shared: Arc::clone(&shared),
            limits: config.limits.clone(),
            max_connections,
            role,
            wake_rx,
            wheel: DeadlineWheel::new(),
            start: Instant::now(),
            drain_deadline: None,
        };
        let driver = std::thread::Builder::new()
            .name("lofat-net-loop".into())
            .spawn(move || driver.run())
            .expect("spawn event loop");
        Ok(Self { shared, local_addr, driver: Some(driver) })
    }

    /// Asks the loop to drain and waits for its thread to end.
    pub(crate) fn stop(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.log.push("shutdown requested".into());
        self.shared.wake();
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
        self.shared.log.push(format!(
            "shutdown complete connections={} frames={}",
            self.shared.connections_served.load(Ordering::Relaxed),
            self.shared.frames_served.load(Ordering::Relaxed),
        ));
    }
}

impl Drop for LoopHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection as the loop sees it: the sans-I/O machine plus the loop's
/// own bookkeeping (ordered reply queue, poller interest, wheel slot).
struct ConnState {
    stream: TcpStream,
    machine: Connection,
    /// Replies in frame order; `None` payloads are still verifying on the
    /// pool (or, on the front, owed by a backend).  Only the longest filled
    /// prefix is ever staged for writing.
    pending: VecDeque<(u64, Option<Reply>)>,
    next_seq: u64,
    frames: u64,
    /// No more reads: flush what is owed, then close.
    draining: bool,
    close_reason: Option<CloseReason>,
    /// A final frame (the oversized-announcement verdict) written after all
    /// owed replies, outside the frames-served count.
    farewell: Option<Vec<u8>>,
    /// The [`READABLE`]/[`WRITABLE`] interest registered with the poller.
    interest: u8,
    scheduled: bool,
    /// Front role: this client's backend connections, as `(backend, link
    /// token)` pairs.
    links: Vec<(usize, u64)>,
}

impl ConnState {
    /// Files the reply to frame `seq` in the reply queue.
    fn fill(&mut self, seq: u64, reply: Reply) {
        if let Some(entry) =
            self.pending.iter_mut().find(|(s, filled)| *s == seq && filled.is_none())
        {
            entry.1 = Some(reply);
        }
    }
}

/// Front role: one client's connection to one backend.  Frames go out
/// through the machine's write buffer and replies come back through its
/// reassembly; a backend answers a connection's frames in order, so each
/// reply answers the oldest frame still owed.
struct Link {
    stream: TcpStream,
    /// Its deadlines count only while the backend owes replies.
    machine: Connection,
    client: u64,
    backend: usize,
    /// The client frames (by sequence number) awaiting this backend's
    /// reply, oldest first.
    owed: VecDeque<u64>,
    interest: u8,
}

/// The lazy deadline wheel: 256 slots × 25 ms.  Each live connection has at
/// most one entry; an entry popped before its connection's real deadline
/// (activity moved it) is simply rescheduled, so sweeping costs O(due) per
/// tick instead of O(connections).
struct DeadlineWheel {
    slots: Vec<Vec<(u64, u64)>>,
    cursor: u64,
    entries: usize,
}

impl DeadlineWheel {
    fn new() -> Self {
        Self { slots: vec![Vec::new(); WHEEL_SLOTS], cursor: 0, entries: 0 }
    }

    fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn schedule(&mut self, id: u64, deadline_ms: u64) {
        // Fire on the first tick strictly after the deadline, never behind
        // the cursor.
        let tick = (deadline_ms / WHEEL_GRANULARITY_MS + 1).max(self.cursor);
        let slot = usize::try_from(tick % WHEEL_SLOTS as u64).expect("slot fits usize");
        self.slots[slot].push((id, tick));
        self.entries += 1;
    }

    fn due(&mut self, now_ms: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let target = now_ms / WHEEL_GRANULARITY_MS;
        if self.entries == 0 {
            self.cursor = self.cursor.max(target + 1);
            return out;
        }
        while self.cursor <= target {
            let cursor = self.cursor;
            let slot = usize::try_from(cursor % WHEEL_SLOTS as u64).expect("slot fits usize");
            let mut removed = 0usize;
            self.slots[slot].retain(|&(id, tick)| {
                if tick <= cursor {
                    out.push(id);
                    removed += 1;
                    false
                } else {
                    true
                }
            });
            self.entries -= removed;
            self.cursor += 1;
        }
        out
    }
}

struct Driver {
    poller: Poller,
    listener: Option<TcpListener>,
    accepting: bool,
    conns: HashMap<u64, ConnState>,
    /// Front role: every client's backend connections, by poller token.
    links: HashMap<u64, Link>,
    next_id: u64,
    shared: Arc<LoopShared>,
    limits: NetLimits,
    max_connections: usize,
    role: Role,
    wake_rx: UnixStream,
    wheel: DeadlineWheel,
    start: Instant,
    drain_deadline: Option<Instant>,
}

impl Driver {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) && self.drain_deadline.is_none() {
                self.begin_shutdown();
            }
            if self.drain_deadline.is_some() {
                if self.conns.is_empty() {
                    break;
                }
                if self.drain_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                    self.force_close_all();
                    break;
                }
            }
            let timeout = self.poll_timeout();
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.shared.log.push(format!("readiness wait failed: {e}"));
                break;
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    id if self.conns.contains_key(&id) => self.conn_event(id, event.ready),
                    id => self.link_event(id, event.ready),
                }
            }
            self.process_completions();
            self.advance_wheel();
        }
        // Teardown: dropping the pool joins its workers, which first run the
        // reply of every job still queued.  It goes before the rest of the
        // driver, so those replies still find the wake channel open.
        drop(self.role);
    }

    fn poll_timeout(&self) -> i32 {
        if self.drain_deadline.is_some() {
            50
        } else if self.wheel.is_empty() {
            -1
        } else {
            i32::try_from(WHEEL_GRANULARITY_MS).expect("granularity fits i32")
        }
    }

    // -- shutdown ----------------------------------------------------------

    fn begin_shutdown(&mut self) {
        let cap = self.limits.write_timeout.unwrap_or(DEFAULT_DRAIN_CAP);
        self.drain_deadline = Some(Instant::now() + cap);
        self.pause_accepting();
        self.listener = None;
        let now = self.now_ms();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(state) = self.conns.get_mut(&id) {
                state.draining = true;
                if state.close_reason.is_none() {
                    state.close_reason = Some(CloseReason::Shutdown);
                }
            }
            self.flush_and_update(id, now);
        }
    }

    fn force_close_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let reason = self
                .conns
                .get_mut(&id)
                .and_then(|state| state.close_reason.take())
                .unwrap_or(CloseReason::Shutdown);
            self.finalize_close(id, &reason);
        }
    }

    // -- accepting ---------------------------------------------------------

    fn pause_accepting(&mut self) {
        if self.accepting {
            if let Some(listener) = &self.listener {
                let _ = self.poller.delete(listener.as_raw_fd());
            }
            self.accepting = false;
        }
    }

    fn resume_accepting(&mut self) {
        if !self.accepting && self.drain_deadline.is_none() {
            if let Some(listener) = &self.listener {
                if self.poller.add(listener.as_raw_fd(), TOKEN_LISTENER, READABLE).is_ok() {
                    self.accepting = true;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            // Bounded accept: past the cap the listener leaves the interest
            // set; the kernel backlog (and then the peers) absorb the flood.
            if self.conns.len() >= self.max_connections {
                self.pause_accepting();
                return;
            }
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, peer)) => {
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_id += 1;
                    let id = self.next_id;
                    let interest = READABLE;
                    if let Err(e) = self.poller.add(stream.as_raw_fd(), id, interest) {
                        self.shared.log.push(format!("register id={id} failed: {e}"));
                        continue;
                    }
                    let now = self.now_ms();
                    let machine = Connection::new(&self.limits, now);
                    let mut state = ConnState {
                        stream,
                        machine,
                        pending: VecDeque::new(),
                        next_seq: 0,
                        frames: 0,
                        draining: false,
                        close_reason: None,
                        farewell: None,
                        interest,
                        scheduled: false,
                        links: Vec::new(),
                    };
                    if let Some(deadline) = state.machine.next_deadline_ms() {
                        self.wheel.schedule(id, deadline);
                        state.scheduled = true;
                    }
                    self.conns.insert(id, state);
                    self.shared.connections_served.fetch_add(1, Ordering::Relaxed);
                    self.shared.active.store(self.conns.len(), Ordering::Relaxed);
                    self.shared.log.push(format!("accept id={id} peer={peer}"));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.shared.log.push(format!("accept error: {e}"));
                    return;
                }
            }
        }
    }

    // -- per-connection events --------------------------------------------

    fn conn_event(&mut self, id: u64, ready: u8) {
        let now = self.now_ms();
        // A hang-up goes down the read path too: the read surfaces the EOF or
        // the socket error as the connection's close reason.
        if ready & (READABLE | HANGUP) != 0 {
            self.readable(id, now);
        }
        if self.conns.contains_key(&id) && ready & WRITABLE != 0 {
            self.flush_and_update(id, now);
        }
    }

    fn readable(&mut self, id: u64, now: u64) {
        let eof = {
            let Some(state) = self.conns.get_mut(&id) else { return };
            if state.draining {
                return;
            }
            match read_available(&mut state.stream, &mut state.machine, now) {
                Ok(eof) => eof,
                Err(e) => return self.finalize_close(id, &CloseReason::ReadError(e.to_string())),
            }
        };
        if let Err(reason) = self.pump_frames(id) {
            self.mark_close(id, reason);
        } else if eof {
            // Only after draining complete frames: a fully buffered frame is
            // never misread as truncation.
            let reason = match self.conns.get(&id) {
                Some(state) => state.machine.peer_closed(),
                None => return,
            };
            self.mark_close(id, reason);
        }
        self.flush_and_update(id, now);
    }

    /// Extracts and dispatches every complete frame buffered on `id`.
    fn pump_frames(&mut self, id: u64) -> Result<(), CloseReason> {
        loop {
            let frame = {
                // A client a backend failed stops mid-batch.
                let Some(state) = self.conns.get_mut(&id).filter(|state| !state.draining) else {
                    return Ok(());
                };
                match state.machine.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => return Ok(()),
                    Err(reason) => return Err(reason),
                }
            };
            self.dispatch(id, frame);
        }
    }

    /// Dispatches one frame: the front relays it to its backend; a verifier
    /// acts on its [`Admission`] — session requests inline, evidence to the
    /// pool, over-cap sessions refused.  Either way the reply goes through
    /// the connection's ordered reply queue, so pipelined frames answer in
    /// arrival order.
    fn dispatch(&mut self, id: u64, frame: Vec<u8>) {
        let Some(state) = self.conns.get_mut(&id) else { return };
        let seq = state.next_seq;
        state.next_seq += 1;
        let (service, pool) = match &mut self.role {
            Role::Verifier { service, pool } => (service, pool),
            Role::Front { routes, .. } => {
                state.pending.push_back((seq, None));
                let backend = routes.route(&frame);
                return self.relay(id, seq, backend, &frame);
            }
        };
        match state.machine.admit(&frame) {
            Admission::SessionRequest => {
                let reply = match Envelope::decode(&frame) {
                    Ok(Envelope { message: Message::SessionRequest(request), .. }) => {
                        session_request_reply(service, request)
                    }
                    // The peek was optimistic; let the service classify
                    // whatever this really is.
                    _ => service.handle_bytes(&frame),
                };
                state.pending.push_back((seq, Some(served(reply))));
            }
            Admission::SessionLimit { session } => {
                let reply = session_limit_refusal(session, self.limits.max_sessions_per_connection);
                state.pending.push_back((seq, Some(served(reply))));
            }
            Admission::Verify => {
                state.pending.push_back((seq, None));
                let shared = Arc::clone(&self.shared);
                pool.submit(frame, move |done| {
                    shared.completed_lock().push((id, seq, served(done.reply)));
                    shared.wake();
                });
            }
        }
    }

    /// Stages the longest filled prefix of the reply queue onto the wire
    /// buffer, counting each frame as served the moment its reply is staged.
    /// The queue ends at a failed reply: nothing after it is answered.
    fn drain_ready(&mut self, id: u64) -> Result<(), CloseReason> {
        let Some(state) = self.conns.get_mut(&id) else { return Ok(()) };
        while matches!(state.pending.front(), Some((_, Some(_)))) {
            let (_, reply) = state.pending.pop_front().expect("front checked");
            match reply.expect("filled checked") {
                Ok(bytes) => {
                    state.frames += 1;
                    self.shared.frames_served.fetch_add(1, Ordering::Relaxed);
                    state.machine.frame_out(&bytes)?;
                }
                Err(reason) => {
                    state.pending.clear();
                    return Err(reason);
                }
            }
        }
        Ok(())
    }

    /// Records that `id` must close (accounting for framing-level rejections
    /// through the shared [`CloseReason::wire_error`] mapping) and lets the
    /// flush path deliver whatever is still owed first.
    fn mark_close(&mut self, id: u64, reason: CloseReason) {
        let mut farewell = None;
        if let Some(error) = reason.wire_error() {
            // A truncated or oversized frame enters the books of the role
            // that refused it, a verifier's service or the front's own, by
            // the one rule input that fails to decode in-process follows.
            // An oversized announcement is also answered (the peer is still
            // there to read the verdict), with the same bytes by both roles.
            let reply = match &self.role {
                Role::Verifier { service, .. } => service.reject_unparseable(SessionId(0), &error),
                Role::Front { books, .. } => books.reject_unparseable(SessionId(0), &error),
            };
            if reason.answers_peer() {
                farewell = reply.ok();
            }
        }
        let Some(state) = self.conns.get_mut(&id) else { return };
        state.draining = true;
        if state.close_reason.is_none() {
            state.close_reason = Some(reason);
        }
        if farewell.is_some() {
            state.farewell = farewell;
        }
    }

    /// The write/finish path: stage ready replies, flush, manage write
    /// interest, arm the deadline wheel, and complete a draining close once
    /// nothing is owed.
    fn flush_and_update(&mut self, id: u64, now: u64) {
        if let Err(reason) = self.drain_ready(id) {
            self.mark_close(id, reason);
        }
        let Some(state) = self.conns.get_mut(&id) else { return };
        if state.draining && state.pending.is_empty() {
            if let Some(bytes) = state.farewell.take() {
                let _ = state.machine.frame_out(&bytes);
            }
        }
        if let Err(reason) = try_flush_stream(&mut state.stream, &mut state.machine, now) {
            self.finalize_close(id, &reason);
            return;
        }
        let Some(state) = self.conns.get_mut(&id) else { return };
        if state.draining
            && state.pending.is_empty()
            && state.farewell.is_none()
            && !state.machine.wants_write()
        {
            let reason = state.close_reason.take().unwrap_or(CloseReason::PeerClosed);
            self.finalize_close(id, &reason);
            return;
        }
        let mut want = 0u8;
        if !state.draining {
            want |= READABLE;
        }
        if state.machine.wants_write() {
            want |= WRITABLE;
        }
        if want != state.interest && self.poller.modify(state.stream.as_raw_fd(), id, want).is_ok()
        {
            state.interest = want;
        }
        if !state.scheduled {
            if let Some(deadline) = state.machine.next_deadline_ms() {
                self.wheel.schedule(id, deadline);
                state.scheduled = true;
            }
        }
    }

    fn finalize_close(&mut self, id: u64, reason: &CloseReason) {
        let Some(state) = self.conns.remove(&id) else { return };
        let _ = self.poller.delete(state.stream.as_raw_fd());
        for &(_, token) in &state.links {
            self.close_link(token);
        }
        self.shared.active.store(self.conns.len(), Ordering::Relaxed);
        self.shared.log.push(format!("close id={id} frames={} ({reason})", state.frames));
        if self.conns.len() < self.max_connections {
            self.resume_accepting();
        }
        // Replies still verifying on the pool arrive later and are dropped —
        // the books were already written when `handle_bytes` ran.
    }

    // -- front role: backend links ------------------------------------------

    /// Sends client frame `seq` to the client's own connection to `backend`
    /// (dialled on first use; see [`dial`]) and books the reply it owes.
    fn relay(&mut self, client: u64, seq: u64, (backend, addr): (usize, SocketAddr), frame: &[u8]) {
        let now = self.now_ms();
        let Some(state) = self.conns.get_mut(&client) else { return };
        let token = match state.links.iter().find(|&&(b, _)| b == backend) {
            Some(&(_, token)) => token,
            None => {
                self.next_id += 1;
                let token = self.next_id;
                let dialled = dial(&addr, self.limits.write_timeout).and_then(|stream| {
                    self.poller.add(stream.as_raw_fd(), token, READABLE).map(|()| stream)
                });
                let stream = match dialled {
                    Ok(stream) => stream,
                    Err(e) => return self.fail_client(client, Some(seq), backend, e),
                };
                let _ = stream.set_nodelay(true);
                let machine = Connection::new(&self.limits, now);
                let owed = VecDeque::new();
                let link = Link { stream, machine, client, backend, owed, interest: READABLE };
                self.links.insert(token, link);
                state.links.push((backend, token));
                self.shared.log.push(format!("id={client} dialled backend {backend} at {addr}"));
                token
            }
        };
        let Some(link) = self.links.get_mut(&token) else { return };
        if link.owed.is_empty() {
            // An idle backend owes nothing: its read deadline starts now.
            link.machine.bytes_in(&[], now);
        }
        link.owed.push_back(seq);
        match link.machine.frame_out(frame) {
            Ok(()) => self.flush_link(token, now),
            Err(reason) => self.fail_link(token, reason),
        }
    }

    fn link_event(&mut self, token: u64, ready: u8) {
        let now = self.now_ms();
        let Some(client) = self.links.get(&token).map(|link| link.client) else { return };
        if ready & (READABLE | HANGUP) != 0 {
            self.link_readable(token, now);
        }
        if ready & WRITABLE != 0 {
            self.flush_link(token, now);
        }
        self.flush_and_update(client, now);
    }

    /// Files each reply link `token` completed under the client frame it
    /// answers.  A backend that fails while it owes replies fails its
    /// client; an idle link that closes or fails is dialled again on next
    /// use.
    fn link_readable(&mut self, token: u64, now: u64) {
        let Some(link) = self.links.get_mut(&token) else { return };
        let read = read_available(&mut link.stream, &mut link.machine, now);
        let (client, backend) = (link.client, link.backend);
        let failure = loop {
            match link.machine.next_frame() {
                Ok(Some(reply)) => {
                    let Some(seq) = link.owed.pop_front() else {
                        break Some("a reply nothing asked for".to_string());
                    };
                    if let Some(state) = self.conns.get_mut(&client) {
                        state.fill(seq, Ok(reply));
                    }
                }
                Ok(None) => {
                    break match &read {
                        Ok(false) => None,
                        _ if link.owed.is_empty() => None,
                        Ok(true) => Some(format!("closed owing {} replies", link.owed.len())),
                        Err(e) => Some(format!("read error: {e}")),
                    }
                }
                Err(reason) => break Some(reason.to_string()),
            }
        };
        if let Some(failure) = failure {
            self.fail_link(token, failure);
        } else if !matches!(read, Ok(false)) {
            self.shared.log.push(format!("id={client} backend {backend} dropped an idle link"));
            self.close_link(token);
        }
    }

    /// Writes what link `token` has staged (a connect still in progress
    /// refuses it like a full socket) and keeps its write interest in step.
    fn flush_link(&mut self, token: u64, now: u64) {
        let Some(link) = self.links.get_mut(&token) else { return };
        if let Err(reason) = try_flush_stream(&mut link.stream, &mut link.machine, now) {
            return self.fail_link(token, reason);
        }
        let want = if link.machine.wants_write() { READABLE | WRITABLE } else { READABLE };
        if want != link.interest && self.poller.modify(link.stream.as_raw_fd(), token, want).is_ok()
        {
            link.interest = want;
        }
    }

    /// Drops link `token` because its backend failed, and fails its client
    /// at the oldest frame the link owes.
    fn fail_link(&mut self, token: u64, what: impl Display) {
        let Some(link) = self.close_link(token) else { return };
        self.fail_client(link.client, link.owed.front().copied(), link.backend, what);
    }

    /// Answers client frame `seq` with the failure of `backend`: the client
    /// reads nothing more, gets the replies owed before that frame in order,
    /// then closes (as a verifier connection does on a pool error).
    fn fail_client(&mut self, client: u64, seq: Option<u64>, backend: usize, what: impl Display) {
        let failure = CloseReason::ServiceError(format!("backend {backend}: {what}"));
        if let (Some(state), Some(seq)) = (self.conns.get_mut(&client), seq) {
            state.fill(seq, Err(failure.clone()));
        }
        self.mark_close(client, failure);
    }

    /// Deregisters and drops link `token`, and forgets it on its client.
    fn close_link(&mut self, token: u64) -> Option<Link> {
        let link = self.links.remove(&token)?;
        let _ = self.poller.delete(link.stream.as_raw_fd());
        if let Some(state) = self.conns.get_mut(&link.client) {
            state.links.retain(|&(_, t)| t != token);
        }
        Some(link)
    }

    // -- completions and deadlines ----------------------------------------

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    fn process_completions(&mut self) {
        let completed = std::mem::take(&mut *self.shared.completed_lock());
        let now = self.now_ms();
        for (id, seq, reply) in completed {
            let Some(state) = self.conns.get_mut(&id) else { continue };
            state.fill(seq, reply);
            self.flush_and_update(id, now);
        }
    }

    fn advance_wheel(&mut self) {
        let now = self.now_ms();
        for id in self.wheel.due(now) {
            let Some(state) = self.conns.get_mut(&id) else { continue };
            if !state.pending.is_empty() {
                // The peer is waiting on *us* (replies outstanding); hold its
                // deadline and recheck shortly — unless a backend that owes
                // it replies missed a deadline of its own.
                self.wheel.schedule(id, now + WHEEL_GRANULARITY_MS);
                let overdue = state.links.iter().find_map(|&(_, token)| {
                    let link = self.links.get(&token).filter(|link| !link.owed.is_empty())?;
                    Some((token, link.machine.tick(now)?))
                });
                if let Some((token, reason)) = overdue {
                    self.fail_link(token, reason);
                    self.flush_and_update(id, now);
                }
                continue;
            }
            if let Some(reason) = state.machine.tick(now) {
                self.finalize_close(id, &reason);
                continue;
            }
            let recheck = state.machine.next_deadline_ms();
            state.scheduled = recheck.is_some();
            if let Some(at) = recheck {
                self.wheel.schedule(id, at);
            }
        }
    }
}

/// Reads everything the socket holds into `machine`; `Ok(true)` at end of
/// stream.
fn read_available(
    stream: &mut TcpStream,
    machine: &mut Connection,
    now: u64,
) -> std::io::Result<bool> {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                machine.bytes_in(&buf[..n], now);
                if n < READ_CHUNK {
                    // Level-triggered: anything left refires the event.
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Writes as much of the staged output as the socket will take right now.
fn try_flush_stream(
    stream: &mut TcpStream,
    machine: &mut Connection,
    now: u64,
) -> Result<(), CloseReason> {
    while machine.wants_write() {
        match stream.write(machine.bytes_out()) {
            Ok(0) => return Err(CloseReason::WriteFailed("socket accepted no bytes".into())),
            Ok(n) => machine.consume_out(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                machine.write_blocked(now);
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(CloseReason::WriteFailed(e.to_string())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn wheel_pops_entries_lazily_and_once() {
        use super::{DeadlineWheel, WHEEL_GRANULARITY_MS, WHEEL_SLOTS};
        let mut wheel = DeadlineWheel::new();
        assert!(wheel.is_empty());
        wheel.schedule(1, 100);
        wheel.schedule(2, 10_000);
        assert!(!wheel.is_empty());
        assert_eq!(wheel.due(99), Vec::<u64>::new());
        assert_eq!(wheel.due(100 + WHEEL_GRANULARITY_MS), vec![1]);
        assert_eq!(wheel.due(9_999), Vec::<u64>::new(), "far entry waits");
        assert_eq!(wheel.due(10_000 + WHEEL_GRANULARITY_MS), vec![2]);
        assert!(wheel.is_empty());

        // A deadline beyond one wheel revolution stays put while the cursor
        // sweeps past its slot early, and fires on the right revolution.
        let horizon = WHEEL_SLOTS as u64 * WHEEL_GRANULARITY_MS;
        wheel.schedule(3, 2 * horizon);
        assert_eq!(wheel.due(horizon), Vec::<u64>::new(), "wrapped entry holds");
        assert_eq!(wheel.due(2 * horizon + WHEEL_GRANULARITY_MS), vec![3]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn nofile_limit_reports_a_usable_budget() {
        let current = super::raise_nofile_limit(64);
        assert!(current >= 64 || current == 0, "either raised/held above 64 or unreadable");
    }
}
