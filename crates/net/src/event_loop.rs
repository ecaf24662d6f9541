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
use crate::limits::NetLimits;
use crate::poller::{Event, Poller, HANGUP, READABLE, WRITABLE};
use crate::server::{EventLog, ServerConfig};
use lofat::pool::ParallelVerifier;
use lofat::service::{ServiceError, VerifierService};
use lofat::wire::{Envelope, Message, SessionId};
use std::collections::{HashMap, VecDeque};
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
    //! crates.io access) — the only other unsafe code in the crate is the
    //! poller's syscall shims.
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
    shared: Arc<LoopShared>,
    local_addr: SocketAddr,
    driver: Option<JoinHandle<()>>,
}

/// A verdict reply as the pool produces it (or the error it died with).
type Reply = Result<Vec<u8>, ServiceError>;

struct LoopShared {
    service: Arc<VerifierService>,
    log: EventLog,
    shutting_down: AtomicBool,
    connections_served: AtomicU64,
    frames_served: AtomicU64,
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
            .field("local_addr", &self.local_addr)
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
        let log = EventLog::new(config.log_path.as_ref())?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let pool = ParallelVerifier::spawn(Arc::clone(&service), config.pool);
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(LoopShared {
            service,
            log,
            shutting_down: AtomicBool::new(false),
            connections_served: AtomicU64::new(0),
            frames_served: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            completed: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
        });
        shared.log.push(format!(
            "listen addr={local_addr} program={} workers={} max_connections={} transport=event-loop",
            shared.service.program_id(),
            pool.worker_count(),
            config.max_connections.max(1),
        ));
        let driver = Driver::new(
            listener,
            Arc::clone(&shared),
            config.limits,
            config.max_connections.max(1),
            pool,
            wake_rx,
        )
        .map_err(NetError::Io)?;
        let driver = std::thread::Builder::new()
            .name("lofat-net-loop".into())
            .spawn(move || driver.run())
            .expect("spawn event loop");
        Ok(Self { shared, local_addr, driver: Some(driver) })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<VerifierService> {
        &self.shared.service
    }

    /// Connections accepted over the server lifetime.
    pub fn connections_served(&self) -> u64 {
        self.shared.connections_served.load(Ordering::Relaxed)
    }

    /// Frames answered over the server lifetime.
    pub fn frames_served(&self) -> u64 {
        self.shared.frames_served.load(Ordering::Relaxed)
    }

    /// Connections currently held by the loop.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// A snapshot of the in-memory event log (the most recent few thousand
    /// events; the full history goes to [`ServerConfig::log_path`] when set).
    pub fn events(&self) -> Vec<String> {
        self.shared.log.snapshot()
    }

    /// Gracefully shuts the server down: stop accepting, stop reading,
    /// deliver in-flight verdicts and flush staged replies (bounded by the
    /// write deadline), then drain the verification pool.
    pub fn shutdown(mut self) {
        self.stop();
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
        self.stop();
        self.shared
            .service
            .write_snapshot(path, reserve)
            .map_err(|e| NetError::Io(std::io::Error::other(e.to_string())))
    }

    fn stop(&mut self) {
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
            self.connections_served(),
            self.frames_served(),
        ));
    }
}

impl Drop for EventLoopServer {
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
    /// pool.  Only the longest filled prefix is ever staged for writing.
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
}

enum WheelVerdict {
    Defer,
    Close(CloseReason),
    Rearm(Option<u64>),
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
    next_id: u64,
    shared: Arc<LoopShared>,
    limits: NetLimits,
    max_connections: usize,
    pool: ParallelVerifier,
    wake_rx: UnixStream,
    wheel: DeadlineWheel,
    start: Instant,
    drain_deadline: Option<Instant>,
}

impl Driver {
    fn new(
        listener: TcpListener,
        shared: Arc<LoopShared>,
        limits: NetLimits,
        max_connections: usize,
        pool: ParallelVerifier,
        wake_rx: UnixStream,
    ) -> std::io::Result<Self> {
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, READABLE)?;
        Ok(Self {
            poller,
            listener: Some(listener),
            accepting: true,
            conns: HashMap::new(),
            next_id: 0,
            shared,
            limits,
            max_connections,
            pool,
            wake_rx,
            wheel: DeadlineWheel::new(),
            start: Instant::now(),
            drain_deadline: None,
        })
    }

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
                    id => self.conn_event(id, event.ready),
                }
            }
            self.process_completions();
            self.advance_wheel();
        }
        // Teardown: dropping the pool joins its workers, which first run the
        // reply of every job still queued.  It goes before the rest of the
        // driver, so those replies still find the wake channel open.
        drop(self.pool);
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
        let mut eof = false;
        {
            let Some(state) = self.conns.get_mut(&id) else { return };
            if state.draining {
                return;
            }
            let mut buf = [0u8; READ_CHUNK];
            loop {
                match state.stream.read(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        state.machine.bytes_in(&buf[..n], now);
                        if n < READ_CHUNK {
                            // Level-triggered: anything left refires the event.
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        let reason = CloseReason::ReadError(e.to_string());
                        self.finalize_close(id, &reason);
                        return;
                    }
                }
            }
        }
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
                let Some(state) = self.conns.get_mut(&id) else { return Ok(()) };
                match state.machine.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => return Ok(()),
                    Err(reason) => return Err(reason),
                }
            };
            self.dispatch(id, frame);
        }
    }

    /// Dispatches one frame per its [`Admission`]: session requests inline,
    /// evidence to the pool, over-cap sessions refused — always through the
    /// connection's ordered reply queue, so pipelined frames answer in
    /// arrival order.
    fn dispatch(&mut self, id: u64, frame: Vec<u8>) {
        let Some(state) = self.conns.get_mut(&id) else { return };
        let seq = state.next_seq;
        state.next_seq += 1;
        match state.machine.admit(&frame) {
            Admission::SessionRequest => {
                let reply = match Envelope::decode(&frame) {
                    Ok(Envelope { message: Message::SessionRequest(request), .. }) => {
                        session_request_reply(&self.shared.service, &request)
                    }
                    // The peek was optimistic; let the service classify
                    // whatever this really is.
                    _ => self.shared.service.handle_bytes(&frame),
                };
                state.pending.push_back((seq, Some(reply)));
            }
            Admission::SessionLimit { session } => {
                let reply = session_limit_refusal(session, self.limits.max_sessions_per_connection);
                state.pending.push_back((seq, Some(reply)));
            }
            Admission::Verify => {
                state.pending.push_back((seq, None));
                let shared = Arc::clone(&self.shared);
                self.pool.submit(frame, move |done| {
                    shared.completed_lock().push((id, seq, done.reply));
                    shared.wake();
                });
            }
        }
    }

    /// Stages the longest filled prefix of the reply queue onto the wire
    /// buffer, counting each frame as served the moment its reply is staged.
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
                Err(e) => return Err(CloseReason::ServiceError(e.to_string())),
            }
        }
        Ok(())
    }

    /// Records that `id` must close (accounting for framing-level rejections
    /// through the shared [`CloseReason::wire_error`] mapping) and lets the
    /// flush path deliver whatever is still owed first.
    fn mark_close(&mut self, id: u64, reason: CloseReason) {
        let mut farewell = None;
        if let Some(wire_error) = reason.wire_error() {
            // A truncated or oversized frame enters the books exactly like it
            // does in-process; an oversized announcement is also answered
            // (the peer is still there to read the verdict).
            match self.shared.service.reject_unparseable(SessionId(0), &wire_error) {
                Ok(reply) if reason.answers_peer() => farewell = Some(reply),
                _ => {}
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
        if let Err(reason) = try_flush_stream(state, now) {
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
        self.shared.active.store(self.conns.len(), Ordering::Relaxed);
        self.shared.log.push(format!("close id={id} frames={} ({reason})", state.frames));
        if self.conns.len() < self.max_connections {
            self.resume_accepting();
        }
        // Replies still verifying on the pool arrive later and are dropped —
        // the books were already written when `handle_bytes` ran.
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
            if let Some(entry) =
                state.pending.iter_mut().find(|(s, filled)| *s == seq && filled.is_none())
            {
                entry.1 = Some(reply);
            }
            self.flush_and_update(id, now);
        }
    }

    fn advance_wheel(&mut self) {
        let now = self.now_ms();
        for id in self.wheel.due(now) {
            let verdict = {
                let Some(state) = self.conns.get_mut(&id) else { continue };
                state.scheduled = false;
                if !state.pending.is_empty() {
                    // The peer is waiting on *us* (verdicts outstanding);
                    // hold its deadline and recheck shortly.
                    WheelVerdict::Defer
                } else {
                    match state.machine.tick(now) {
                        Some(reason) => WheelVerdict::Close(reason),
                        None => WheelVerdict::Rearm(state.machine.next_deadline_ms()),
                    }
                }
            };
            match verdict {
                WheelVerdict::Defer => {
                    self.wheel.schedule(id, now + WHEEL_GRANULARITY_MS);
                    if let Some(state) = self.conns.get_mut(&id) {
                        state.scheduled = true;
                    }
                }
                WheelVerdict::Close(reason) => self.finalize_close(id, &reason),
                WheelVerdict::Rearm(Some(deadline)) => {
                    self.wheel.schedule(id, deadline);
                    if let Some(state) = self.conns.get_mut(&id) {
                        state.scheduled = true;
                    }
                }
                WheelVerdict::Rearm(None) => {}
            }
        }
    }
}

/// Writes as much of the staged output as the socket will take right now.
fn try_flush_stream(state: &mut ConnState, now: u64) -> Result<(), CloseReason> {
    while state.machine.wants_write() {
        match state.stream.write(state.machine.bytes_out()) {
            Ok(0) => return Err(CloseReason::WriteFailed("socket accepted no bytes".into())),
            Ok(n) => state.machine.consume_out(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                state.machine.write_blocked(now);
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
