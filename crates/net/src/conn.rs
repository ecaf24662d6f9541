//! `Connection` — the sans-I/O per-connection state machine the server
//! drives.
//!
//! The machine owns everything about one connection that is *not* I/O:
//!
//! ```text
//!             bytes_in ──▶ ┌────────────────────┐ ──▶ next_frame
//!                          │     Connection      │      │ admit
//!             bytes_out ◀── │  read buffer        │      ▼
//!            (+ consume)   │  write buffer       │   SessionRequest /
//!                          │  session-id set     │   Verify / SessionLimit
//!              tick ──▶    │  deadline clocks    │
//!                          └────────────────────┘ ◀── frame_out
//! ```
//!
//! * **`bytes_in` → frames**: incremental reassembly of length-prefixed
//!   frames with exactly the semantics of [`crate::frame::read_frame`] — an
//!   oversized length prefix is refused before any buffer is sized from it,
//!   and end-of-stream inside a frame is distinguished from a clean close
//!   with the same `got`/`wanted` accounting.
//! * **frames (`frame_out`) → `bytes_out`**: replies are staged in a write
//!   buffer the driver drains at whatever pace the socket accepts, so
//!   backpressure is the driver's concern and ordering is the machine's.
//! * **deadline ticks**: the machine tracks last-activity and write-stall
//!   clocks in driver-supplied milliseconds; [`Connection::tick`] says when a
//!   deadline has passed, and [`Connection::next_deadline_ms`] when to ask.
//! * **typed close reasons**: every way a connection ends is a
//!   [`CloseReason`]; [`CloseReason::wire_error`] maps the reasons that must
//!   enter the service's books onto the [`WireError`] the driver feeds
//!   [`lofat::service::VerifierService::reject_unparseable`], so the
//!   accounting is decided here, not in the I/O loop.
//!
//! Session multiplexing lives here too: [`Connection::admit`] classifies each
//! complete frame for dispatch and tracks the distinct session ids a
//! connection addresses, refusing ids past
//! [`crate::NetLimits::max_sessions_per_connection`] without touching the
//! service.

use crate::error::NetError;
use crate::frame::FRAME_HEADER_BYTES;
use crate::limits::NetLimits;
use lofat::service::{ServiceError, VerifierService};
use lofat::wire::{
    code, Envelope, Message, SessionId, SessionRequestMsg, VerdictMsg, WireError, HEADER_BYTES,
    WIRE_MAGIC, WIRE_VERSION,
};
use std::collections::HashSet;

/// Read-buffer offset past which consumed bytes are compacted away.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Why a connection ended (or must end), as observed by the state machine.
///
/// Drivers log the reason verbatim and use [`CloseReason::wire_error`] /
/// [`CloseReason::answers_peer`] to decide what enters the service's books
/// and whether a final verdict frame goes out first.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CloseReason {
    /// The peer closed cleanly on a frame boundary.
    PeerClosed,
    /// The peer announced a frame larger than the configured maximum.  The
    /// stream cannot be resynchronised; the driver answers the rejecting
    /// verdict, then closes.
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
        /// The maximum this endpoint accepts.
        max: usize,
    },
    /// The peer closed in the middle of a frame (same `got`/`wanted`
    /// accounting as [`NetError::ClosedMidFrame`]).
    TruncatedFrame {
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the frame announced.
        wanted: usize,
    },
    /// No byte arrived within the read deadline.
    ReadDeadline,
    /// The write buffer sat undrained past the write deadline.
    WriteDeadline,
    /// The socket read failed.
    ReadError(String),
    /// The socket write failed.
    WriteFailed(String),
    /// The service refused to produce a reply (poisoned shard or similar).
    ServiceError(String),
    /// The server is shutting down.
    Shutdown,
}

impl CloseReason {
    /// The framing-level [`WireError`] this close must record through
    /// [`VerifierService::reject_unparseable`], if any.  Only the two reasons
    /// where hostile bytes arrived but no complete byte string ever existed
    /// enter the books; everything else either already went through
    /// `handle_bytes` or spent nothing.
    #[must_use]
    pub fn wire_error(&self) -> Option<WireError> {
        match self {
            CloseReason::FrameTooLarge { len, .. } => Some(WireError::Oversized { len: *len }),
            CloseReason::TruncatedFrame { got, wanted } => {
                Some(WireError::Truncated { needed: *wanted, have: *got })
            }
            _ => None,
        }
    }

    /// Whether the peer is still there to receive the rejecting verdict
    /// before the close (true only for an oversized announcement — a
    /// truncating peer is gone by definition).
    #[must_use]
    pub fn answers_peer(&self) -> bool {
        matches!(self, CloseReason::FrameTooLarge { .. })
    }
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloseReason::PeerClosed => write!(f, "peer closed"),
            CloseReason::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds {max}")
            }
            CloseReason::TruncatedFrame { got, wanted } => {
                write!(f, "mid-frame EOF {got}/{wanted}")
            }
            CloseReason::ReadDeadline => write!(f, "read deadline"),
            CloseReason::WriteDeadline => write!(f, "write deadline"),
            CloseReason::ReadError(e) => write!(f, "read error: {e}"),
            CloseReason::WriteFailed(e) => write!(f, "write failed: {e}"),
            CloseReason::ServiceError(e) => write!(f, "service error: {e}"),
            CloseReason::Shutdown => write!(f, "shutdown"),
        }
    }
}

/// How a complete inbound frame must be dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// A session-request envelope: decoded and answered inline (opening a
    /// session is cheap and must not queue behind evidence verification).
    SessionRequest,
    /// Everything else — evidence, replays, misdirected kinds, malformed
    /// bytes: verified / classified through `handle_bytes`, usually on the
    /// worker pool.
    Verify,
    /// Evidence addressing a fresh session id past the connection's
    /// multiplex cap: answered with an [`code::AT_CAPACITY`] verdict without
    /// touching the service.
    SessionLimit {
        /// The raw session id the frame addressed.
        session: u64,
    },
}

/// The sans-I/O state machine for one framed connection.
///
/// See the [module docs](self) for the full picture.  The driver contract,
/// in the order one readiness cycle runs it:
///
/// 1. socket read → [`Connection::bytes_in`];
/// 2. drain [`Connection::next_frame`] until `Ok(None)`, dispatching each
///    frame per [`Connection::admit`] and staging each reply with
///    [`Connection::frame_out`] (on `Err`, close with that reason after
///    honouring [`CloseReason::answers_peer`]);
/// 3. on end-of-stream, close with [`Connection::peer_closed`] — only after
///    step 2, so a complete buffered frame is never misread as truncation;
/// 4. socket write from [`Connection::bytes_out`] →
///    [`Connection::consume_out`] (or [`Connection::write_blocked`] when the
///    socket refuses bytes);
/// 5. periodically, [`Connection::tick`].
pub struct Connection {
    max_frame_bytes: usize,
    max_sessions: usize,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    read_buf: Vec<u8>,
    read_start: usize,
    write_buf: Vec<u8>,
    write_start: usize,
    sessions: HashSet<u64>,
    last_activity_ms: u64,
    write_blocked_since_ms: Option<u64>,
    poisoned: bool,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("buffered_in", &(self.read_buf.len() - self.read_start))
            .field("buffered_out", &(self.write_buf.len() - self.write_start))
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl Connection {
    /// A fresh machine enforcing `limits`, with its activity clock starting
    /// at `now_ms` (driver-supplied milliseconds on any monotonic scale).
    #[must_use]
    pub fn new(limits: &NetLimits, now_ms: u64) -> Self {
        let to_ms = |d: Option<std::time::Duration>| {
            d.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        };
        Self {
            max_frame_bytes: limits.max_frame_bytes,
            max_sessions: limits.max_sessions_per_connection.max(1),
            read_timeout_ms: to_ms(limits.read_timeout),
            write_timeout_ms: to_ms(limits.write_timeout),
            read_buf: Vec::new(),
            read_start: 0,
            write_buf: Vec::new(),
            write_start: 0,
            sessions: HashSet::new(),
            last_activity_ms: now_ms,
            write_blocked_since_ms: None,
            poisoned: false,
        }
    }

    /// Feeds bytes read from the socket into the reassembly buffer and
    /// restarts the activity clock.
    pub fn bytes_in(&mut self, bytes: &[u8], now_ms: u64) {
        if self.read_start > 0
            && (self.read_start == self.read_buf.len() || self.read_start > COMPACT_THRESHOLD)
        {
            self.read_buf.drain(..self.read_start);
            self.read_start = 0;
        }
        self.read_buf.extend_from_slice(bytes);
        self.last_activity_ms = now_ms;
    }

    /// Extracts the next complete frame, or `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`CloseReason::FrameTooLarge`] when the buffered length prefix exceeds
    /// the maximum — refused before any buffer is sized from it, and the
    /// machine is poisoned (no further frames come out; the stream cannot be
    /// resynchronised).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CloseReason> {
        if self.poisoned {
            return Ok(None);
        }
        let buffered = self.read_buf.len() - self.read_start;
        let Some(len) = self.announced_len() else { return Ok(None) };
        if len > self.max_frame_bytes {
            self.poisoned = true;
            return Err(CloseReason::FrameTooLarge { len, max: self.max_frame_bytes });
        }
        if buffered < FRAME_HEADER_BYTES + len {
            return Ok(None);
        }
        let start = self.read_start + FRAME_HEADER_BYTES;
        let frame = self.read_buf[start..start + len].to_vec();
        self.read_start = start + len;
        Ok(Some(frame))
    }

    /// The close reason for an end-of-stream observed *after* draining
    /// [`Connection::next_frame`]: clean on a frame boundary, truncation
    /// (with [`crate::frame::read_frame`]'s exact `got`/`wanted` accounting)
    /// inside one.
    #[must_use]
    pub fn peer_closed(&self) -> CloseReason {
        let buffered = self.read_buf.len() - self.read_start;
        match self.announced_len() {
            _ if buffered == 0 => CloseReason::PeerClosed,
            None => CloseReason::TruncatedFrame { got: buffered, wanted: FRAME_HEADER_BYTES },
            Some(wanted) => {
                CloseReason::TruncatedFrame { got: buffered - FRAME_HEADER_BYTES, wanted }
            }
        }
    }

    /// The payload length the buffered frame header announces, once all of
    /// the header has arrived.
    fn announced_len(&self) -> Option<usize> {
        let header = self.read_buf.get(self.read_start..self.read_start + FRAME_HEADER_BYTES)?;
        Some(u32::from_le_bytes(header.try_into().expect("a whole header")) as usize)
    }

    /// Classifies a complete frame for dispatch and tracks the session ids
    /// this connection multiplexes (see [`Admission`]).
    pub fn admit(&mut self, frame: &[u8]) -> Admission {
        if is_session_request_frame(frame) {
            return Admission::SessionRequest;
        }
        // Only envelope-shaped frames can address a session; everything else
        // is classified (and rejected) by the service without spending one.
        if frame.len() >= HEADER_BYTES
            && frame[..4] == WIRE_MAGIC
            && frame[4..6] == WIRE_VERSION.to_le_bytes()
        {
            let session = u64::from_le_bytes(frame[6..14].try_into().expect("slice length is 8"));
            if session != 0 && !self.sessions.contains(&session) {
                if self.sessions.len() >= self.max_sessions {
                    return Admission::SessionLimit { session };
                }
                self.sessions.insert(session);
            }
        }
        Admission::Verify
    }

    /// Distinct session ids this connection has addressed so far.
    #[must_use]
    pub fn sessions_multiplexed(&self) -> usize {
        self.sessions.len()
    }

    /// Stages one reply frame (length prefix + payload) for writing.
    ///
    /// # Errors
    ///
    /// [`CloseReason::ServiceError`] if the payload exceeds the frame bound —
    /// never put a frame on the wire the peer's mirror-image limit would
    /// refuse (cannot happen for the protocol's own replies, which are
    /// orders of magnitude below the bound).
    pub fn frame_out(&mut self, payload: &[u8]) -> Result<(), CloseReason> {
        if payload.len() > self.max_frame_bytes {
            return Err(CloseReason::ServiceError(
                NetError::FrameTooLarge { len: payload.len(), max: self.max_frame_bytes }
                    .to_string(),
            ));
        }
        let len = u32::try_from(payload.len()).map_err(|_| {
            CloseReason::ServiceError(format!(
                "reply of {} bytes overflows the frame header",
                payload.len()
            ))
        })?;
        if self.write_start > 0 && self.write_start == self.write_buf.len() {
            self.write_buf.clear();
            self.write_start = 0;
        }
        self.write_buf.extend_from_slice(&len.to_le_bytes());
        self.write_buf.extend_from_slice(payload);
        Ok(())
    }

    /// The staged bytes not yet accepted by the socket.
    #[must_use]
    pub fn bytes_out(&self) -> &[u8] {
        &self.write_buf[self.write_start..]
    }

    /// Whether any staged bytes are waiting (the driver's write-interest
    /// signal).
    #[must_use]
    pub fn wants_write(&self) -> bool {
        self.write_start < self.write_buf.len()
    }

    /// Records that the socket accepted `n` bytes of [`Connection::bytes_out`];
    /// progress clears the write-stall clock.
    pub fn consume_out(&mut self, n: usize) {
        self.write_start = (self.write_start + n).min(self.write_buf.len());
        if self.write_start == self.write_buf.len() {
            self.write_buf.clear();
            self.write_start = 0;
        }
        self.write_blocked_since_ms = None;
    }

    /// Records that the socket refused bytes while the buffer is non-empty,
    /// starting the write-stall clock if it is not already running.
    pub fn write_blocked(&mut self, now_ms: u64) {
        if self.wants_write() && self.write_blocked_since_ms.is_none() {
            self.write_blocked_since_ms = Some(now_ms);
        }
    }

    /// Checks the deadline clocks: `Some(reason)` when the connection has
    /// been inactive past the read deadline or write-stalled past the write
    /// deadline.
    #[must_use]
    pub fn tick(&self, now_ms: u64) -> Option<CloseReason> {
        if let Some(timeout) = self.read_timeout_ms {
            if now_ms.saturating_sub(self.last_activity_ms) >= timeout {
                return Some(CloseReason::ReadDeadline);
            }
        }
        if let (Some(timeout), Some(since)) = (self.write_timeout_ms, self.write_blocked_since_ms) {
            if now_ms.saturating_sub(since) >= timeout {
                return Some(CloseReason::WriteDeadline);
            }
        }
        None
    }

    /// The earliest future instant (same millisecond scale as the driver's
    /// ticks) at which [`Connection::tick`] could fire, for deadline-wheel
    /// scheduling.  `None` when no deadline is armed.
    #[must_use]
    pub fn next_deadline_ms(&self) -> Option<u64> {
        let read = self.read_timeout_ms.map(|t| self.last_activity_ms.saturating_add(t));
        let write = match (self.write_timeout_ms, self.write_blocked_since_ms) {
            (Some(t), Some(since)) => Some(since.saturating_add(t)),
            _ => None,
        };
        match (read, write) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        }
    }
}

/// The serde variant index of [`Message::SessionRequest`] (pinned by the
/// wire-format tests in `lofat::wire`): declaration order `Challenge` = 0,
/// `Evidence` = 1, `Verdict` = 2, `SessionRequest` = 3.
const SESSION_REQUEST_VARIANT: [u8; 4] = 3u32.to_le_bytes();

/// Cheap structural peek: does this frame *look like* a current-version
/// session-request envelope?  Avoids fully decoding evidence bodies (the
/// largest message in the protocol) on the ingest thread just to learn the
/// message kind — evidence goes to the pool, which decodes exactly once.  A
/// false positive merely costs one inline decode; a false negative is
/// impossible for well-formed frames (the fields checked here are fixed
/// offsets of the envelope header).  Shared with the fan-out front, which
/// routes session requests round-robin (they name no session yet) and
/// everything else by the session id at the same fixed offsets.
pub(crate) fn is_session_request_frame(frame: &[u8]) -> bool {
    frame.len() >= HEADER_BYTES + 4
        && frame[..4] == WIRE_MAGIC
        && frame[4..6] == WIRE_VERSION.to_le_bytes()
        && frame[HEADER_BYTES..HEADER_BYTES + 4] == SESSION_REQUEST_VARIANT
}

/// Answers a [`Message::SessionRequest`], moving its input into the
/// service: the challenge envelope on success, a refusing verdict otherwise.
/// Refusals mirror the typed [`VerifierService::open_session`] errors, which
/// do not touch statistics — an unopened session has nothing to conserve.
pub(crate) fn session_request_reply(
    service: &VerifierService,
    request: SessionRequestMsg,
) -> Result<Vec<u8>, ServiceError> {
    let refusal = if request.program_id != service.program_id() {
        VerdictMsg::rejected(
            code::PROGRAM_ID_MISMATCH,
            format!(
                "this verifier attests `{}`, not `{}`",
                service.program_id(),
                request.program_id
            ),
        )
    } else {
        match service.open_session(request.input) {
            Ok(id) => {
                return service.challenge_envelope(id)?.encode().map_err(ServiceError::Wire);
            }
            Err(ServiceError::UnknownInput { input }) => VerdictMsg::rejected(
                code::UNKNOWN_INPUT,
                format!("no reference measurement precomputed for input {input:?}"),
            ),
            Err(ServiceError::AtCapacity { live, max }) => VerdictMsg::rejected(
                code::AT_CAPACITY,
                format!("live-session limit reached ({live}/{max}), try again later"),
            ),
            Err(other) => VerdictMsg::rejected(code::INTERNAL_ERROR, other.to_string()),
        }
    };
    Envelope::new(SessionId(0), Message::Verdict(refusal)).encode().map_err(ServiceError::Wire)
}

/// The refusing verdict for evidence past the per-connection multiplex cap
/// ([`Admission::SessionLimit`]).  Addressed to the offending session id;
/// like a session-request refusal it touches no counters — nothing was
/// opened or spent.
pub(crate) fn session_limit_refusal(
    session: u64,
    max_sessions: usize,
) -> Result<Vec<u8>, ServiceError> {
    let refusal = VerdictMsg::rejected(
        code::AT_CAPACITY,
        format!("connection multiplex limit reached ({max_sessions} sessions on one connection)"),
    );
    Envelope::new(SessionId(session), Message::Verdict(refusal))
        .encode()
        .map_err(ServiceError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn limits() -> NetLimits {
        NetLimits::server().with_max_frame_bytes(64)
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (u32::try_from(payload.len()).unwrap()).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn frames_are_reassembled_from_one_byte_feeds() {
        let mut conn = Connection::new(&limits(), 0);
        let wire = framed(b"stuttered");
        for (i, byte) in wire.iter().enumerate() {
            assert_eq!(conn.next_frame().unwrap(), None, "frame complete after byte {i}?");
            conn.bytes_in(&[*byte], i as u64);
        }
        assert_eq!(conn.next_frame().unwrap(), Some(b"stuttered".to_vec()));
        assert_eq!(conn.next_frame().unwrap(), None);
    }

    #[test]
    fn pipelined_frames_come_out_in_order() {
        let mut conn = Connection::new(&limits(), 0);
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(b""));
        wire.extend_from_slice(&framed(b"third"));
        conn.bytes_in(&wire, 0);
        assert_eq!(conn.next_frame().unwrap(), Some(b"first".to_vec()));
        assert_eq!(conn.next_frame().unwrap(), Some(Vec::new()), "zero-length frames are legal");
        assert_eq!(conn.next_frame().unwrap(), Some(b"third".to_vec()));
        assert_eq!(conn.peer_closed(), CloseReason::PeerClosed, "boundary close is clean");
    }

    #[test]
    fn oversized_prefix_is_refused_and_poisons_the_machine() {
        let mut conn = Connection::new(&limits(), 0);
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(b"body never arrives");
        conn.bytes_in(&wire, 0);
        let err = conn.next_frame().unwrap_err();
        assert_eq!(err, CloseReason::FrameTooLarge { len: u32::MAX as usize, max: 64 });
        assert_eq!(err.wire_error(), Some(WireError::Oversized { len: u32::MAX as usize }));
        assert!(err.answers_peer());
        assert_eq!(conn.next_frame().unwrap(), None, "poisoned: no resynchronisation");
    }

    #[test]
    fn truncation_accounting_matches_read_frame() {
        // Header announces 10 bytes, only 3 arrive.
        let mut conn = Connection::new(&limits(), 0);
        let mut wire = 10u32.to_le_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        conn.bytes_in(&wire, 0);
        assert_eq!(conn.next_frame().unwrap(), None);
        let reason = conn.peer_closed();
        assert_eq!(reason, CloseReason::TruncatedFrame { got: 3, wanted: 10 });
        assert_eq!(reason.wire_error(), Some(WireError::Truncated { needed: 10, have: 3 }));
        assert!(!reason.answers_peer(), "a truncating peer is gone");

        // The header itself is cut short.
        let mut conn = Connection::new(&limits(), 0);
        conn.bytes_in(&[7u8, 0], 0);
        assert_eq!(
            conn.peer_closed(),
            CloseReason::TruncatedFrame { got: 2, wanted: FRAME_HEADER_BYTES }
        );
    }

    #[test]
    fn write_buffer_drains_across_partial_consumes() {
        let mut conn = Connection::new(&limits(), 0);
        conn.frame_out(b"reply-a").unwrap();
        conn.frame_out(b"reply-b").unwrap();
        assert!(conn.wants_write());
        let total = conn.bytes_out().len();
        assert_eq!(total, 2 * FRAME_HEADER_BYTES + 14);
        conn.consume_out(5);
        assert_eq!(conn.bytes_out().len(), total - 5);
        conn.consume_out(total - 5);
        assert!(!conn.wants_write());
        assert!(conn.bytes_out().is_empty());
    }

    #[test]
    fn oversized_replies_are_refused_before_staging() {
        let mut conn = Connection::new(&limits(), 0);
        assert!(conn.frame_out(&[0u8; 65]).is_err());
        assert!(!conn.wants_write(), "nothing was staged");
    }

    #[test]
    fn deadlines_fire_on_inactivity_and_write_stall() {
        let limits = NetLimits::server()
            .with_read_timeout(Some(Duration::from_millis(100)))
            .with_write_timeout(Some(Duration::from_millis(50)));
        let mut conn = Connection::new(&limits, 0);
        assert_eq!(conn.tick(99), None);
        assert_eq!(conn.tick(100), Some(CloseReason::ReadDeadline));
        conn.bytes_in(b"x", 90);
        assert_eq!(conn.tick(100), None, "activity restarts the clock");
        assert_eq!(conn.next_deadline_ms(), Some(190));

        conn.frame_out(b"stuck").unwrap();
        conn.write_blocked(100);
        assert_eq!(conn.next_deadline_ms(), Some(150), "write stall is now the nearer deadline");
        assert_eq!(conn.tick(149), None);
        assert_eq!(conn.tick(150), Some(CloseReason::WriteDeadline));
        conn.consume_out(conn.bytes_out().len());
        assert_eq!(conn.tick(150), None, "draining clears the stall clock");
    }

    #[test]
    fn no_deadlines_means_no_ticks() {
        let limits = NetLimits::server().with_read_timeout(None).with_write_timeout(None);
        let conn = Connection::new(&limits, 0);
        assert_eq!(conn.tick(u64::MAX), None);
        assert_eq!(conn.next_deadline_ms(), None);
    }

    #[test]
    fn admission_tracks_sessions_and_enforces_the_multiplex_cap() {
        let limits = NetLimits::server().with_max_sessions_per_connection(2);
        let mut conn = Connection::new(&limits, 0);

        let envelope = |session: u64| {
            let mut frame = WIRE_MAGIC.to_vec();
            frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
            frame.extend_from_slice(&session.to_le_bytes());
            frame.extend_from_slice(&8u32.to_le_bytes()); // body length
            frame.extend_from_slice(&1u32.to_le_bytes()); // Evidence variant
            frame.extend_from_slice(&[0u8; 4]);
            frame
        };

        assert_eq!(conn.admit(&envelope(1)), Admission::Verify);
        assert_eq!(conn.admit(&envelope(1)), Admission::Verify, "replays are not fresh sessions");
        assert_eq!(conn.admit(&envelope(2)), Admission::Verify);
        assert_eq!(conn.sessions_multiplexed(), 2);
        assert_eq!(conn.admit(&envelope(3)), Admission::SessionLimit { session: 3 });
        assert_eq!(conn.sessions_multiplexed(), 2, "refused ids are not tracked");
        assert_eq!(conn.admit(&envelope(0)), Admission::Verify, "id 0 is never a real session");
        assert_eq!(conn.admit(b"garbage"), Admission::Verify, "non-envelopes go to the service");

        // A session request is classified before any session accounting.
        let mut request = WIRE_MAGIC.to_vec();
        request.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        request.extend_from_slice(&0u64.to_le_bytes());
        request.extend_from_slice(&4u32.to_le_bytes());
        request.extend_from_slice(&SESSION_REQUEST_VARIANT);
        assert_eq!(conn.admit(&request), Admission::SessionRequest);
    }
}
