//! `NetLimits` — the deadline and size knobs shared by the server, the
//! front and the client.
//!
//! The [`crate::EventLoopServer`], the [`crate::FanOutFront`] and the
//! [`crate::ProverClient`] enforce the same limits; before this type existed
//! each config struct carried its own copy of the fields.  `NetLimits` is the
//! single place those knobs live: [`crate::ServerConfig`] and
//! [`crate::ClientConfig`] both embed one in their `limits` field.
//!
//! Migration from the pre-`NetLimits` field names (`config.read_timeout` and
//! friends): the fields moved verbatim into `config.limits`, so
//! `ServerConfig { read_timeout: t, .. }` becomes
//! `ServerConfig { limits: NetLimits::server().with_read_timeout(t), .. }`.

use crate::frame::DEFAULT_MAX_FRAME_BYTES;
use std::time::Duration;

/// Default cap on distinct sessions multiplexed over one connection.
///
/// Generous on purpose: a device legitimately runs many attestation rounds
/// back to back over one connection, and the per-service
/// `max_live_sessions` bound is the real capacity control.  This cap only
/// stops a single connection from addressing an unbounded set of session ids
/// (each tracked id costs the connection 8 bytes of memory).
pub const DEFAULT_MAX_SESSIONS_PER_CONNECTION: usize = 4096;

/// Deadline and size limits shared by the server, the front and the client.
///
/// Construct with [`NetLimits::server`] or [`NetLimits::client`] (they differ
/// only in default deadlines) and adjust with the `with_*` builders:
///
/// ```
/// use lofat_net::NetLimits;
/// use std::time::Duration;
///
/// let limits = NetLimits::server()
///     .with_read_timeout(Some(Duration::from_secs(5)))
///     .with_max_frame_bytes(1 << 16);
/// assert_eq!(limits.max_frame_bytes, 1 << 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetLimits {
    /// Maximum accepted frame payload, in bytes (hostile length prefixes
    /// above this are refused before any buffer is sized from them).
    pub max_frame_bytes: usize,
    /// Read deadline (`None` waits forever).  On the server and the front it
    /// is the inactivity deadline — a connection that has not delivered a
    /// byte for this long is closed; every byte received restarts the clock.
    /// The front also closes a client whose backend owes it a reply and
    /// stays silent this long (a connect that never completes included).
    /// The client uses it as its socket read timeout.
    pub read_timeout: Option<Duration>,
    /// Write deadline (`None` waits forever).  On the server and the front
    /// this bounds how long a connection's write buffer may sit undrained
    /// before the connection is dropped as stalled (on the front, a frame
    /// staged for a backend still connecting too; off Linux it bounds the
    /// blocking dial); the client uses it as its socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Maximum distinct [`lofat::wire::SessionId`]s one connection may
    /// address.  Past the cap, evidence for a fresh session id is answered
    /// with an [`lofat::wire::code::AT_CAPACITY`] verdict without touching
    /// the service (like a session-request refusal, it spends nothing).
    pub max_sessions_per_connection: usize,
}

impl NetLimits {
    /// Server-side defaults: 10 s read/write deadlines (finite so half-open
    /// peers and slow-loris writers cannot pin a connection, and so shutdown
    /// never blocks on an idle peer), 1 MiB frames,
    /// [`DEFAULT_MAX_SESSIONS_PER_CONNECTION`] sessions per connection.
    #[must_use]
    pub fn server() -> Self {
        Self {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_sessions_per_connection: DEFAULT_MAX_SESSIONS_PER_CONNECTION,
        }
    }

    /// Client-side defaults: like [`NetLimits::server`] but with 30 s
    /// deadlines (the client waits on verification work, not just I/O).
    #[must_use]
    pub fn client() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            ..Self::server()
        }
    }

    /// Replaces the maximum frame payload size.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Replaces the read deadline (`None` waits forever).
    #[must_use]
    pub fn with_read_timeout(mut self, read_timeout: Option<Duration>) -> Self {
        self.read_timeout = read_timeout;
        self
    }

    /// Replaces the write deadline (`None` waits forever).
    #[must_use]
    pub fn with_write_timeout(mut self, write_timeout: Option<Duration>) -> Self {
        self.write_timeout = write_timeout;
        self
    }

    /// Replaces the per-connection session cap.
    #[must_use]
    pub fn with_max_sessions_per_connection(mut self, max_sessions: usize) -> Self {
        self.max_sessions_per_connection = max_sessions.max(1);
        self
    }
}

impl Default for NetLimits {
    /// The server-side defaults ([`NetLimits::server`]).
    fn default() -> Self {
        Self::server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_replace_exactly_one_knob() {
        let base = NetLimits::server();
        let tweaked = base.clone().with_max_frame_bytes(64);
        assert_eq!(tweaked.max_frame_bytes, 64);
        assert_eq!(tweaked.read_timeout, base.read_timeout);
        assert_eq!(tweaked.write_timeout, base.write_timeout);
        assert_eq!(tweaked.max_sessions_per_connection, base.max_sessions_per_connection);

        let no_deadline = base.clone().with_read_timeout(None).with_write_timeout(None);
        assert_eq!(no_deadline.read_timeout, None);
        assert_eq!(no_deadline.write_timeout, None);

        assert_eq!(base.clone().with_max_sessions_per_connection(0).max_sessions_per_connection, 1);
    }

    #[test]
    fn client_and_server_defaults_differ_only_in_deadlines() {
        let server = NetLimits::server();
        let client = NetLimits::client();
        assert_eq!(server.max_frame_bytes, client.max_frame_bytes);
        assert_eq!(server.max_sessions_per_connection, client.max_sessions_per_connection);
        assert_eq!(server.read_timeout, Some(Duration::from_secs(10)));
        assert_eq!(client.read_timeout, Some(Duration::from_secs(30)));
    }
}
