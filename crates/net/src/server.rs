//! `ServerConfig` and the event log shared by the verifier server
//! ([`crate::EventLoopServer`]) and the fan-out front
//! ([`crate::FanOutFront`]).
//!
//! Accounting discipline, for every listener in this crate: a server never
//! touches statistics itself.  Well-formed and malformed envelope bytes alike
//! flow through [`lofat::service::VerifierService::handle_bytes`];
//! framing-level rejections (an oversized length prefix, a frame cut short),
//! where a complete byte string never existed, are reported through
//! [`lofat::service::VerifierService::reject_unparseable`] — the same
//! `record_verdict` path — so the conservation law
//! `opened == accepted + sessions_rejected + expired + live` holds over
//! socket traffic exactly as it does in-process.  The mapping from close
//! reason to book entry lives on [`crate::CloseReason::wire_error`].

use crate::limits::NetLimits;
use lofat::pool::PoolConfig;
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// Tunables of an [`crate::EventLoopServer`] (and of a
/// [`crate::FanOutFront`], which uses every field but `pool`).
///
/// The per-connection deadline and size knobs moved into
/// [`ServerConfig::limits`] when [`NetLimits`] unified them across the
/// server and the client (`config.read_timeout` →
/// `config.limits.read_timeout`, and so on).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum connections served concurrently (on the front, clients: each
    /// client's backend connections come with it).  Past it the listener
    /// stops accepting until a connection closes, so a flood waits in the
    /// kernel backlog instead of costing memory per connection.
    pub max_connections: usize,
    /// Per-connection deadlines, frame bound and session-multiplex cap —
    /// see [`NetLimits`].
    #[doc(alias = "read_timeout")]
    #[doc(alias = "write_timeout")]
    #[doc(alias = "max_frame_bytes")]
    pub limits: NetLimits,
    /// Worker-pool shape for the verification work (see [`PoolConfig`]).
    pub pool: PoolConfig,
    /// When set, every connection event is appended to this file as it
    /// happens (one line per event), so a crashed or failing run leaves its
    /// server log on disk.  Missing parent directories are created; a path
    /// that cannot be opened for appending fails the bind.  The same events
    /// are always available in memory via [`crate::EventLoopServer::events`].
    pub log_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            limits: NetLimits::server(),
            pool: PoolConfig::default(),
            log_path: None,
        }
    }
}

/// Cap on the in-memory event log (oldest entries are dropped first).
const MAX_LOG_LINES: usize = 4096;

pub(crate) struct EventLog {
    lines: Mutex<(u64, VecDeque<String>)>,
    file: Option<Mutex<std::fs::File>>,
}

impl EventLog {
    /// An in-memory log, mirrored to `path` when one is given.
    ///
    /// # Errors
    ///
    /// The I/O error from creating `path`'s parent directories or opening
    /// `path` for appending.
    pub(crate) fn new(path: Option<&PathBuf>) -> std::io::Result<Self> {
        let file = match path {
            Some(path) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
                Some(Mutex::new(file))
            }
            None => None,
        };
        Ok(Self { lines: Mutex::new((0, VecDeque::new())), file })
    }

    pub(crate) fn push(&self, event: String) {
        let line = {
            let mut lines = self.lines.lock().expect("log lock poisoned");
            lines.0 += 1;
            let line = format!("[{:>6}] {event}", lines.0);
            lines.1.push_back(line.clone());
            while lines.1.len() > MAX_LOG_LINES {
                lines.1.pop_front();
            }
            line
        };
        if let Some(file) = &self.file {
            let mut file = file.lock().expect("log file lock poisoned");
            let _ = writeln!(file, "{line}");
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<String> {
        self.lines.lock().expect("log lock poisoned").1.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::ServerConfig;
    use crate::{EventLoopServer, FanOutFront, NetError};
    use lofat::service::{ServiceConfig, VerifierService};
    use lofat::{EngineConfig, MeasurementDatabase, Verifier};
    use lofat_crypto::DeviceKey;
    use lofat_rv32::asm::assemble;
    use std::sync::Arc;

    #[test]
    fn an_unwritable_log_path_fails_both_binds() {
        // A regular file where the log's parent directory should be: neither
        // creating the directory nor opening the log can succeed.
        let dir = std::env::temp_dir().join(format!("lofat-net-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let not_a_dir = dir.join("not-a-dir");
        std::fs::write(&not_a_dir, b"").expect("regular file");
        let config = ServerConfig {
            log_path: Some(not_a_dir.join("server.log")),
            ..ServerConfig::default()
        };

        let program = assemble(".text\nmain:\n    ecall\n").expect("assemble");
        let key = DeviceKey::from_seed("log-path");
        let verifier = Verifier::new(program, "demo", key.verification_key()).expect("verifier");
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![]])
            .expect("database");
        let service =
            Arc::new(VerifierService::new(db, key.verification_key(), ServiceConfig::default()));

        let server = EventLoopServer::bind("127.0.0.1:0", service, config.clone());
        assert!(matches!(server, Err(NetError::Io(_))), "{server:?}");
        let backend = "127.0.0.1:9".parse().expect("address");
        let front = FanOutFront::bind("127.0.0.1:0", vec![backend], config);
        assert!(matches!(front, Err(NetError::Io(_))), "{front:?}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
