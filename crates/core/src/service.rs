//! `VerifierService` — a sharded, thread-safe multi-session verifier front-end.
//!
//! The paper's verifier fronts *many* embedded provers; this module scales the
//! single-session state machine of [`crate::session`] to thousands of
//! interleaved sessions against one shared [`MeasurementDatabase`]:
//!
//! * session state is split across [`ServiceConfig::shards`] independent
//!   shards, each behind its own lock; a session lives in shard
//!   `(id - 1) % shards`, so two sessions in different shards never contend;
//! * sessions are keyed by [`SessionId`] and live until decided or expired
//!   (then they are evicted eagerly, so memory tracks outstanding work);
//! * nonces are single-use across **all** sessions: session `n` carries
//!   nonce `n`, and each shard owns the slice of the nonce space congruent to
//!   its index, so replayed evidence is recognised with O(1) memory and at
//!   most one (the owning) shard lock — no replay cache to grow with fleet
//!   size, and no lock is ever held while another is acquired;
//! * stale sessions expire on a service-wide atomic cycle clock
//!   ([`VerifierService::advance_clock`] / [`VerifierService::expire_stale`]);
//! * evidence is decided by the judge ([`crate::judge`]), the same five checks
//!   in the same order as [`crate::verifier::Verifier::verify`], against the
//!   database mode of [`MeasurementDatabase`]: the expected measurement is a
//!   lookup, logarithmic in the number of inputs, with no golden replay on the
//!   hot path, which is what lets one service instance front a large device
//!   fleet;
//! * every evidence envelope takes the same path: the received signed fields
//!   are absorbed into the signature MAC, the MAC is finalized (four lanes at
//!   a time in a batch, see [`VerifierService::handle_bytes_batch`]), the
//!   database check runs, and a deciding verdict spends the session; nothing
//!   is remembered from one session's evidence to the next;
//! * every interaction updates [`ServiceStats`] through one lock-free atomic
//!   accounting path shared by [`VerifierService::handle_bytes`] and the typed
//!   API, including per-reason-code rejection counts.
//!
//! The service is sans-I/O like the sessions: [`VerifierService::handle_bytes`]
//! maps request bytes to response bytes and never panics on malformed input.
//! Every entry point takes `&self`, and the service is `Send + Sync`: wrap it
//! in an [`std::sync::Arc`] and call it from as many threads as you like, or
//! hand it to a [`crate::pool::ParallelVerifier`] to drain a work queue with a
//! dedicated worker pool.  The default configuration (one shard, no pool) is
//! behaviourally identical to the pre-sharding single-threaded service.

use crate::judge::{self, Bound, Judgement};
use crate::measurement_db::MeasurementDatabase;
use crate::session::{SessionError, VerifierSession};
use crate::verifier::{Challenge, RejectionReason};
use crate::wire::{
    code, Envelope, Message, SessionId, SnapshotError, SnapshotMsg, SnapshotRef, VerdictMsg,
    WireError,
};
use lofat_crypto::sign::HmacVerifier;
use lofat_crypto::{Digest, Hmac, Nonce, VerificationKey};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Tunables of a [`VerifierService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceConfig {
    /// Cycles (on the service clock) a session stays valid after opening.
    pub session_deadline_cycles: u64,
    /// Maximum number of live sessions across all shards;
    /// [`VerifierService::open_session`] refuses beyond this.
    pub max_live_sessions: usize,
    /// Number of session shards (`0` is treated as `1`).  Each shard owns its
    /// own lock and its own slice of the nonce space; more shards means less
    /// contention when many threads call the service concurrently.  The shard
    /// count does not change any verdict, authenticator or statistic — only
    /// how the session map is partitioned.
    pub shards: usize,
    /// This service's index within a statically partitioned multi-process
    /// deployment (`0 ≤ partition_index < partition_count`; values `≥
    /// partition_count` are reduced modulo it at construction).  See
    /// [`ServiceConfig::partition_count`].
    pub partition_index: u64,
    /// Number of processes the session/nonce space is statically partitioned
    /// across (`0` is treated as `1` — the default, unpartitioned case).
    /// Partitioning extends the in-process shard congruence scheme one level
    /// up: with `P` partitions of `S` shards each, shard `s` of partition `p`
    /// owns the counters congruent to `p + s·P` modulo `S·P`, so the `N`
    /// processes behind a fan-out front collectively issue the same dense
    /// counter sequence `1, 2, 3, …` a single `S·P`-shard service would, and
    /// no two processes can ever issue the same nonce.
    pub partition_count: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            session_deadline_cycles: 1_000_000,
            max_live_sessions: 65_536,
            shards: 1,
            partition_index: 0,
            partition_count: 1,
        }
    }
}

impl ServiceConfig {
    /// The default configuration with `shards` session shards.
    pub fn sharded(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }

    /// Returns this configuration as partition `index` of `count` cooperating
    /// processes (see [`ServiceConfig::partition_count`]).
    ///
    /// ```
    /// use lofat::service::ServiceConfig;
    ///
    /// let backend = ServiceConfig::sharded(2).partitioned(1, 3);
    /// assert_eq!((backend.partition_index, backend.partition_count), (1, 3));
    /// ```
    #[must_use]
    pub fn partitioned(self, index: u64, count: u64) -> Self {
        Self { partition_index: index, partition_count: count, ..self }
    }
}

/// Counters the service maintains across all sessions.
///
/// This is the serialisable *snapshot* type returned by
/// [`VerifierService::stats`]; internally the service keeps the counters in
/// lock-free atomics so any thread can record an outcome without taking a
/// shard lock.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Sessions opened over the service lifetime.
    pub sessions_opened: u64,
    /// Evidence submissions accepted.
    pub accepted: u64,
    /// Evidence submissions rejected — any reason code except
    /// [`code::SESSION_EXPIRED`], which counts in
    /// [`ServiceStats::expired`] instead (expiry is a lifecycle event, not a
    /// judgement of the evidence).
    pub rejected: u64,
    /// Sessions *spent* by an authenticated rejection (the evidence named the
    /// session's program, was bound to its nonce and signed under the fleet
    /// key, but the loop-path or reference check failed; see
    /// [`crate::judge`]).  A subset of [`ServiceStats::rejected`]:
    /// unauthenticated rejections (wrong program id, misrouted nonce, bad
    /// signature, replays, malformed envelopes) do not consume a session and
    /// are excluded, which is what makes the conservation law below hold
    /// exactly:
    ///
    /// ```text
    /// sessions_opened == accepted + sessions_rejected + expired + live_sessions
    /// ```
    pub sessions_rejected: u64,
    /// Sessions that expired before (or at) evidence submission, and the
    /// sessions a restore interrupted (see [`VerifierService::restore`]).
    pub expired: u64,
    /// Submissions carrying an already-spent nonce.  Covers re-submissions
    /// to decided sessions and cross-session nonce reuse; because replay
    /// detection is O(1) (no per-session history), first-time evidence that
    /// arrives after its session was swept by
    /// [`VerifierService::expire_stale`] is indistinguishable from a replay
    /// and lands here too.
    pub replays_blocked: u64,
    /// Envelopes that failed wire-level decoding.
    pub wire_errors: u64,
    /// Always `0`: the service keeps no verdict cache, so every verdict runs
    /// the whole pipeline.  Kept, with [`ServiceStats::cache_misses`], so
    /// readers that report a hit ratio still build.
    pub cache_hits: u64,
    /// Session-spending verdicts, each of which ran the full pipeline: it
    /// reads `accepted + sessions_rejected` and is not stored on its own.
    pub cache_misses: u64,
    /// Rejections by stable reason code ([`code`]).
    pub rejections_by_code: BTreeMap<u16, u64>,
}

impl ServiceStats {
    /// The conservation law every service upholds.  Each opened session is
    /// eventually accounted for exactly once — accepted, spent by an
    /// authenticated rejection, expired, or still live:
    ///
    /// ```text
    /// sessions_opened == accepted + sessions_rejected + expired + live
    /// ```
    ///
    /// Returns `true` when the books balance for `live` currently-live
    /// sessions.
    pub fn is_conserved(&self, live: usize) -> bool {
        self.sessions_opened == self.accepted + self.sessions_rejected + self.expired + live as u64
    }

    /// Compact one-line rendering of [`ServiceStats::rejections_by_code`] in
    /// the shared `code:count;…` form (`"-"` when there were no rejections).
    /// The CLI stats tables and the `lofat-fleet` manifests all print code
    /// breakdowns through [`codes_summary`] so they stay diffable against
    /// each other.
    ///
    /// ```
    /// use lofat::service::ServiceStats;
    ///
    /// let mut stats = ServiceStats::default();
    /// assert_eq!(stats.rejection_codes_summary(), "-");
    /// stats.rejections_by_code.insert(3, 2);
    /// stats.rejections_by_code.insert(67, 5);
    /// assert_eq!(stats.rejection_codes_summary(), "3:2;67:5");
    /// ```
    pub fn rejection_codes_summary(&self) -> String {
        codes_summary(&self.rejections_by_code)
    }

    /// Folds another service's books into this one, field by field.
    ///
    /// Every counter is additive and partitioned deployments keep disjoint
    /// session stripes (see [`ServiceConfig::partitioned`]), so summing the
    /// per-partition snapshots yields the books a single service covering the
    /// whole session space would have kept — including the conservation
    /// law, which survives addition:
    ///
    /// ```
    /// use lofat::service::ServiceStats;
    ///
    /// let mut total = ServiceStats { sessions_opened: 2, accepted: 2, ..ServiceStats::default() };
    /// let mut part = ServiceStats { sessions_opened: 1, accepted: 1, ..ServiceStats::default() };
    /// part.rejections_by_code.insert(67, 3);
    /// total.absorb(&part);
    /// assert_eq!(total.sessions_opened, 3);
    /// assert_eq!(total.rejections_by_code.get(&67), Some(&3));
    /// assert!(total.is_conserved(0));
    /// ```
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.sessions_opened += other.sessions_opened;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.sessions_rejected += other.sessions_rejected;
        self.expired += other.expired;
        self.replays_blocked += other.replays_blocked;
        self.wire_errors += other.wire_errors;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        for (code, count) in &other.rejections_by_code {
            *self.rejections_by_code.entry(*code).or_insert(0) += count;
        }
    }
}

/// Renders a `code → count` map as the stable `code:count;…` summary string
/// (`"-"` when empty), ascending by code.  Shared by
/// [`ServiceStats::rejection_codes_summary`] and the `lofat-fleet` manifest
/// writers, so every surface prints verdict breakdowns identically.
pub fn codes_summary(counts: &BTreeMap<u16, u64>) -> String {
    if counts.is_empty() {
        return "-".to_string();
    }
    counts.iter().map(|(code, count)| format!("{code}:{count}")).collect::<Vec<_>>().join(";")
}

/// Number of per-code counter slots the atomic stats keep.  All stable wire
/// codes (see [`code`]) are far below this; anything larger shares an
/// overflow slot so accounting never loses a rejection.
const CODE_SLOTS: usize = 128;

/// Lock-free internal counters behind [`ServiceStats`].  One accounting path
/// ([`AtomicStats::record_verdict`]) classifies every verdict the service
/// produces — whether it came from the typed API or from
/// [`VerifierService::handle_bytes`] — so no outcome can be double- or
/// under-counted.
#[derive(Debug)]
struct AtomicStats {
    sessions_opened: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    sessions_rejected: AtomicU64,
    expired: AtomicU64,
    replays_blocked: AtomicU64,
    wire_errors: AtomicU64,
    by_code: [AtomicU64; CODE_SLOTS],
}

impl AtomicStats {
    fn new() -> Self {
        Self {
            sessions_opened: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sessions_rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            replays_blocked: AtomicU64::new(0),
            wire_errors: AtomicU64::new(0),
            by_code: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record_rejection(&self, reason_code: u16) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        let slot = (reason_code as usize).min(CODE_SLOTS - 1);
        self.by_code[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// The one accounting path for verdicts.  `wire_error` marks verdicts
    /// synthesised for envelopes that failed to decode; `spent` says whether
    /// the verdict consumed (evicted) a live session.  The two spend counters
    /// are bumped with release ordering, which pairs with the acquire loads
    /// in [`AtomicStats::snapshot`].
    fn record_verdict(&self, reason_code: u16, wire_error: bool, spent: bool) {
        if wire_error {
            self.wire_errors.fetch_add(1, Ordering::Relaxed);
        }
        match reason_code {
            code::ACCEPTED => {
                self.accepted.fetch_add(1, Ordering::Release);
            }
            // Expiry is its own lifecycle category (consistent with
            // `expire_stale`, which produces no verdict): it does not also
            // count as a rejection, so the conservation law reconciles.
            code::SESSION_EXPIRED => {
                self.expired.fetch_add(1, Ordering::Relaxed);
            }
            code::SESSION_DECIDED | code::NONCE_REPLAYED => {
                self.replays_blocked.fetch_add(1, Ordering::Relaxed);
                self.record_rejection(reason_code);
            }
            _ => {
                self.record_rejection(reason_code);
                if spent {
                    self.sessions_rejected.fetch_add(1, Ordering::Release);
                }
            }
        }
    }

    /// Reads every counter once.  The spends are read before the opens, and
    /// `open_session` counts a session before any thread can spend it, so
    /// `accepted + sessions_rejected <= sessions_opened` in every read, even
    /// one taken under load.  Every spend ran the full pipeline, so the
    /// cache books read no hits and one miss per spend.
    fn snapshot(&self) -> ServiceStats {
        let accepted = self.accepted.load(Ordering::Acquire);
        let sessions_rejected = self.sessions_rejected.load(Ordering::Acquire);
        let mut rejections_by_code = BTreeMap::new();
        for (slot, counter) in self.by_code.iter().enumerate() {
            let count = counter.load(Ordering::Relaxed);
            if count > 0 {
                rejections_by_code.insert(slot as u16, count);
            }
        }
        ServiceStats {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            accepted,
            rejected: self.rejected.load(Ordering::Relaxed),
            sessions_rejected,
            expired: self.expired.load(Ordering::Relaxed),
            replays_blocked: self.replays_blocked.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: accepted + sessions_rejected,
            rejections_by_code,
        }
    }

    /// Overwrites every counter from a [`ServiceStats`] snapshot.  Inverse of
    /// [`AtomicStats::snapshot`] (the cache books are derived, not stored);
    /// used when a service is restored from a durable snapshot, never on a
    /// service that is concurrently recording outcomes.
    fn store(&self, stats: &ServiceStats) {
        self.sessions_opened.store(stats.sessions_opened, Ordering::Relaxed);
        self.accepted.store(stats.accepted, Ordering::Relaxed);
        self.rejected.store(stats.rejected, Ordering::Relaxed);
        self.sessions_rejected.store(stats.sessions_rejected, Ordering::Relaxed);
        self.expired.store(stats.expired, Ordering::Relaxed);
        self.replays_blocked.store(stats.replays_blocked, Ordering::Relaxed);
        self.wire_errors.store(stats.wire_errors, Ordering::Relaxed);
        for (code, count) in &stats.rejections_by_code {
            self.by_code[(*code as usize).min(CODE_SLOTS - 1)].store(*count, Ordering::Relaxed);
        }
    }
}

/// Errors returned by service entry points that cannot answer with a verdict.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// No reference measurement is precomputed for this input.
    UnknownInput {
        /// The input that has no database entry.
        input: Vec<u32>,
    },
    /// The live-session limit was reached.
    AtCapacity {
        /// Live sessions at the time of the call.
        live: usize,
        /// The configured limit.
        max: usize,
    },
    /// The session id is not (or no longer) known.
    UnknownSession(SessionId),
    /// A wire codec failure while building an outgoing envelope.
    Wire(WireError),
    /// The request was refused because the serving worker pool is shutting
    /// down (see [`crate::pool::ParallelVerifier`]).
    ShuttingDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownInput { input } => {
                write!(f, "no reference measurement precomputed for input {input:?}")
            }
            ServiceError::AtCapacity { live, max } => {
                write!(f, "live-session limit reached ({live}/{max})")
            }
            ServiceError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
            ServiceError::ShuttingDown => write!(f, "verifier pool is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

/// One shard's worth of session state.  The `issued` watermark counts the
/// sessions allocated to this shard so far; it is updated under the same lock
/// as the map, which is what makes the per-shard replay check race-free: a
/// nonce counter is *spent* iff this shard issued it and no longer holds it.
#[derive(Debug, Default)]
struct Shard {
    sessions: BTreeMap<SessionId, VerifierSession>,
    /// Sessions this shard has issued (locally 0-indexed: the k-th session of
    /// shard `s` out of `N` carries the global counter `1 + s + k·N`).
    issued: u64,
}

/// Everything [`VerifierService::conclude`] needs to finish judging one
/// evidence envelope once its signature tag has been finalized.  Produced by
/// [`VerifierService::prepare`]; holding it does not hold any lock.
struct PendingJudgement<'a> {
    id: SessionId,
    /// The evidence, past the judge's program id and nonce checks.
    bound: Bound<'a>,
    /// The session's input.
    input: Vec<u32>,
}

/// The two ways [`VerifierService::prepare`] can leave one envelope.
// The size gap between the variants is real (the pending MAC carries two
// sponge states) but these values live only on the stack between `prepare`
// and `conclude`; boxing would buy the lint a heap allocation per verified
// report on the hot path.
#[allow(clippy::large_enum_variant)]
enum Prepared<'a> {
    /// A verdict was reached before any signature work (unknown session,
    /// expiry, replay, wrong program id, nonce mismatch); none spends a
    /// session.
    Done(VerdictMsg),
    /// The envelope passed the transport checks and the judge's first two:
    /// its payload MAC is ready to finalize, and the rest of the pipeline is
    /// queued behind the tag.
    /// Keeping the MAC outside [`PendingJudgement`] lets batch callers drain
    /// many tags through one multi-lane [`Hmac::finalize_many`] pass.
    Pending(Hmac, PendingJudgement<'a>),
}

/// A verifier front-end running many interleaved attestation sessions against
/// one shared measurement database and verification key.
///
/// The service is `Send + Sync`; all entry points take `&self`.  Session state
/// is partitioned into [`ServiceConfig::shards`] independently locked shards
/// (routing by [`SessionId`]); statistics and the cycle clock are atomics.
/// One invariant is load-bearing for deadlock freedom: **no shard lock is ever
/// held while another shard lock is acquired** — cross-shard replay checks
/// release the session's shard before consulting the nonce's owning shard.
///
/// # Example
///
/// ```
/// use lofat::service::{ServiceConfig, VerifierService};
/// use lofat::session::ProverSession;
/// use lofat::{EngineConfig, MeasurementDatabase, Prover, Verifier};
/// use lofat_crypto::DeviceKey;
/// use lofat_rv32::asm::assemble;
///
/// let program = assemble(
///     ".text\nmain:\n    li t0, 4\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
/// )?;
/// let key = DeviceKey::from_seed("fleet");
/// let mut prover = Prover::new(program.clone(), "demo", key.clone());
///
/// // Offline: build the reference database once.
/// let verifier = Verifier::new(program, "demo", key.verification_key())?;
/// let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![]])?;
///
/// // Online: the service fronts provers without a simulator in the loop.
/// let service =
///     VerifierService::new(db, key.verification_key(), ServiceConfig::default());
/// let id = service.open_session(vec![])?;
/// let challenge_bytes = service.challenge_envelope(id)?.encode()?;
/// let evidence_bytes = ProverSession::new(&mut prover).handle_bytes(&challenge_bytes)?;
/// let verdict_bytes = service.handle_bytes(&evidence_bytes)?;
/// # let _ = verdict_bytes;
/// assert_eq!(service.stats().accepted, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct VerifierService {
    db: MeasurementDatabase,
    key: HmacVerifier,
    config: ServiceConfig,
    shards: Vec<Mutex<Shard>>,
    /// Round-robin `open_session` assignments.  This only picks the *shard*;
    /// the session counter itself is allocated from the shard's `issued`
    /// watermark under the shard lock, so issuance and map insertion are one
    /// atomic step (sequential opens still receive dense ids `1, 2, 3, …`).
    next_open: AtomicU64,
    now_cycles: AtomicU64,
    /// Live sessions across all shards.  Reserved (incremented) *before* the
    /// shard insert so the [`ServiceConfig::max_live_sessions`] bound holds
    /// strictly even under concurrent `open_session` calls.
    live: AtomicUsize,
    stats: AtomicStats,
}

// The service is shared across worker threads by construction; this assertion
// turns an accidental `!Send`/`!Sync` field into a compile error here rather
// than a trait-bound error at every call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VerifierService>();
    assert_send_sync::<ServiceStats>();
    assert_send_sync::<ServiceError>();
};

impl VerifierService {
    /// Creates a service over a prebuilt measurement database and the fleet's
    /// verification key.  `config.shards == 0` is treated as one shard,
    /// `config.partition_count == 0` as one partition, and the partition
    /// index is reduced modulo the partition count — the stored
    /// [`VerifierService::config`] reflects the normalised values, so counter
    /// arithmetic never sees a degenerate configuration.
    pub fn new(db: MeasurementDatabase, key: VerificationKey, config: ServiceConfig) -> Self {
        let mut config = config;
        config.partition_count = config.partition_count.max(1);
        config.partition_index %= config.partition_count;
        Self {
            db,
            key: HmacVerifier::new(key),
            config,
            shards: (0..config.shards.max(1)).map(|_| Mutex::new(Shard::default())).collect(),
            next_open: AtomicU64::new(0),
            now_cycles: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            stats: AtomicStats::new(),
        }
    }

    /// The program this service attests.
    pub fn program_id(&self) -> &str {
        self.db.program_id()
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of session shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The service-local cycle clock.
    pub fn now_cycles(&self) -> u64 {
        self.now_cycles.load(Ordering::SeqCst)
    }

    /// Advances the service clock (deadlines are measured against it).
    pub fn advance_clock(&self, cycles: u64) {
        let _ = self.now_cycles.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |now| {
            Some(now.saturating_add(cycles))
        });
    }

    /// Number of sessions currently awaiting evidence, across all shards.
    /// Decided and expired sessions are evicted eagerly (their nonces stay
    /// permanently consumed), so this — and the
    /// [`ServiceConfig::max_live_sessions`] bound — tracks outstanding work
    /// only.
    pub fn live_sessions(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// A point-in-time snapshot of the service-level statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }

    /// Looks up a held session (a clone: the original stays behind its shard
    /// lock).
    pub fn session(&self, id: SessionId) -> Option<VerifierSession> {
        self.shard(id).sessions.get(&id).cloned()
    }

    /// The number of counter stripes the global session space is divided
    /// into: `shards × partition_count`.  Stripe `(n - 1) % stripes` of
    /// counter `n` encodes the owning partition (low digit, mod
    /// `partition_count`) and shard (high digit).
    fn stripes(&self) -> u64 {
        self.shards.len() as u64 * self.config.partition_count
    }

    /// The *local* shard index that owns `id`: counter `n` belongs to shard
    /// `((n - 1) % stripes) / partition_count` of the partition congruent to
    /// `(n - 1) % partition_count`, so each shard of each partition owns its
    /// own slice of the session-counter (and therefore nonce) space.  In the
    /// default unpartitioned configuration this is the familiar
    /// `(n - 1) % shards`.
    fn shard_index(&self, id: SessionId) -> usize {
        ((id.0.wrapping_sub(1) % self.stripes()) / self.config.partition_count) as usize
    }

    /// The shard that owns `id`, locked.
    fn shard(&self, id: SessionId) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(id)].lock().expect("shard lock poisoned")
    }

    /// Opens a session for `input`, returning its id.  The challenge nonce is
    /// unique across the service lifetime (single-use by construction).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownInput`] when no reference measurement
    /// exists for `input` and [`ServiceError::AtCapacity`] at the live-session
    /// limit.
    pub fn open_session(&self, input: Vec<u32>) -> Result<SessionId, ServiceError> {
        if !self.db.contains(&input) {
            return Err(ServiceError::UnknownInput { input });
        }
        self.reserve_live_slot()?;
        let program_id = self.db.program_id().to_string();
        let deadline = self.now_cycles().saturating_add(self.config.session_deadline_cycles);
        // Round-robin picks the shard; the counter itself is allocated from
        // the shard's `issued` watermark *under the shard lock*, making
        // issuance and map insertion one atomic step: `nonce_consumed` (which
        // reads `issued` and the map under the same lock) can never observe a
        // counter as issued without also seeing its still-live session.
        // Sequential opens keep receiving dense ids `1, 2, 3, …`; concurrent
        // opens receive unique ids in lock-acquisition order per shard.
        let shard_count = self.shards.len() as u64;
        let shard_index = (self.next_open.fetch_add(1, Ordering::SeqCst) % shard_count) as usize;
        // Counted before the session becomes visible, so no read of the
        // books sees it spent but not opened (see `AtomicStats::snapshot`).
        self.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let id = {
            let mut shard = self.shards[shard_index].lock().expect("shard lock poisoned");
            // The `issued`-th session of local shard `s` in partition `p` of
            // `P` carries the global counter `1 + p + s·P + issued·(S·P)` —
            // the shard owns the counter (and nonce) stripe congruent to
            // `p + s·P` modulo `S·P`.  Unpartitioned (`P = 1`, `p = 0`) this
            // is the familiar `1 + s + issued·S`.
            let counter = 1
                + self.config.partition_index
                + shard_index as u64 * self.config.partition_count
                + shard.issued * self.stripes();
            shard.issued += 1;
            let id = SessionId(counter);
            let challenge = Challenge {
                program_id,
                input,
                // Session `n` always carries nonce `n` — the pairing the
                // derived replay check in `nonce_consumed` relies on.
                nonce: Nonce::from_counter(counter),
            };
            shard.sessions.insert(id, VerifierSession::new(id, challenge, deadline));
            id
        };
        Ok(id)
    }

    /// Reserves one live-session slot, sweeping stale sessions when the limit
    /// is hit.  The compare-exchange loop keeps the bound strict under
    /// concurrent opens: two racing calls can never both take the last slot.
    fn reserve_live_slot(&self) -> Result<(), ServiceError> {
        let mut swept = false;
        loop {
            let live = self.live.load(Ordering::SeqCst);
            if live >= self.config.max_live_sessions {
                if swept {
                    return Err(ServiceError::AtCapacity {
                        live,
                        max: self.config.max_live_sessions,
                    });
                }
                // Capacity pressure triggers a sweep, so abandoned challenges
                // (provers that never answered) can never wedge the service
                // even if the embedder forgets to call `expire_stale` itself.
                self.expire_stale();
                swept = true;
                continue;
            }
            if self
                .live
                .compare_exchange(live, live + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// The challenge envelope for an open session.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownSession`] for unknown ids.
    pub fn challenge_envelope(&self, id: SessionId) -> Result<Envelope, ServiceError> {
        self.shard(id)
            .sessions
            .get(&id)
            .map(VerifierSession::challenge_envelope)
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// Removes expired sessions (all held sessions are awaiting evidence —
    /// decided ones are evicted at decision time), returning how many were
    /// swept; each counts as [`ServiceStats::expired`].  Shards are swept one
    /// at a time, so the service stays responsive while sweeping.
    pub fn expire_stale(&self) -> usize {
        let now = self.now_cycles();
        let mut expired = 0;
        for shard in &self.shards {
            let mut guard = shard.lock().expect("shard lock poisoned");
            let stale: Vec<SessionId> = guard
                .sessions
                .iter()
                .filter(|(_, s)| now > s.deadline_cycles())
                .map(|(id, _)| *id)
                .collect();
            for id in stale {
                // The challenge nonce can never be answered again.
                guard.sessions.remove(&id);
                expired += 1;
            }
        }
        self.live.fetch_sub(expired, Ordering::SeqCst);
        self.stats.expired.fetch_add(expired as u64, Ordering::Relaxed);
        expired
    }

    /// Judges one evidence envelope and returns the verdict.  Infallible by
    /// design: every failure mode maps to a rejecting [`VerdictMsg`] with a
    /// stable [`code`], and the statistics are updated either way.
    pub fn submit_evidence(&self, envelope: &Envelope) -> VerdictMsg {
        let (verdict, spent) = self.judge(envelope);
        self.stats.record_verdict(verdict.reason_code, false, spent);
        verdict
    }

    /// Fully sans-I/O surface: request bytes in, verdict-envelope bytes out.
    /// Malformed requests yield a rejecting verdict addressed to session 0
    /// rather than an error.
    ///
    /// # Errors
    ///
    /// Only fails if the *outgoing* verdict envelope cannot be encoded, which
    /// would be a bug, not an input property.
    pub fn handle_bytes(&self, bytes: &[u8]) -> Result<Vec<u8>, ServiceError> {
        match Envelope::decode(bytes) {
            Ok(envelope) => {
                let verdict = self.submit_evidence(&envelope);
                Envelope::new(envelope.session, Message::Verdict(verdict))
                    .encode()
                    .map_err(ServiceError::Wire)
            }
            Err(wire_error) => self.reject_unparseable(SessionId(0), &wire_error),
        }
    }

    /// Batch counterpart of [`VerifierService::handle_bytes`]: judges many
    /// requests together and returns one reply per request, in order.  Each
    /// reply is exactly the bytes `handle_bytes` would have produced for that
    /// request at the same point in the submission order — the batch adds no
    /// semantics — but the expensive Keccak finalizations of all signature
    /// MACs in the batch are drained through the multi-lane
    /// [`Hmac::finalize_many`] path (4 payload MACs per pass of the
    /// 4-way Keccak-f\[1600\] kernel), which is where the verifier's hash
    /// floor is actually paid.  [`crate::pool::ParallelVerifier`] workers
    /// feed their whole drain burst through here.
    ///
    /// # Errors
    ///
    /// As for `handle_bytes`: a per-request error only means the *outgoing*
    /// verdict envelope could not be encoded, which would be a bug, not an
    /// input property.
    pub fn handle_bytes_batch<B: AsRef<[u8]>>(
        &self,
        requests: &[B],
    ) -> Vec<Result<Vec<u8>, ServiceError>> {
        let decoded: Vec<Result<Envelope, WireError>> =
            requests.iter().map(|bytes| Envelope::decode(bytes.as_ref())).collect();

        /// Where each request stands after the prepare pass.
        enum Slot<'a> {
            Wire(&'a WireError),
            Ready(SessionId, VerdictMsg),
            /// Index into the pending-MAC vector, plus the work to finish.
            Pending(usize, SessionId, PendingJudgement<'a>),
        }

        let mut macs = Vec::new();
        let slots: Vec<Slot<'_>> = decoded
            .iter()
            .map(|item| match item {
                Err(wire_error) => Slot::Wire(wire_error),
                Ok(envelope) => match self.prepare(envelope) {
                    Prepared::Done(verdict) => Slot::Ready(envelope.session, verdict),
                    Prepared::Pending(mac, pending) => {
                        let index = macs.len();
                        macs.push(mac);
                        Slot::Pending(index, envelope.session, pending)
                    }
                },
            })
            .collect();

        // One multi-lane pass over every pending signature MAC in the batch.
        let mut tags: Vec<Option<Digest>> =
            Hmac::finalize_many(macs).into_iter().map(Some).collect();

        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Wire(wire_error) => self.reject_unparseable(SessionId(0), wire_error),
                Slot::Ready(session, verdict) => {
                    self.stats.record_verdict(verdict.reason_code, false, false);
                    Envelope::new(session, Message::Verdict(verdict))
                        .encode()
                        .map_err(ServiceError::Wire)
                }
                Slot::Pending(index, session, pending) => {
                    let tag = tags[index].take().expect("one tag per pending judgement");
                    let (verdict, spent) = self.conclude(pending, tag);
                    self.stats.record_verdict(verdict.reason_code, false, spent);
                    Envelope::new(session, Message::Verdict(verdict))
                        .encode()
                        .map_err(ServiceError::Wire)
                }
            })
            .collect()
    }

    /// Records a wire-level failure and returns the encoded rejecting verdict
    /// envelope, addressed to `session` (use [`SessionId`]`(0)` when the input
    /// never named one).
    ///
    /// This is the *one* accounting path for input that failed before it
    /// became a typed [`Envelope`]: [`VerifierService::handle_bytes`] routes
    /// its decode failures here, and socket transports (see the `lofat-net`
    /// crate) call it for framing-level rejections — an oversized length
    /// prefix, a frame that ended early — where a complete byte string never
    /// existed to feed through `handle_bytes`.  Both end up in the same
    /// `record_verdict` classification as typed rejections (counted under
    /// [`ServiceStats::wire_errors`], [`ServiceStats::rejected`] and the
    /// per-code map, never spending a session), which is what keeps the
    /// conservation law `opened == accepted + sessions_rejected + expired +
    /// live` exact over socket traffic: malformed bytes arriving mid-session
    /// can neither consume the session they interrupted nor escape the books.
    ///
    /// # Errors
    ///
    /// Only fails if the outgoing verdict envelope cannot be encoded, which
    /// would be a bug, not an input property.
    pub fn reject_unparseable(
        &self,
        session: SessionId,
        error: &WireError,
    ) -> Result<Vec<u8>, ServiceError> {
        self.stats.record_verdict(error.code(), true, false);
        Envelope::new(
            session,
            Message::Verdict(VerdictMsg::rejected(error.code(), error.to_string())),
        )
        .encode()
        .map_err(ServiceError::Wire)
    }

    /// The verification pipeline for one envelope.  Does not touch the
    /// statistics; [`VerifierService::submit_evidence`] does.  Returns the
    /// verdict plus whether it consumed (evicted) a live session.
    fn judge(&self, envelope: &Envelope) -> (VerdictMsg, bool) {
        match self.prepare(envelope) {
            Prepared::Done(verdict) => (verdict, false),
            Prepared::Pending(mac, pending) => {
                let tag = mac.finalize();
                self.conclude(pending, tag)
            }
        }
    }

    /// Stage 1 of the pipeline: transport checks, the judge's program id and
    /// nonce checks (`judge::bind`) and the absorption of the signed payload
    /// into the signature MAC — everything up to (but excluding) its Keccak
    /// finalization.  Batch callers collect the pending MACs from many
    /// envelopes and finalize them together through the multi-lane
    /// [`Hmac::finalize_many`]; [`VerifierService::judge`] finalizes the
    /// single MAC inline.
    ///
    /// Lock discipline: the session's shard lock is taken briefly for the
    /// transport checks and the judge's first two checks, and always released
    /// *before* [`VerifierService::nonce_consumed`] locks the nonce's owning
    /// shard, so no two shard locks are ever held at once, and all crypto runs
    /// outside every lock.
    fn prepare<'a>(&self, envelope: &'a Envelope) -> Prepared<'a> {
        let id = envelope.session;

        // Critical section 1: transport checks and the judge's first two.
        // Everything here is cheap (map lookup, field compares); the
        // session's input is copied out so the reference lookup below needs
        // no lock.
        let (input, bound) = {
            let mut shard = self.shard(id);
            let Some(session) = shard.sessions.get(&id) else {
                drop(shard);
                // Decided sessions are evicted eagerly, so a replayed
                // envelope usually lands here: report it as the replay it is.
                if let Message::Evidence(evidence) = &envelope.message {
                    if self.nonce_consumed(&evidence.report.nonce) {
                        return Prepared::Done(replayed_nonce_verdict(&evidence.report.nonce));
                    }
                }
                return Prepared::Done(VerdictMsg::rejected(
                    code::UNKNOWN_SESSION,
                    format!("unknown {id}"),
                ));
            };
            let evidence = match session.accept_evidence(envelope, self.now_cycles()) {
                Ok(evidence) => evidence,
                Err(e) => {
                    let verdict = VerdictMsg::rejected(e.code(), e.to_string());
                    if matches!(e, SessionError::Expired { .. }) {
                        shard.sessions.remove(&id);
                        self.live.fetch_sub(1, Ordering::SeqCst);
                    }
                    return Prepared::Done(verdict);
                }
            };

            match judge::bind(&evidence.report, session.challenge()) {
                Ok(bound) => (session.challenge().input.clone(), bound),
                Err(refused) => {
                    // A refusal leaves this session untouched.  A nonce that
                    // is not this session's may be one a decided or expired
                    // session spent — a replay, wherever it is sent — or
                    // evidence routed to the wrong session.  Deciding which
                    // may require the nonce's *owning* shard, so release
                    // this one first.
                    drop(shard);
                    let nonce = &evidence.report.nonce;
                    if matches!(refused, Judgement::Refused(RejectionReason::NonceMismatch))
                        && self.nonce_consumed(nonce)
                    {
                        return Prepared::Done(replayed_nonce_verdict(nonce));
                    }
                    return Prepared::Done(refused.verdict_msg(|&result| result));
                }
            }
        };

        // Lock-free section: the signature MAC over the payload, absorbed
        // from the received fields without copying them.
        let report = bound.report();
        let mut mac = self.key.mac_base().clone();
        report.absorb_signed_prefix(|piece| mac.update(piece));
        mac.update(report.nonce.as_bytes());
        Prepared::Pending(mac, PendingJudgement { id, bound, input })
    }

    /// Stage 2 of the pipeline: the rest of the judgement
    /// (`Bound::conclude`: the signature, then the loop-path and reference
    /// checks against the database) and, when it spends the session,
    /// spending it.  `tag` is the finalized MAC of the pending envelope's
    /// payload.  Returns the verdict plus whether it spent the session.
    fn conclude(&self, pending: PendingJudgement<'_>, tag: Digest) -> (VerdictMsg, bool) {
        let PendingJudgement { id, bound, input } = pending;
        let report = bound.report();
        let judgement = match bound.conclude(&tag, || {
            self.db.check(&input, report).map(|reference| reference.expected_result)
        }) {
            Ok(judgement) => judgement,
            // `open_session` admits no session whose input lacks a
            // reference, so this never happens; like any verifier failure it
            // decides nothing and leaves the session open.
            Err(e) => return (VerdictMsg::rejected(code::UNKNOWN_INPUT, e.to_string()), false),
        };
        let verdict = judgement.verdict_msg(|&result| result);
        if !judgement.spends_session() {
            return (verdict, false);
        }

        // Critical section 2: spend the session.  Evicting (rather than
        // keeping a Decided tombstone) keeps the session map bounded by
        // *outstanding* work, so decided sessions never count against
        // `max_live_sessions`; `nonce_consumed` still blocks replays.  The
        // eviction is the exactly-once linearisation point: when several
        // threads verified the same evidence concurrently, only the one that
        // removes the session delivers its verdict — the rest observe the
        // now-spent nonce, exactly as if they had submitted after it.
        // (Session ids are never reused, so the session found here is
        // necessarily the one checked above.)
        let mut shard = self.shard(id);
        if shard.sessions.remove(&id).is_none() {
            drop(shard);
            return (replayed_nonce_verdict(&report.nonce), false);
        }
        drop(shard);
        self.live.fetch_sub(1, Ordering::SeqCst);
        (verdict, true)
    }

    /// Replay check with O(1) memory and at most one shard lock: session `n`
    /// carries `Nonce::from_counter(n)` and lives in shard `(n - 1) % shards`,
    /// so a nonce is consumed iff its owning shard issued its slot (checked
    /// against the shard's `issued` watermark, under the same lock that
    /// allocated it, so a concurrent `open_session` can never be
    /// half-observed) and the session is no longer live.
    ///
    /// Callers must not hold any shard lock (see the lock discipline note on
    /// [`VerifierService::prepare`]).
    fn nonce_consumed(&self, nonce: &Nonce) -> bool {
        let counter = u64::from_le_bytes(nonce.as_bytes()[..8].try_into().expect("8 bytes"));
        if counter < 1 || Nonce::from_counter(counter) != *nonce {
            return false;
        }
        // A counter outside this partition's congruence class was issued (if
        // ever) by a sibling process; this process cannot attest to its spend
        // and answers "not consumed" — the evidence still bounces on the
        // nonce-mismatch or unknown-session path, it just is not *named* a
        // replay.  Unpartitioned services own every class, so the gate is
        // vacuous there.
        if (counter - 1) % self.config.partition_count != self.config.partition_index {
            return false;
        }
        // `shard()` routes to the owning local shard; within that shard the
        // counter occupies slot `(counter - 1) / stripes`, and slots are
        // issued contiguously under the shard lock.
        let shard = self.shard(SessionId(counter));
        let slot = (counter - 1) / self.stripes();
        slot < shard.issued && !shard.sessions.contains_key(&SessionId(counter))
    }

    // -----------------------------------------------------------------------
    // Durability: snapshot / restore.
    // -----------------------------------------------------------------------

    /// Each shard's issuance watermark, in shard order: how many session
    /// counters the shard has handed out, counting from the watermark a
    /// restore started it at.  A counter below its shard's watermark that no
    /// live session holds is spent.
    pub fn watermarks(&self) -> Vec<u64> {
        self.shards.iter().map(|shard| shard.lock().expect("shard lock poisoned").issued).collect()
    }

    /// A durable snapshot of the service, encoded (see [`SnapshotMsg`]):
    /// configuration, clock, shard cursor, per-shard issuance watermarks,
    /// the books and the measurement database, borrowed rather than copied.
    /// It stores no session: the sessions live at the write count as expired
    /// in its books, which come from one read, so
    /// `sessions_opened == accepted + sessions_rejected + expired` holds in
    /// every document, even one written under load.  With a zero `reserve`,
    /// `snapshot → restore → snapshot` is a byte-identical fixed point.
    ///
    /// Each watermark is rounded **up** by `reserve` future sessions.  A
    /// service that snapshots periodically and crashes can therefore never
    /// reissue a nonce it handed out after the last write: as long as fewer
    /// than `reserve` sessions were opened on any shard since, every counter
    /// issued by the dead process lies below the restored watermark and
    /// registers as consumed.  The skipped counters are sacrificed, not
    /// recycled — evidence for them answers [`code::NONCE_REPLAYED`] — and
    /// the conservation law is unaffected (it never references the
    /// watermark).  Shards are locked briefly one at a time.
    ///
    /// # Errors
    ///
    /// Returns the codec's [`SnapshotError`] if the snapshot cannot be
    /// encoded.
    pub fn snapshot_bytes(&self, reserve: u64) -> Result<Vec<u8>, SnapshotError> {
        let watermarks: Vec<u64> =
            self.watermarks().into_iter().map(|issued| issued.saturating_add(reserve)).collect();
        let mut stats = self.stats.snapshot();
        stats.expired = stats
            .sessions_opened
            .saturating_sub(stats.accepted)
            .saturating_sub(stats.sessions_rejected);
        SnapshotRef {
            program_id: self.db.program_id(),
            config: &self.config,
            now_cycles: self.now_cycles(),
            next_open: self.next_open.load(Ordering::SeqCst),
            stats: &stats,
            watermarks: &watermarks,
            db: &self.db,
        }
        .encode()
    }

    /// Reconstructs a service from a snapshot and the fleet's verification
    /// key (key material is never part of a snapshot document).  The clock,
    /// shard cursor and books resume from the snapshot, and every watermark
    /// is restored *exactly* as written — rounding (if any) was applied by
    /// the writer, so restore can never lower one.  No session resumes: a
    /// session open at the write was interrupted, its counter lies below its
    /// shard's watermark and reads as spent, and its evidence draws
    /// [`code::NONCE_REPLAYED`].  Its prover asks for a new session.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Invalid`] when the document is internally
    /// inconsistent: its database attests another program, its partition
    /// index is out of range, or its watermark list does not match the shard
    /// count.
    pub fn restore(msg: SnapshotMsg, key: VerificationKey) -> Result<Self, SnapshotError> {
        let invalid = |reason: String| Err(SnapshotError::Invalid { reason });
        if msg.db.program_id() != msg.program_id {
            return invalid(format!(
                "snapshot is for `{}` but embeds a database for `{}`",
                msg.program_id,
                msg.db.program_id()
            ));
        }
        let partitions = msg.config.partition_count.max(1);
        if msg.config.partition_index >= partitions {
            return invalid(format!(
                "partition index {} out of range for {} partition(s)",
                msg.config.partition_index, partitions
            ));
        }
        if msg.watermarks.len() != msg.config.shards.max(1) {
            return invalid(format!(
                "snapshot holds {} shard watermark(s) but the configuration says {} shard(s)",
                msg.watermarks.len(),
                msg.config.shards.max(1)
            ));
        }

        let service = Self::new(msg.db, key, msg.config);
        for (shard, issued) in service.shards.iter().zip(msg.watermarks) {
            shard.lock().expect("shard lock poisoned").issued = issued;
        }
        service.next_open.store(msg.next_open, Ordering::SeqCst);
        service.now_cycles.store(msg.now_cycles, Ordering::SeqCst);
        service.stats.store(&msg.stats);
        Ok(service)
    }

    /// [`VerifierService::restore`] from the encoded wire form.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from [`SnapshotMsg::decode`] or the restore
    /// validation.  Never panics on malformed input.
    pub fn restore_bytes(bytes: &[u8], key: VerificationKey) -> Result<Self, SnapshotError> {
        Self::restore(SnapshotMsg::decode(bytes)?, key)
    }

    /// Writes a snapshot (with `reserve` — see
    /// [`VerifierService::snapshot_bytes`]) to `path` atomically and
    /// durably: the document is written to the sibling `<path>.tmp`, that
    /// file is synced to disk, it is renamed over `path`, and then `path`'s
    /// directory is synced.  A reader never observes a half-written
    /// document; a crash or power loss before the rename leaves the previous
    /// snapshot in place, and once this returns `Ok` the new one survives a
    /// power loss.
    ///
    /// # Errors
    ///
    /// Codec failures and any I/O error from writing, syncing or renaming.
    pub fn write_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        reserve: u64,
    ) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let bytes = self.snapshot_bytes(reserve)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        // Without the first sync a power loss after the rename can leave
        // `path` naming an empty or partial file; without the second, the
        // rename itself may not survive one.
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Restores a service from a snapshot file written by
    /// [`VerifierService::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Any I/O error reading `path`, plus everything
    /// [`VerifierService::restore_bytes`] can return.
    pub fn restore_from_file(
        path: impl AsRef<std::path::Path>,
        key: VerificationKey,
    ) -> Result<Self, SnapshotError> {
        Self::restore_bytes(&std::fs::read(path)?, key)
    }
}

/// The verdict for evidence echoing a nonce that was already consumed.
fn replayed_nonce_verdict(nonce: &Nonce) -> VerdictMsg {
    VerdictMsg::rejected(
        code::NONCE_REPLAYED,
        format!("nonce {nonce} is spent: its session already reached a verdict or expired"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::prover::Prover;
    use crate::session::ProverSession;
    use crate::verifier::Verifier;
    use lofat_crypto::DeviceKey;
    use lofat_rv32::asm::assemble;
    use std::sync::Arc;

    const PROGRAM: &str = r#"
        .data
        input:
            .space 8
        .text
        main:
            la   t0, input
            lw   t1, 0(t0)
            li   a0, 0
            beqz t1, done
        loop:
            addi a0, a0, 3
            addi t1, t1, -1
            bnez t1, loop
        done:
            ecall
    "#;

    fn setup_with(
        inputs: impl IntoIterator<Item = Vec<u32>>,
        config: ServiceConfig,
    ) -> (VerifierService, Prover) {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("svc-device");
        let prover = Prover::new(program.clone(), "triple", key.clone());
        let verifier = Verifier::new(program, "triple", key.verification_key()).unwrap();
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs).unwrap();
        let service = VerifierService::new(db, key.verification_key(), config);
        (service, prover)
    }

    fn setup(inputs: impl IntoIterator<Item = Vec<u32>>) -> (VerifierService, Prover) {
        setup_with(inputs, ServiceConfig::default())
    }

    fn evidence_for(service: &VerifierService, prover: &mut Prover, id: SessionId) -> Envelope {
        let challenge = service.challenge_envelope(id).unwrap();
        let (evidence, _run) = ProverSession::new(prover).respond(&challenge).unwrap();
        evidence
    }

    #[test]
    fn honest_sessions_are_accepted() {
        let (service, mut prover) = setup(vec![vec![2], vec![3]]);
        let a = service.open_session(vec![2]).unwrap();
        let b = service.open_session(vec![3]).unwrap();
        let ev_a = evidence_for(&service, &mut prover, a);
        let ev_b = evidence_for(&service, &mut prover, b);
        // Interleaved: answer b first.
        let verdicts = [service.submit_evidence(&ev_b), service.submit_evidence(&ev_a)];
        assert!(verdicts.iter().all(|v| v.accepted), "{verdicts:?}");
        assert_eq!(verdicts[0].expected_result, Some(9));
        assert_eq!(verdicts[1].expected_result, Some(6));
        assert_eq!(service.stats().accepted, 2);
        assert!(service.stats().is_conserved(service.live_sessions()));
    }

    #[test]
    fn unknown_inputs_cannot_open_sessions() {
        let (service, _) = setup(vec![vec![1]]);
        let err = service.open_session(vec![9]).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownInput { .. }));
    }

    #[test]
    fn capacity_is_enforced() {
        let config = ServiceConfig { max_live_sessions: 2, ..ServiceConfig::default() };
        let (service, _) = setup_with(vec![vec![1]], config);
        service.open_session(vec![1]).unwrap();
        service.open_session(vec![1]).unwrap();
        let err = service.open_session(vec![1]).unwrap_err();
        assert!(matches!(err, ServiceError::AtCapacity { live: 2, max: 2 }));
    }

    #[test]
    fn capacity_pressure_sweeps_expired_sessions() {
        let config = ServiceConfig {
            max_live_sessions: 2,
            session_deadline_cycles: 10,
            ..ServiceConfig::default()
        };
        let (service, _) = setup_with(vec![vec![1]], config);
        service.open_session(vec![1]).unwrap();
        service.open_session(vec![1]).unwrap();
        service.advance_clock(11);
        // At capacity, but both sessions are stale: open_session sweeps them
        // instead of wedging on AtCapacity.
        assert!(service.open_session(vec![1]).is_ok());
        assert_eq!(service.stats().expired, 2);
        assert_eq!(service.live_sessions(), 1);
        assert!(service.stats().is_conserved(service.live_sessions()));
    }

    #[test]
    fn malformed_bytes_yield_a_verdict_not_a_panic() {
        let (service, _) = setup(vec![vec![1]]);
        let reply = service.handle_bytes(b"garbage").unwrap();
        let envelope = Envelope::decode(&reply).unwrap();
        let Message::Verdict(v) = envelope.message else { panic!("expected verdict") };
        assert!(!v.accepted);
        assert_eq!(v.reason_code, code::MALFORMED);
        assert_eq!(service.stats().wire_errors, 1);
        // One accounting path: the wire error is also a counted rejection.
        assert_eq!(service.stats().rejected, 1);
        assert_eq!(service.stats().rejections_by_code.get(&code::MALFORMED), Some(&1));
    }

    #[test]
    fn transport_rejections_share_the_accounting_path() {
        let (service, _) = setup(vec![vec![1]]);
        // A transport-level failure (no complete byte string ever existed)
        // reported through `reject_unparseable` must count exactly like the
        // same failure surfacing through `handle_bytes`.
        let live = service.open_session(vec![1]).unwrap();
        let reply =
            service.reject_unparseable(live, &WireError::Oversized { len: usize::MAX }).unwrap();
        let envelope = Envelope::decode(&reply).unwrap();
        assert_eq!(envelope.session, live, "the verdict is addressed to the hinted session");
        let Message::Verdict(v) = envelope.message else { panic!("expected verdict") };
        assert!(!v.accepted);
        assert_eq!(v.reason_code, code::MALFORMED);
        let _ = service.handle_bytes(b"also garbage").unwrap();
        let stats = service.stats();
        assert_eq!(stats.wire_errors, 2);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.rejections_by_code.get(&code::MALFORMED), Some(&2));
        // Neither path consumed the live session the bytes interrupted.
        assert_eq!(service.live_sessions(), 1);
        assert!(stats.is_conserved(1));
    }

    #[test]
    fn expired_sessions_are_swept() {
        let config = ServiceConfig { session_deadline_cycles: 10, ..ServiceConfig::default() };
        let (service, _) = setup_with(vec![vec![1]], config);
        let _id = service.open_session(vec![1]).unwrap();
        assert_eq!(service.expire_stale(), 0);
        service.advance_clock(11);
        assert_eq!(service.expire_stale(), 1);
        assert_eq!(service.live_sessions(), 0);
        assert_eq!(service.stats().expired, 1);
        assert!(service.stats().is_conserved(0));
    }

    #[test]
    fn sharding_routes_sessions_and_preserves_verdicts() {
        let (sharded, mut prover) =
            setup_with((0..6u32).map(|n| vec![n]), ServiceConfig::sharded(4));
        assert_eq!(sharded.shard_count(), 4);
        let ids: Vec<SessionId> =
            (0..6u32).map(|n| sharded.open_session(vec![n]).unwrap()).collect();
        // Ids are allocated in open order regardless of the shard count.
        assert_eq!(ids, (1..=6).map(SessionId).collect::<Vec<_>>());
        let evidence: Vec<Envelope> =
            ids.iter().map(|id| evidence_for(&sharded, &mut prover, *id)).collect();
        for (n, ev) in evidence.iter().enumerate().rev() {
            let verdict = sharded.submit_evidence(ev);
            assert!(verdict.accepted, "session {n}: {verdict:?}");
            assert_eq!(verdict.expected_result, Some(3 * n as u32));
        }
        // Cross-shard replay: evidence for session 1 (shard 0) resubmitted to
        // session 7 (shard 2 after reopening) is recognised as a spent nonce.
        let fresh = sharded.open_session(vec![1]).unwrap();
        let mut cross = evidence[0].clone();
        cross.session = fresh;
        let verdict = sharded.submit_evidence(&cross);
        assert_eq!(verdict.reason_code, code::NONCE_REPLAYED);
        assert!(sharded.stats().is_conserved(sharded.live_sessions()));
    }

    #[test]
    fn concurrent_submissions_accept_each_nonce_once() {
        let (service, mut prover) = setup_with([vec![2]], ServiceConfig::sharded(1));
        let id = service.open_session(vec![2]).unwrap();
        let evidence = evidence_for(&service, &mut prover, id);
        let service = Arc::new(service);
        let threads = 8u32;
        let accepted = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let evidence = evidence.clone();
                    scope.spawn(move || u32::from(service.submit_evidence(&evidence).accepted))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
        });
        assert_eq!(accepted, 1, "exactly one submission may win the nonce");
        let stats = service.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.replays_blocked, u64::from(threads) - 1);
        assert!(stats.is_conserved(service.live_sessions()));
    }

    #[test]
    fn a_repeated_measurement_never_skips_nonce_enforcement() {
        let (service, mut prover) = setup(vec![vec![2]]);
        let first = service.open_session(vec![2]).unwrap();
        let ev = evidence_for(&service, &mut prover, first);
        assert!(service.submit_evidence(&ev).accepted);

        // Replaying the spent evidence bounces.
        let replay = service.submit_evidence(&ev);
        assert_eq!(replay.reason_code, code::NONCE_REPLAYED);

        // Cross-session replay against a live session for the same input:
        // the spent nonce does not carry over into the fresh session.
        let fresh = service.open_session(vec![2]).unwrap();
        let mut cross = ev.clone();
        cross.session = fresh;
        assert_eq!(service.submit_evidence(&cross).reason_code, code::NONCE_REPLAYED);

        // A fresh honest run through the same measurement spends its
        // session exactly once.
        let honest = evidence_for(&service, &mut prover, fresh);
        assert!(service.submit_evidence(&honest).accepted);
        assert_eq!(service.submit_evidence(&honest).reason_code, code::NONCE_REPLAYED);
        let stats = service.stats();
        assert_eq!(stats.replays_blocked, 3);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 2));
        assert!(stats.is_conserved(0));
    }

    #[test]
    fn handle_bytes_batch_matches_sequential_handle_bytes() {
        // The same traffic — honest, duplicate-in-batch, garbage, cross-
        // session replay — through one batch call vs per-request calls on a
        // twin service: reply bytes must be identical position by position.
        let build = || setup(vec![vec![2], vec![3]]);
        let (batch_svc, mut prover) = build();
        let (seq_svc, _) = build();
        let a = batch_svc.open_session(vec![2]).unwrap();
        let b = batch_svc.open_session(vec![3]).unwrap();
        assert_eq!(seq_svc.open_session(vec![2]).unwrap(), a);
        assert_eq!(seq_svc.open_session(vec![3]).unwrap(), b);
        let ev_a = evidence_for(&batch_svc, &mut prover, a).encode().unwrap();
        let ev_b = evidence_for(&batch_svc, &mut prover, b).encode().unwrap();
        let requests: Vec<&[u8]> = vec![&ev_a[..], b"garbage", &ev_b, &ev_a, &ev_b];
        let batch_replies: Vec<Vec<u8>> = batch_svc
            .handle_bytes_batch(&requests)
            .into_iter()
            .map(|reply| reply.expect("encodes"))
            .collect();
        let seq_replies: Vec<Vec<u8>> =
            requests.iter().map(|bytes| seq_svc.handle_bytes(bytes).expect("encodes")).collect();
        assert_eq!(batch_replies, seq_replies);
        assert_eq!(batch_svc.stats(), seq_svc.stats());
        assert!(batch_svc.stats().is_conserved(0));
        assert!(seq_svc.stats().is_conserved(0));
    }

    #[test]
    fn partitions_tile_the_session_space_like_one_sharded_service() {
        // Three 1-shard partitions must collectively issue the dense counter
        // sequence a single 3-shard service issues, with no overlap.
        let inputs: Vec<Vec<u32>> = (0..3u32).map(|n| vec![n]).collect();
        let partitions: Vec<VerifierService> = (0..3)
            .map(|p| setup_with(inputs.clone(), ServiceConfig::default().partitioned(p, 3)).0)
            .collect();
        let mut ids = Vec::new();
        for round in 0..4u64 {
            for (p, service) in partitions.iter().enumerate() {
                let id = service.open_session(vec![(round % 3) as u32]).unwrap();
                assert_eq!((id.0 - 1) % 3, p as u64, "partition {p} left its stripe: {id}");
                ids.push(id.0);
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (1..=12).collect::<Vec<u64>>(), "the union is dense and disjoint");

        // A spent nonce from a sibling partition is outside this partition's
        // attestable space: the gate answers "not consumed", never panics.
        let (partitioned, mut prover) =
            setup_with(vec![vec![2]], ServiceConfig::default().partitioned(1, 3));
        let id = partitioned.open_session(vec![2]).unwrap();
        assert_eq!(id.0, 2);
        let ev = evidence_for(&partitioned, &mut prover, id);
        assert!(partitioned.submit_evidence(&ev).accepted);
        assert_eq!(partitioned.submit_evidence(&ev).reason_code, code::NONCE_REPLAYED);
        assert!(!partitioned.nonce_consumed(&Nonce::from_counter(1)));
        assert!(!partitioned.nonce_consumed(&Nonce::from_counter(3)));
    }

    fn key() -> VerificationKey {
        DeviceKey::from_seed("svc-device").verification_key()
    }

    #[test]
    fn snapshot_restore_roundtrip_is_a_byte_identical_fixed_point() {
        let (service, mut prover) = setup(vec![vec![2], vec![3]]);
        let spent = service.open_session(vec![2]).unwrap();
        let ev = evidence_for(&service, &mut prover, spent);
        assert!(service.submit_evidence(&ev).accepted);
        let held = service.open_session(vec![3]).unwrap();
        let pending = evidence_for(&service, &mut prover, held);
        service.advance_clock(17);

        let bytes = service.snapshot_bytes(0).unwrap();
        let restored = VerifierService::restore_bytes(&bytes, key()).unwrap();
        assert_eq!(restored.snapshot_bytes(0).unwrap(), bytes, "restore is a fixed point");
        assert_eq!(restored.live_sessions(), 0);
        assert_eq!(restored.now_cycles(), 17);
        // The held session was interrupted: the restored books count it as
        // expired.
        let mut interrupted = service.stats();
        interrupted.expired += 1;
        assert_eq!(restored.stats(), interrupted);

        // The restored service refuses the spent nonce and the held one.
        assert_eq!(restored.submit_evidence(&ev).reason_code, code::NONCE_REPLAYED);
        assert_eq!(restored.submit_evidence(&pending).reason_code, code::NONCE_REPLAYED);
        assert!(restored.stats().is_conserved(restored.live_sessions()));
    }

    #[test]
    fn a_session_spent_after_the_write_is_not_accepted_again_after_restore() {
        let (service, mut prover) = setup(vec![vec![3]]);
        let id = service.open_session(vec![3]).unwrap();
        let bytes = service.snapshot_bytes(65_536).unwrap();
        let evidence = evidence_for(&service, &mut prover, id);
        assert!(service.submit_evidence(&evidence).accepted);

        // The crash: the verdict left before the next write.  The session
        // was live in the document, but restore does not revive it.
        let restored = VerifierService::restore_bytes(&bytes, key()).unwrap();
        assert_eq!(restored.submit_evidence(&evidence).reason_code, code::NONCE_REPLAYED);
        assert_eq!(restored.live_sessions(), 0);
        assert!(restored.stats().is_conserved(0));
    }

    #[test]
    fn snapshot_bytes_encode_the_snapshot_they_describe() {
        let config = ServiceConfig { shards: 3, ..ServiceConfig::default() };
        let (service, mut prover) = setup_with(vec![vec![2], vec![3], vec![4]], config);
        let spent = service.open_session(vec![2]).unwrap();
        let ev = evidence_for(&service, &mut prover, spent);
        assert!(service.submit_evidence(&ev).accepted);
        for input in [3, 4, 3, 2] {
            service.open_session(vec![input]).unwrap();
        }
        service.advance_clock(17);
        assert_eq!(service.live_sessions(), 4);
        let mut books = service.stats();
        books.expired += 4;
        for reserve in [0, 8] {
            let bytes = service.snapshot_bytes(reserve).unwrap();
            let snapshot = SnapshotMsg::decode(&bytes).unwrap();
            // The borrowing encoder writes the body the derived codec does.
            let body = serde::to_bytes(&snapshot).unwrap();
            assert_eq!(bytes[crate::wire::SNAPSHOT_HEADER_BYTES..], body[..], "reserve {reserve}");
            // Five sessions dealt round-robin over three shards, no session
            // stored, and the four live ones counted as expired.
            assert_eq!(snapshot.watermarks, [2, 2, 1].map(|issued| issued + reserve));
            assert_eq!((snapshot.now_cycles, snapshot.next_open), (17, 5));
            assert_eq!(snapshot.stats, books, "reserve {reserve}");
        }
    }

    #[test]
    fn reserved_watermarks_survive_a_crash_without_reissuing_nonces() {
        let (service, mut prover) = setup(vec![vec![2]]);
        let snapshot = service.snapshot_bytes(8).unwrap();

        // "Crash": sessions opened after the snapshot are lost...
        let lost = service.open_session(vec![2]).unwrap();
        let lost_evidence = evidence_for(&service, &mut prover, lost);

        // ...and the restored process never reissues their counters: the next
        // open lands beyond the reserve, and the lost nonce reads as spent.
        let restored = VerifierService::restore_bytes(&snapshot, key()).unwrap();
        assert_eq!(restored.watermarks(), [8]);
        let fresh = restored.open_session(vec![2]).unwrap();
        assert_eq!(fresh.0, 9, "the first post-restore counter clears the 8-session reserve");
        assert_eq!(restored.submit_evidence(&lost_evidence).reason_code, code::NONCE_REPLAYED);
        assert!(restored.stats().is_conserved(restored.live_sessions()));
    }

    #[test]
    fn corrupted_snapshots_are_refused_with_typed_errors() {
        use crate::wire::{SNAPSHOT_HEADER_BYTES, SNAPSHOT_VERSION};
        let (service, _) = setup(vec![vec![2]]);
        service.open_session(vec![2]).unwrap();
        let bytes = service.snapshot_bytes(0).unwrap();

        for cut in [0, 3, 5, 9, SNAPSHOT_HEADER_BYTES - 1, bytes.len() - 1] {
            assert!(
                matches!(
                    VerifierService::restore_bytes(&bytes[..cut], key()),
                    Err(SnapshotError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            VerifierService::restore_bytes(&bad_magic, key()),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[4..6].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            VerifierService::restore_bytes(&bad_version, key()),
            Err(SnapshotError::UnsupportedVersion { found }) if found == SNAPSHOT_VERSION + 1
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            VerifierService::restore_bytes(&flipped, key()),
            Err(SnapshotError::DigestMismatch)
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            VerifierService::restore_bytes(&trailing, key()),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));

        // A decodable document with an inconsistent body is refused too: one
        // watermark more than the configuration has shards.
        let mut msg = SnapshotMsg::decode(&bytes).unwrap();
        msg.watermarks.push(0);
        assert!(matches!(VerifierService::restore(msg, key()), Err(SnapshotError::Invalid { .. })));
    }
}
