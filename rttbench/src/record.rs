//! What one measured pass leaves behind for the metrics and the checks.

use crate::trace::Tracer;
use lofat_crypto::nonce::NONCE_BYTES as NONCE;
use lofat_crypto::{Nonce, Sha3_256};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which part of a run a session belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `device`: the closed loop.
    Closed,
    /// Fleet workloads: the open-loop phase at the fixed offered rate.
    Open,
    /// Fleet workloads: the saturation phase.
    Saturation,
}

/// How a session ended.  A wrong verdict is not a status: it fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Every verdict the session drew was the expected one.
    Expected,
    /// The verifier refused the session with this reason code.
    Refused(u16),
    /// No reply arrived before the drain deadline.
    TimedOut,
    /// The connection failed.
    Transport,
}

/// One attempted session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Generator-side key; the session's spans carry it.
    pub key: u64,
    /// Phase the session ran in.
    pub phase: Phase,
    /// Index into the plan's inputs.
    pub input: usize,
    /// How it ended.
    pub status: Status,
    /// Start of its latency interval: the connect (`device`) or due time.
    pub start: Instant,
    /// When its last verdict arrived (or it was given up).
    pub end: Instant,
    /// Evidence frames it sent, and their total size in bytes.
    pub evidence_frames: u32,
    /// See [`SessionRecord::evidence_frames`].
    pub evidence_bytes: u64,
    /// Cycles of the attested run, when the prover ran live (traced
    /// `device` sessions); otherwise the pre-measured run stands for it.
    pub attested_cycles: Option<u64>,
}

impl SessionRecord {
    /// Round-trip latency.
    pub fn latency(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Which pre-measured template an evidence frame was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The honest run of this input.
    Honest(usize),
    /// The honest run of this input with a corrupted authenticator.
    Forged(usize),
    /// This attacked run.
    Attack(usize),
}

/// Bytes of a frame's end kept to check its rebuild: the signature's tail,
/// which commits to everything else the frame says.
pub const TAIL: usize = 32;

/// One frame the service judged over the wire and the verdict it answered.
/// Frames are kept as the recipe that rebuilds them, plus their length and
/// tail to check the rebuild, and verdicts as their digest: the recorder's
/// memory grows with the sessions a run manages, and evidence runs to tens
/// of kilobytes, so holding the bytes would put the generator's throughput
/// into `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Judged {
    /// The session the frame addressed.
    pub session: u64,
    /// The nonce the frame answered.
    pub nonce: Nonce,
    /// The template it was built from.
    pub source: Source,
    /// Its length in bytes.
    pub len: usize,
    /// Its last [`TAIL`] bytes.
    pub tail: [u8; TAIL],
    /// SHA3-256 of the verdict envelope as received.
    pub verdict: [u8; 32],
    /// When the verdict arrived (orders the replay).
    pub at: Instant,
}

impl Judged {
    /// Records a sent frame and the verdict envelope that answered it.
    pub fn new(
        session: u64,
        nonce: Nonce,
        source: Source,
        frame: &[u8],
        verdict: &[u8],
        at: Instant,
    ) -> Self {
        let (len, tail) = len_and_tail(frame);
        Self { session, nonce, source, len, tail, verdict: verdict_digest(verdict), at }
    }

    /// Whether `frame` is the one that was sent.
    pub fn matches(&self, frame: &[u8]) -> bool {
        len_and_tail(frame) == (self.len, self.tail)
    }
}

fn len_and_tail(frame: &[u8]) -> (usize, [u8; TAIL]) {
    let mut tail = [0u8; TAIL];
    let start = frame.len().saturating_sub(TAIL);
    tail[TAIL - (frame.len() - start)..].copy_from_slice(&frame[start..]);
    (frame.len(), tail)
}

/// The digest [`Judged::verdict`] keeps of a verdict envelope.
pub fn verdict_digest(verdict: &[u8]) -> [u8; 32] {
    let mut digest = [0u8; 32];
    digest.copy_from_slice(Sha3_256::digest(verdict).as_bytes());
    digest
}

/// Bytes of one spooled [`Judged`]: session, arrival, source, length,
/// nonce, tail, verdict digest.
const SPOOLED_BYTES: usize = 8 + 8 + 8 + 8 + NONCE + TAIL + 32;
/// Where a spooled [`Judged`]'s nonce, tail and verdict digest start.
const NONCE_AT: usize = 32;
/// See [`NONCE_AT`].
const TAIL_AT: usize = NONCE_AT + NONCE;
/// See [`NONCE_AT`].
const VERDICT_AT: usize = TAIL_AT + TAIL;

/// Judged frames written to a file as they arrive and read back after the
/// pass.  A fleet pass judges hundreds of thousands of frames; kept in
/// memory, they would put the generator's throughput into `peak_rss_mb`.
/// The file lives under the crate's `out/` and is removed once read (or
/// when the spool is dropped unread).
#[derive(Debug)]
struct Spool {
    path: PathBuf,
    out: BufWriter<File>,
}

impl Spool {
    fn create() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let name =
            format!("judged-{}-{}.bin", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        let path = dir.join(name);
        let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self { path, out: BufWriter::with_capacity(1 << 16, file) })
    }

    fn write(&mut self, judged: &Judged, epoch: Instant) -> Result<(), String> {
        let (tag, index) = match judged.source {
            Source::Honest(i) => (0u32, i),
            Source::Forged(i) => (1, i),
            Source::Attack(i) => (2, i),
        };
        let mut bytes = [0u8; SPOOLED_BYTES];
        let at = judged.at.saturating_duration_since(epoch).as_nanos() as u64;
        bytes[..8].copy_from_slice(&judged.session.to_le_bytes());
        bytes[8..16].copy_from_slice(&at.to_le_bytes());
        bytes[16..20].copy_from_slice(&tag.to_le_bytes());
        bytes[20..24].copy_from_slice(&(index as u32).to_le_bytes());
        bytes[24..32].copy_from_slice(&(judged.len as u64).to_le_bytes());
        bytes[NONCE_AT..TAIL_AT].copy_from_slice(judged.nonce.as_bytes());
        bytes[TAIL_AT..VERDICT_AT].copy_from_slice(&judged.tail);
        bytes[VERDICT_AT..].copy_from_slice(&judged.verdict);
        self.out.write_all(&bytes).map_err(|e| format!("write {}: {e}", self.path.display()))
    }

    fn read_back(mut self, epoch: Instant, into: &mut Vec<Judged>) -> Result<(), String> {
        let io = |e: std::io::Error| format!("read back {}: {e}", self.path.display());
        self.out.flush().map_err(io)?;
        let mut input = BufReader::new(File::open(&self.path).map_err(io)?);
        let mut bytes = [0u8; SPOOLED_BYTES];
        loop {
            match input.read_exact(&mut bytes) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(io(e)),
            }
            let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let index = u32_at(20) as usize;
            let source = match u32_at(16) {
                0 => Source::Honest(index),
                1 => Source::Forged(index),
                _ => Source::Attack(index),
            };
            into.push(Judged {
                session: u64_at(0),
                nonce: Nonce::from_bytes(bytes[NONCE_AT..TAIL_AT].try_into().unwrap()),
                source,
                len: u64_at(24) as usize,
                tail: bytes[TAIL_AT..VERDICT_AT].try_into().unwrap(),
                verdict: bytes[VERDICT_AT..].try_into().unwrap(),
                at: epoch + Duration::from_nanos(u64_at(8)),
            });
        }
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Totals over every attempted session of a pass, whatever its phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that did not get their expected verdict.
    pub failed: u64,
    /// Of those, the ones the verifier refused.
    pub refused: u64,
    /// Evidence frames sent, and their total size in bytes.
    pub evidence_frames: u64,
    /// See [`Tally::evidence_frames`].
    pub evidence_bytes: u64,
    /// Sessions that sent evidence, per input index.
    pub evidence_inputs: HashMap<usize, u64>,
}

impl Tally {
    fn count(&mut self, session: &SessionRecord) {
        self.attempted += 1;
        self.failed += u64::from(session.status != Status::Expected);
        self.refused += u64::from(matches!(session.status, Status::Refused(_)));
        self.evidence_frames += u64::from(session.evidence_frames);
        self.evidence_bytes += session.evidence_bytes;
        if session.evidence_frames > 0 {
            *self.evidence_inputs.entry(session.input).or_insert(0) += 1;
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.evidence_frames += other.evidence_frames;
        self.evidence_bytes += other.evidence_bytes;
        for (input, n) in other.evidence_inputs {
            *self.evidence_inputs.entry(input).or_insert(0) += n;
        }
    }
}

/// What a pass recorded.  The saturation phase's sessions are only
/// counted, and judged frames go to a spool until the pass is over, so the
/// recorder's memory does not grow with the throughput a run reaches.
#[derive(Debug)]
pub struct PassLog {
    /// Every attempted session, counted.
    pub tally: Tally,
    /// The sessions of the latency phases (the closed loop, the open loop),
    /// one by one.
    pub sessions: Vec<SessionRecord>,
    /// Every frame the service judged, once [`PassLog::load_judged`] ran.
    pub judged: Vec<Judged>,
    spools: Vec<Spool>,
    epoch: Instant,
    /// How late the generator sent each open-loop session, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// Evidence frames refused `AT_CAPACITY` by a full connection; each
    /// refused session ran again on a new connection.
    pub capacity_refusals: u64,
    /// Good sessions and seconds of the throughput window (the closed loop
    /// or the saturation phase).
    pub window_good: u64,
    /// See [`PassLog::window_good`].
    pub window_seconds: f64,
    /// CPU time the whole process spent over the latency phase (the closed
    /// loop, or the open-loop phase): generator and server together.
    pub phase_cpu: Duration,
    /// Spans (empty when untraced).
    pub tracer: Tracer,
}

impl PassLog {
    /// An empty log whose tracer counts from `epoch`.
    pub fn new(epoch: Instant, traced: bool) -> Self {
        Self {
            tally: Tally::default(),
            sessions: Vec::new(),
            judged: Vec::new(),
            spools: Vec::new(),
            epoch,
            late_ns: Vec::new(),
            capacity_refusals: 0,
            window_good: 0,
            window_seconds: 0.0,
            phase_cpu: Duration::ZERO,
            tracer: Tracer::new(epoch, traced),
        }
    }

    /// Records one attempted session: counts it, and keeps it when it ran
    /// in a latency phase.
    pub fn record(&mut self, session: SessionRecord) {
        self.tally.count(&session);
        if matches!(session.phase, Phase::Closed | Phase::Open) {
            self.sessions.push(session);
        }
    }

    /// Spools one judged frame.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn judge(&mut self, judged: &Judged) -> Result<(), String> {
        if self.spools.is_empty() {
            self.spools.push(Spool::create()?);
        }
        self.spools[0].write(judged, self.epoch)
    }

    /// Reads every spooled frame back into [`PassLog::judged`] and removes
    /// the spool files.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn load_judged(&mut self) -> Result<(), String> {
        for spool in std::mem::take(&mut self.spools) {
            spool.read_back(self.epoch, &mut self.judged)?;
        }
        Ok(())
    }

    /// Merges the log of another connection of the same pass.
    pub fn absorb(&mut self, other: PassLog) {
        self.tally.absorb(other.tally);
        self.sessions.extend(other.sessions);
        self.judged.extend(other.judged);
        self.spools.extend(other.spools);
        self.late_ns.extend(other.late_ns);
        self.capacity_refusals += other.capacity_refusals;
        self.window_good += other.window_good;
        self.phase_cpu += other.phase_cpu;
        self.window_seconds = self.window_seconds.max(other.window_seconds);
        self.tracer.absorb(other.tracer);
    }

    /// Sessions whose latency the end-to-end metrics report: the good
    /// sessions of the latency phases.
    pub fn latency_sample(&self) -> impl Iterator<Item = &SessionRecord> {
        self.sessions.iter().filter(|s| s.status == Status::Expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spooled_frames_read_back_as_recorded() {
        let epoch = Instant::now();
        let mut log = PassLog::new(epoch, false);
        let sources = [Source::Honest(3), Source::Forged(7), Source::Attack(11)];
        let recorded: Vec<Judged> = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| {
                let frame: Vec<u8> = (0..40 + i as u8).collect();
                let at = epoch + Duration::from_micros(i as u64 * 7);
                Judged::new(
                    i as u64 + 1,
                    Nonce::from_counter(i as u64 + 9),
                    source,
                    &frame,
                    b"v",
                    at,
                )
            })
            .collect();
        for judged in &recorded {
            log.judge(judged).unwrap();
        }
        log.load_judged().unwrap();
        assert_eq!(log.judged.len(), recorded.len());
        for (read, written) in log.judged.iter().zip(&recorded) {
            assert_eq!(read.session, written.session);
            assert_eq!(read.nonce, written.nonce);
            assert_eq!(read.source, written.source);
            assert_eq!(
                (read.len, read.tail, read.verdict),
                (written.len, written.tail, written.verdict)
            );
            assert_eq!(read.at, written.at);
        }
    }
}
