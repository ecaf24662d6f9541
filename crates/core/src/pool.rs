//! `ParallelVerifier` — a worker pool draining verification work off the
//! ingest thread.
//!
//! Verification is stateless per report (signature + nonce + reference
//! comparison), so it is embarrassingly parallel: the pool owns `K` plain
//! [`std::thread`] workers that pop evidence bytes from one bounded MPMC
//! queue and run [`VerifierService::handle_bytes_batch`] over each drained
//! burst — the full decode → CFG evidence checks → Keccak
//! authenticator/signature check → verdict-encode pipeline — concurrently,
//! while producers (the event-loop server, the fleet executor, tests) only
//! pay the cost of an enqueue.  Batching the burst lets the
//! signature MACs finalize through the multi-lane Keccak path.
//!
//! Design notes:
//!
//! * **Bounded queue, blocking producers.**  [`ParallelVerifier::submit`]
//!   blocks while the queue is at capacity: backpressure propagates to the
//!   ingest side instead of growing an unbounded buffer.
//! * **MPMC with batched drains.**  Any number of producers may submit
//!   concurrently; workers pop small bursts per lock acquisition so the queue
//!   mutex does not become the bottleneck at high worker counts.
//! * **Each job carries its reply.**  A submission hands over the evidence
//!   bytes and an `FnOnce(`[`VerdictReply`]`)`; the worker runs it exactly
//!   once, on the worker thread, in burst order, right after
//!   [`VerifierService::handle_bytes_batch`] (a closed pool runs it at once
//!   with [`ServiceError::ShuttingDown`]).  The event-loop server's reply
//!   files the verdict under its connection and wakes the loop; blocking
//!   callers use [`ParallelVerifier::verify`].  The reply carries the
//!   queue→verdict latency measured on the worker, which the fleet executor
//!   aggregates into p50/p99 decision latencies.
//! * **No new dependencies.**  The queue is a `Mutex<VecDeque>` plus two
//!   condvars; replies are boxed closures.  Everything is std.
//!
//! Verdict-equivalence with the single-threaded path is a hard invariant
//! (`tests/e13_concurrent_service.rs` proves it differentially): the pool
//! adds *no* semantics — it only moves `handle_bytes` work onto workers,
//! batched per drained burst.

use crate::service::{ServiceError, VerifierService};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`ParallelVerifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads (`0` is treated as `1`).
    pub workers: usize,
    /// Maximum queued (not yet started) jobs; submissions block beyond this.
    pub queue_capacity: usize,
    /// Maximum jobs a worker pops per queue-lock acquisition.
    pub drain_burst: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { workers: 1, queue_capacity: 1024, drain_burst: 8 }
    }
}

impl PoolConfig {
    /// The default configuration with `workers` worker threads.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }
}

/// The worker-side answer to one submission.
#[derive(Debug)]
pub struct VerdictReply {
    /// The encoded verdict envelope (or the service error — only possible
    /// for outgoing-encode failures, or [`ServiceError::ShuttingDown`] when
    /// the pool was closed before the job ran).
    pub reply: Result<Vec<u8>, ServiceError>,
    /// Time from enqueue to verdict, measured on the worker.
    pub latency: Duration,
}

struct Job {
    bytes: Vec<u8>,
    enqueued: Instant,
    reply: Box<dyn FnOnce(VerdictReply) + Send>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    service: Arc<VerifierService>,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    drain_burst: usize,
}

/// A pool of verification workers over one shared [`VerifierService`].
///
/// # Example
///
/// ```
/// use lofat::pool::{ParallelVerifier, PoolConfig};
/// use lofat::service::{ServiceConfig, VerifierService};
/// use lofat::session::ProverSession;
/// use lofat::{EngineConfig, MeasurementDatabase, Prover, Verifier};
/// use lofat_crypto::DeviceKey;
/// use lofat_rv32::asm::assemble;
/// use std::sync::Arc;
///
/// let program = assemble(
///     ".text\nmain:\n    li t0, 4\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
/// )?;
/// let key = DeviceKey::from_seed("fleet");
/// let mut prover = Prover::new(program.clone(), "demo", key.clone());
/// let verifier = Verifier::new(program, "demo", key.verification_key())?;
/// let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![]])?;
/// let service = Arc::new(VerifierService::new(
///     db,
///     key.verification_key(),
///     ServiceConfig::sharded(4),
/// ));
///
/// let pool = ParallelVerifier::spawn(Arc::clone(&service), PoolConfig::with_workers(2));
/// let id = service.open_session(vec![])?;
/// let challenge = service.challenge_envelope(id)?.encode()?;
/// let evidence = ProverSession::new(&mut prover).handle_bytes(&challenge)?;
/// let reply = pool.verify(evidence);
/// assert!(reply.reply.is_ok());
/// pool.join();
/// assert_eq!(service.stats().accepted, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ParallelVerifier {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ParallelVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelVerifier")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl ParallelVerifier {
    /// Spawns `config.workers` worker threads over `service`.
    pub fn spawn(service: Arc<VerifierService>, config: PoolConfig) -> Self {
        let shared = Arc::new(Shared {
            service,
            queue: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            drain_burst: config.drain_burst.max(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lofat-verify-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn verifier worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The service the workers verify against.
    pub fn service(&self) -> &Arc<VerifierService> {
        &self.shared.service
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits one evidence envelope (encoded bytes) for verification.
    /// Blocks while the queue is at capacity (backpressure).  A worker runs
    /// `reply` exactly once with the verdict; if the pool is already closed,
    /// `reply` runs before this returns, with [`ServiceError::ShuttingDown`].
    pub fn submit(&self, bytes: Vec<u8>, reply: impl FnOnce(VerdictReply) + Send + 'static) {
        self.submit_batch(std::iter::once((bytes, reply)));
    }

    /// Submits a batch of `(evidence, reply)` pairs under one queue-lock
    /// acquisition per capacity window, in order.  Cheaper than
    /// per-envelope [`ParallelVerifier::submit`] when the producer already
    /// holds a burst of work; each reply runs exactly once, as there.
    pub fn submit_batch<F>(&self, batch: impl IntoIterator<Item = (Vec<u8>, F)>)
    where
        F: FnOnce(VerdictReply) + Send + 'static,
    {
        let mut pending: VecDeque<(Vec<u8>, F)> = batch.into_iter().collect();
        while !pending.is_empty() {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            while !queue.closed && queue.jobs.len() >= self.shared.capacity {
                queue = self.shared.not_full.wait(queue).expect("queue lock poisoned");
            }
            if queue.closed {
                // Answer the remainder now: a closed pool never runs new
                // work, and an unanswered reply would strand its producer.
                drop(queue);
                for (_, reply) in pending {
                    reply(VerdictReply {
                        reply: Err(ServiceError::ShuttingDown),
                        latency: Duration::ZERO,
                    });
                }
                return;
            }
            let room = self.shared.capacity - queue.jobs.len();
            for (bytes, reply) in pending.drain(..room.min(pending.len())) {
                queue.jobs.push_back(Job {
                    bytes,
                    enqueued: Instant::now(),
                    reply: Box::new(reply),
                });
            }
            self.shared.not_empty.notify_all();
        }
    }

    /// Submits one envelope and blocks until its verdict is ready: the
    /// blocking form of [`ParallelVerifier::submit`].
    ///
    /// # Panics
    ///
    /// If the job's reply is dropped without being run (a worker panicked
    /// mid-burst), instead of waiting forever.
    pub fn verify(&self, bytes: Vec<u8>) -> VerdictReply {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(bytes, move |reply| {
            let _ = tx.send(reply);
        });
        rx.recv().expect("a verifier worker dropped the reply without running it")
    }

    /// Closes the queue and joins all workers.  Already-queued jobs are still
    /// verified and their replies run; the replies of jobs submitted after
    /// the close run with [`ServiceError::ShuttingDown`].
    pub fn join(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            queue.closed = true;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ParallelVerifier {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    let mut burst: Vec<Job> = Vec::with_capacity(shared.drain_burst);
    loop {
        {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            while queue.jobs.is_empty() && !queue.closed {
                queue = shared.not_empty.wait(queue).expect("queue lock poisoned");
            }
            if queue.jobs.is_empty() && queue.closed {
                return;
            }
            let take = queue.jobs.len().min(shared.drain_burst);
            burst.extend(queue.jobs.drain(..take));
            // Freed `take` slots; wake blocked producers.
            shared.not_full.notify_all();
        }
        // The whole burst goes through the batch entry point, so the Keccak
        // finalizations of its signature MACs drain through the multi-lane
        // path; verdicts (and their order within the burst) are exactly what
        // per-job `handle_bytes` calls would produce.
        let requests: Vec<&[u8]> = burst.iter().map(|job| job.bytes.as_slice()).collect();
        let replies = shared.service.handle_bytes_batch(&requests);
        drop(requests);
        for (job, reply) in burst.drain(..).zip(replies) {
            let latency = job.enqueued.elapsed();
            (job.reply)(VerdictReply { reply, latency });
        }
    }
}

// Producers share the pool across threads; keep that a compile-time fact
// rather than a call-site inference failure.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ParallelVerifier>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::measurement_db::MeasurementDatabase;
    use crate::prover::Prover;
    use crate::service::ServiceConfig;
    use crate::session::ProverSession;
    use crate::verifier::Verifier;
    use crate::wire::{Envelope, Message};
    use lofat_crypto::DeviceKey;
    use lofat_rv32::asm::assemble;

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

    fn setup(shards: usize) -> (Arc<VerifierService>, Prover) {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("pool-device");
        let prover = Prover::new(program.clone(), "triple", key.clone());
        let verifier = Verifier::new(program, "triple", key.verification_key()).unwrap();
        let db =
            MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![2], vec![3]])
                .unwrap();
        let service = Arc::new(VerifierService::new(
            db,
            key.verification_key(),
            ServiceConfig::sharded(shards),
        ));
        (service, prover)
    }

    fn decode_verdict(bytes: &[u8]) -> crate::wire::VerdictMsg {
        let envelope = Envelope::decode(bytes).expect("verdict envelope decodes");
        match envelope.message {
            Message::Verdict(v) => v,
            other => panic!("expected verdict, got {}", other.kind()),
        }
    }

    /// A reply that sends `(index, reply)` down `tx`.
    fn send_to(
        tx: &mpsc::Sender<(usize, VerdictReply)>,
        index: usize,
    ) -> impl FnOnce(VerdictReply) + Send + 'static {
        let tx = tx.clone();
        move |reply| tx.send((index, reply)).expect("receiver outlives the pool")
    }

    #[test]
    fn pool_verifies_submissions_and_reports_latency() {
        let (service, mut prover) = setup(2);
        let pool = ParallelVerifier::spawn(Arc::clone(&service), PoolConfig::with_workers(2));
        let (tx, rx) = mpsc::channel();
        for (index, input) in [vec![2u32], vec![3u32]].into_iter().enumerate() {
            let id = service.open_session(input).unwrap();
            let challenge = service.challenge_envelope(id).unwrap().encode().unwrap();
            let evidence = ProverSession::new(&mut prover).handle_bytes(&challenge).unwrap();
            pool.submit(evidence, send_to(&tx, index));
        }
        let mut answered: Vec<usize> = rx
            .iter()
            .take(2)
            .map(|(index, reply)| {
                let verdict = decode_verdict(&reply.reply.expect("encodes"));
                assert!(verdict.accepted, "{verdict:?}");
                assert!(reply.latency > Duration::ZERO, "the worker timed the job");
                index
            })
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, [0, 1]);
        pool.join();
        assert_eq!(service.stats().accepted, 2);
    }

    #[test]
    fn batch_submission_preserves_order_and_capacity() {
        let (service, mut prover) = setup(1);
        // Capacity 2 forces the batch path to wrap around the bounded queue.
        let config = PoolConfig { workers: 1, queue_capacity: 2, drain_burst: 4 };
        let pool = ParallelVerifier::spawn(Arc::clone(&service), config);
        let (tx, rx) = mpsc::channel();
        let batch: Vec<_> = (0..6)
            .map(|index| {
                let id = service.open_session(vec![2]).unwrap();
                let challenge = service.challenge_envelope(id).unwrap().encode().unwrap();
                let evidence = ProverSession::new(&mut prover).handle_bytes(&challenge).unwrap();
                (evidence, send_to(&tx, index))
            })
            .collect();
        pool.submit_batch(batch);
        pool.join();
        drop(tx);
        let replies: Vec<(usize, VerdictReply)> = rx.iter().collect();
        // One worker drains the FIFO queue, so replies run in submission
        // order.
        let order: Vec<usize> = replies.iter().map(|(index, _)| *index).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        for (_, reply) in replies {
            assert!(decode_verdict(&reply.reply.unwrap()).accepted);
        }
        assert_eq!(service.stats().accepted, 6);
    }

    #[test]
    fn malformed_bytes_come_back_as_verdicts() {
        let (service, _) = setup(1);
        let pool = ParallelVerifier::spawn(Arc::clone(&service), PoolConfig::default());
        let reply = pool.verify(b"garbage".to_vec());
        let verdict = decode_verdict(&reply.reply.unwrap());
        assert!(!verdict.accepted);
        assert_eq!(verdict.reason_code, crate::wire::code::MALFORMED);
        pool.join();
    }

    #[test]
    fn submissions_after_close_resolve_to_shutting_down() {
        let (service, _) = setup(1);
        let mut pool = ParallelVerifier::spawn(Arc::clone(&service), PoolConfig::default());
        pool.close_and_join();
        let (tx, rx) = mpsc::channel();
        pool.submit_batch([(b"x".to_vec(), send_to(&tx, 0)), (b"y".to_vec(), send_to(&tx, 1))]);
        // A closed pool answers before `submit_batch` returns.
        let answered: Vec<(usize, VerdictReply)> = rx.try_iter().collect();
        assert_eq!(answered.len(), 2);
        for (_, reply) in answered {
            assert!(matches!(reply.reply, Err(ServiceError::ShuttingDown)));
        }
        assert!(matches!(pool.verify(b"z".to_vec()).reply, Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn every_reply_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (service, mut prover) = setup(2);
        // A small queue and burst under several workers, with submissions
        // still queued when the pool closes: every reply must run, and none
        // twice.
        let config = PoolConfig { workers: 3, queue_capacity: 3, drain_burst: 2 };
        let pool = ParallelVerifier::spawn(Arc::clone(&service), config);
        let submissions = 24;
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..submissions).map(|_| AtomicUsize::new(0)).collect());
        let batch: Vec<_> = (0..submissions)
            .map(|index| {
                let bytes = if index % 3 == 0 {
                    b"not an envelope".to_vec()
                } else {
                    let id = service.open_session(vec![3]).unwrap();
                    let challenge = service.challenge_envelope(id).unwrap().encode().unwrap();
                    ProverSession::new(&mut prover).handle_bytes(&challenge).unwrap()
                };
                let runs = Arc::clone(&runs);
                let reply = move |reply: VerdictReply| {
                    assert!(reply.reply.is_ok(), "submission {index}: {:?}", reply.reply);
                    runs[index].fetch_add(1, Ordering::SeqCst);
                };
                (bytes, reply)
            })
            .collect();
        pool.submit_batch(batch);
        pool.join();
        for (index, count) in runs.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "reply {index}");
        }
        assert_eq!(service.stats().accepted, 16);
    }
}
