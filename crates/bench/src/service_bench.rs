//! E13 — sharded `VerifierService` + `ParallelVerifier` throughput sweep and
//! the `BENCH_service.json` format.
//!
//! `lofat serve-bench` drives M producer threads submitting pre-generated
//! evidence through a [`ParallelVerifier`] worker pool for each worker count
//! in a sweep, and records sessions/sec plus p50/p99 decision latency per
//! configuration.  Only the service is timed: the expensive part of each
//! session — the prover's attested execution — happens once, up front, and
//! the same evidence bytes are replayed against a *fresh* service per sweep
//! point (a fresh service issues the same deterministic nonce sequence, so
//! pre-generated evidence answers every instance).
//!
//! The recorded numbers are wall-clock and host-dependent; the committed
//! `BENCH_service.json` carries a `host_cpus` field for exactly that reason.
//! On a single-core host the worker sweep degenerates (workers time-slice one
//! CPU), so the CI bench gate keys on absolute sessions/sec against the
//! committed baseline, not on the scaling ratio.
//!
//! Besides the in-process sweep, the same points run once more through a
//! `lofat-net` [`EventLoopServer`] on a loopback socket (`loopback_sweep` in
//! the document): identical service, identical evidence, but every frame
//! crosses TCP and every latency is a client-observed round trip — the
//! difference between the two sweeps is the measured transport cost.  The CI
//! gate keys only on the in-process sweep.

use lofat::pool::{ParallelVerifier, PoolConfig, VerdictReply};
use lofat::service::{ServiceConfig, VerifierService};
use lofat::wire::{Envelope, Message};
use lofat::{EngineConfig, MeasurementDatabase, Prover, Verifier};
use lofat_crypto::DeviceKey;
use lofat_fleet::{percentile, SlotBehaviour};
use lofat_net::{raise_nofile_limit, EventLoopServer, NetLimits, ProverClient, ServerConfig};
use lofat_workloads::catalog;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::{JsonWriter, SCHEMA_VERSION};

/// The workload the sweep attests (the same one E10 uses for the hot path).
pub const WORKLOAD: &str = "syringe-pump";

/// Syringe-pump units per session.  Smaller than E10's 2000: serve-bench
/// measures the *service*, so prover runs are setup cost, not the subject.
pub const UNITS: u32 = 200;

/// Shape of one serve-bench run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceBenchConfig {
    /// Sessions opened (and evidence envelopes verified) per sweep point.
    pub sessions: usize,
    /// Producer threads submitting concurrently.
    pub producers: usize,
    /// Session shards in the service under test.
    pub shards: usize,
    /// Worker counts to sweep, in order.
    pub worker_counts: Vec<usize>,
    /// Bounded queue capacity of the pool.
    pub queue_capacity: usize,
    /// Envelopes per producer-side `submit_batch` call.
    pub submit_batch: usize,
    /// Concurrent-connection counts for the event-loop sweep (each point
    /// holds this many idle connections while `active_connections` clients
    /// run round trips).
    pub connection_counts: Vec<usize>,
    /// Clients running verification round trips during each connection-sweep
    /// point.
    pub active_connections: usize,
    /// Round trips each active client runs per connection-sweep point.
    pub rounds_per_active: usize,
}

impl ServiceBenchConfig {
    /// CI smoke shape: identical to [`ServiceBenchConfig::full`] except for
    /// the session count, so smoke-mode sessions/sec stays comparable to the
    /// committed full-shape baseline (throughput is a steady-state rate; the
    /// session count mostly sets how long the timed region lasts).
    pub fn smoke() -> Self {
        Self {
            sessions: 96,
            connection_counts: vec![64, 256],
            active_connections: 8,
            rounds_per_active: 4,
            ..Self::full()
        }
    }

    /// Full shape for the committed trajectory numbers.
    pub fn full() -> Self {
        Self {
            sessions: 768,
            producers: 4,
            shards: 8,
            worker_counts: vec![1, 2, 4],
            queue_capacity: 256,
            submit_batch: 16,
            connection_counts: vec![256, 4096, 10_000],
            active_connections: 32,
            rounds_per_active: 8,
        }
    }
}

/// Measured result for one worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSample {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Verified sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Median queue→verdict latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile queue→verdict latency, microseconds.
    pub p99_latency_us: f64,
    /// Accepting verdicts (must equal the session count for an honest sweep).
    pub accepted: u64,
}

/// Warm-verdict-cache vs cold-path comparison: the same evidence set replayed
/// single-threaded through `handle_bytes` against a cached and an uncached
/// service.  Every pre-generated envelope attests the same workload and input,
/// so all of them share one verdict-cache key (payload-minus-nonce): after one
/// untimed priming envelope the warm pass is all cache hits — resume the
/// cached MAC snapshot, absorb the nonce, finalize, spend the session — while
/// the cold pass re-absorbs the full signed prefix and re-checks the
/// measurement for every envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePathSample {
    /// Envelopes in each timed pass (the priming envelope is untimed).
    pub sessions: usize,
    /// Sessions/sec with the verdict cache disabled (`with_verdict_cache(0)`).
    pub cold_sessions_per_sec: f64,
    /// Sessions/sec against the warm default-capacity cache.
    pub warm_sessions_per_sec: f64,
    /// `warm_sessions_per_sec / cold_sessions_per_sec`.
    pub warm_speedup: f64,
    /// Cache hits the warm service recorded (must equal `sessions`).
    pub cache_hits: u64,
    /// Cache misses the warm service recorded (the priming envelope only).
    pub cache_misses: u64,
}

/// One point of the concurrent-connection sweep: `held` idle connections
/// parked on an [`EventLoopServer`] while `active` clients run verification
/// round trips — the scaling claim of the readiness-driven transport in one
/// number (no per-connection threads: 10k connections is 10k entries in one
/// epoll set, and the active round trips must not degrade).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionSample {
    /// The sweep's target connection count for this point.
    pub connections: usize,
    /// Idle connections actually held open (clamped when the file-descriptor
    /// budget cannot be raised far enough).
    pub held: usize,
    /// Clients running round trips concurrently with the idle herd.
    pub active: usize,
    /// Total verification round trips completed across the active clients.
    pub round_trips: u64,
    /// Round trips per wall-clock second.
    pub round_trips_per_sec: f64,
    /// Median client-observed round-trip latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile client-observed round-trip latency, microseconds.
    pub p99_latency_us: f64,
    /// Accepting verdicts (must equal `round_trips` for the honest sweep).
    pub accepted: u64,
}

/// Everything one serve-bench run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBenchReport {
    /// The configuration the sweep ran with.
    pub config: ServiceBenchConfig,
    /// CPUs visible to this process (worker scaling is bounded by this).
    pub host_cpus: usize,
    /// Packed-Keccak kernel tier the host dispatched to (`avx512`/`avx2`/
    /// `scalar`) — recorded so throughput rows compare like for like.
    pub simd_tier: &'static str,
    /// Warm-cache vs cold-path sequential comparison.
    pub cache: CachePathSample,
    /// One sample per entry of `config.worker_counts`.
    pub samples: Vec<SweepSample>,
    /// The same sweep over a loopback TCP socket: the service behind an
    /// [`EventLoopServer`], `config.producers` client connections
    /// submitting evidence frames and waiting for each verdict frame.
    /// Latencies here are client-observed round trips (framing + socket +
    /// queue + verification), so loopback rows are expected to sit above the
    /// in-process ones — the gap *is* the measured transport cost.
    pub loopback: Vec<SweepSample>,
    /// The concurrent-connection sweep over the readiness-driven
    /// [`EventLoopServer`]: one sample per entry of
    /// `config.connection_counts`.
    pub connections: Vec<ConnectionSample>,
}

impl ServiceBenchReport {
    /// Throughput of the last sweep point relative to the first (the
    /// "1 worker → max workers" scaling factor when the sweep is `[1, …, K]`).
    pub fn scaling_first_to_last(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(first), Some(last)) if first.sessions_per_sec > 0.0 => {
                last.sessions_per_sec / first.sessions_per_sec
            }
            _ => 0.0,
        }
    }
}

/// Pre-generates `sessions` honest evidence envelopes for the sweep workload
/// through the shared `lofat-fleet` session driver.
///
/// A fresh [`VerifierService`] issues nonces `1..=n` deterministically, so one
/// batch of evidence (produced against a throwaway instance) answers the
/// sessions of every fresh instance the sweep creates.
fn pregenerate_evidence(
    db: &MeasurementDatabase,
    key: &DeviceKey,
    prover: &mut Prover,
    input: &[u32],
    sessions: usize,
) -> Vec<Vec<u8>> {
    let template =
        VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::default());
    let slots = (0..sessions).map(|_| (input.to_vec(), SlotBehaviour::Honest));
    lofat_fleet::generate_traffic(&template, prover, slots)
        .expect("pre-generate honest sweep traffic")
        .into_iter()
        .map(|slot| slot.evidence)
        .collect()
}

/// Runs the worker sweep and returns the per-worker-count samples.
pub fn measure(config: &ServiceBenchConfig) -> ServiceBenchReport {
    let workload = catalog::by_name(WORKLOAD).expect("workload in catalogue");
    let program = workload.program().expect("assemble");
    let key = DeviceKey::from_seed("serve-bench-fleet");
    let mut prover = Prover::new(program.clone(), WORKLOAD, key.clone());
    let verifier =
        Verifier::new(program, WORKLOAD, key.verification_key()).expect("construct verifier");
    let input = vec![UNITS];
    let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![input.clone()])
        .expect("reference measurement");

    let evidence = pregenerate_evidence(&db, &key, &mut prover, &input, config.sessions);

    // Warm-up: one untimed single-threaded pass over the whole evidence set,
    // so the first sweep point does not absorb first-touch costs (page
    // faults, lazy allocator arenas, cold branch predictors) that later
    // points get for free.
    {
        let warm = VerifierService::new(
            db.clone(),
            key.verification_key(),
            ServiceConfig::sharded(config.shards),
        );
        for _ in 0..config.sessions {
            warm.open_session(input.clone()).expect("open warm-up session");
        }
        for bytes in &evidence {
            let _ = warm.handle_bytes(bytes).expect("warm-up verdict encodes");
        }
    }

    let cache = cache_point(&db, &key, &input, &evidence);
    let samples = config
        .worker_counts
        .iter()
        .map(|&workers| sweep_point(config, &db, &key, &input, &evidence, workers))
        .collect();
    let loopback = config
        .worker_counts
        .iter()
        .map(|&workers| loopback_point(config, &db, &key, &input, &evidence, workers))
        .collect();
    let connections = config
        .connection_counts
        .iter()
        .map(|&count| connection_point(config, &db, &key, &input, &evidence, count))
        .collect();

    ServiceBenchReport {
        config: config.clone(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd_tier: lofat_crypto::simd_tier(),
        cache,
        samples,
        loopback,
        connections,
    }
}

/// The warm-vs-cold verdict-cache comparison (see [`CachePathSample`]).
///
/// Both passes are single-threaded `handle_bytes` loops over the same
/// evidence, both skip the first envelope from the timed region (it primes
/// the cache on the warm service and first-touch costs on both), so the two
/// rates isolate exactly the per-envelope verification cost the cache
/// removes: full signed-prefix HMAC absorption plus the measurement-database
/// check, versus resuming the cached MAC snapshot over the nonce alone.
fn cache_point(
    db: &MeasurementDatabase,
    key: &DeviceKey,
    input: &[u32],
    evidence: &[Vec<u8>],
) -> CachePathSample {
    assert!(evidence.len() >= 2, "cache comparison needs a priming envelope plus a timed one");
    let timed = evidence.len() - 1;
    let run = |service: &VerifierService| -> f64 {
        for _ in 0..evidence.len() {
            service.open_session(input.to_vec()).expect("open cache-bench session");
        }
        let _ = service.handle_bytes(&evidence[0]).expect("priming verdict encodes");
        let start = Instant::now();
        for bytes in &evidence[1..] {
            std::hint::black_box(service.handle_bytes(bytes).expect("verdict encodes"));
        }
        timed as f64 / start.elapsed().as_secs_f64()
    };

    // One shard on both sides: the comparison is sequential, and cache shards
    // are congruent with session shards, so a single shard lets the one
    // priming miss warm the only cache copy (on S shards the first envelope
    // landing on each *other* shard would also miss).
    let cold = VerifierService::new(
        db.clone(),
        key.verification_key(),
        ServiceConfig::sharded(1).with_verdict_cache(0),
    );
    let cold_sessions_per_sec = run(&cold);
    let warm = VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::sharded(1));
    let warm_sessions_per_sec = run(&warm);
    let stats = warm.stats();

    CachePathSample {
        sessions: timed,
        cold_sessions_per_sec,
        warm_sessions_per_sec,
        warm_speedup: warm_sessions_per_sec / cold_sessions_per_sec,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    }
}

/// One timed sweep point: fresh service, fresh pool, all producers submitting.
fn sweep_point(
    config: &ServiceBenchConfig,
    db: &MeasurementDatabase,
    key: &DeviceKey,
    input: &[u32],
    evidence: &[Vec<u8>],
    workers: usize,
) -> SweepSample {
    let service = Arc::new(VerifierService::new(
        db.clone(),
        key.verification_key(),
        ServiceConfig::sharded(config.shards),
    ));
    for _ in 0..config.sessions {
        service.open_session(input.to_vec()).expect("open session");
    }
    let pool = ParallelVerifier::spawn(
        Arc::clone(&service),
        PoolConfig { workers, queue_capacity: config.queue_capacity, drain_burst: 8 },
    );

    // Producers: strided slices, batched submission, replies collected
    // locally and merged once.  The per-producer batches are cloned *before*
    // the clock starts and submitted by move, so the timed region measures
    // queueing + verification, not benchmark-harness memcpy; decoding
    // happens after the timed region too.
    let producers = config.producers.max(1);
    let batch_size = config.submit_batch.max(1);
    let prebuilt: Vec<Vec<Vec<Vec<u8>>>> = (0..producers)
        .map(|producer| {
            let mine: Vec<Vec<u8>> =
                evidence.iter().skip(producer).step_by(producers).cloned().collect();
            mine.chunks(batch_size).map(<[Vec<u8>]>::to_vec).collect()
        })
        .collect();
    let replies: Mutex<Vec<(Duration, Vec<u8>)>> = Mutex::new(Vec::with_capacity(config.sessions));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for batches in prebuilt {
            let pool = &pool;
            let replies = &replies;
            scope.spawn(move || {
                let mut local = Vec::new();
                for batch in batches {
                    // Each batch's replies come back on its own channel,
                    // which closes once every reply has run.
                    let (tx, rx) = mpsc::channel();
                    pool.submit_batch(batch.into_iter().map(|bytes| {
                        let tx = tx.clone();
                        (bytes, move |reply: VerdictReply| {
                            let _ = tx.send(reply);
                        })
                    }));
                    drop(tx);
                    for reply in rx {
                        local.push((reply.latency, reply.reply.expect("verdict encodes")));
                    }
                }
                replies.lock().expect("reply lock").extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    pool.join();

    let replies = replies.into_inner().expect("reply lock");
    let accepted = replies
        .iter()
        .filter(|(_, bytes)| {
            matches!(
                Envelope::decode(bytes).expect("verdict decodes").message,
                Message::Verdict(v) if v.accepted
            )
        })
        .count() as u64;
    let mut latencies: Vec<Duration> = replies.iter().map(|(latency, _)| *latency).collect();
    latencies.sort_unstable();

    SweepSample {
        workers,
        sessions_per_sec: config.sessions as f64 / elapsed.as_secs_f64(),
        p50_latency_us: percentile(&latencies, 0.50).as_secs_f64() * 1e6,
        p99_latency_us: percentile(&latencies, 0.99).as_secs_f64() * 1e6,
        accepted,
    }
}

/// One timed loopback-socket sweep point: fresh service and
/// [`EventLoopServer`] on an ephemeral port, `config.producers` client
/// connections each driving its strided share of the pre-generated evidence
/// frame by frame (submit, then wait for the verdict frame — per-client round
/// trips, the way a real prover fleet talks to the service).
fn loopback_point(
    config: &ServiceBenchConfig,
    db: &MeasurementDatabase,
    key: &DeviceKey,
    input: &[u32],
    evidence: &[Vec<u8>],
    workers: usize,
) -> SweepSample {
    let service = Arc::new(VerifierService::new(
        db.clone(),
        key.verification_key(),
        ServiceConfig::sharded(config.shards),
    ));
    for _ in 0..config.sessions {
        service.open_session(input.to_vec()).expect("open session");
    }
    let server_config = ServerConfig {
        pool: PoolConfig { workers, queue_capacity: config.queue_capacity, drain_burst: 8 },
        ..ServerConfig::default()
    };
    let server = EventLoopServer::bind("127.0.0.1:0", Arc::clone(&service), server_config)
        .expect("bind loopback server");
    let addr = server.local_addr();

    let clients = config.producers.max(1);
    // Connect and clone each client's share before the clock starts: the
    // timed region is framing + socket + queue + verification only.
    let prepared: Vec<(ProverClient, Vec<Vec<u8>>)> = (0..clients)
        .map(|client| {
            let mine: Vec<Vec<u8>> =
                evidence.iter().skip(client).step_by(clients).cloned().collect();
            (ProverClient::connect(addr).expect("connect bench client"), mine)
        })
        .collect();
    let replies: Mutex<Vec<(Duration, bool)>> = Mutex::new(Vec::with_capacity(config.sessions));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (mut client, mine) in prepared {
            let replies = &replies;
            scope.spawn(move || {
                let mut raw = client.raw();
                let mut local = Vec::with_capacity(mine.len());
                for bytes in mine {
                    let sent = Instant::now();
                    raw.send(&bytes).expect("submit evidence frame");
                    let reply = raw.recv().expect("read verdict frame").expect("server answered");
                    let accepted = matches!(
                        Envelope::decode(&reply).expect("verdict decodes").message,
                        Message::Verdict(v) if v.accepted
                    );
                    local.push((sent.elapsed(), accepted));
                }
                replies.lock().expect("reply lock").extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    server.shutdown();

    let replies = replies.into_inner().expect("reply lock");
    let accepted = replies.iter().filter(|(_, accepted)| *accepted).count() as u64;
    let mut latencies: Vec<Duration> = replies.iter().map(|(latency, _)| *latency).collect();
    latencies.sort_unstable();

    SweepSample {
        workers,
        sessions_per_sec: config.sessions as f64 / elapsed.as_secs_f64(),
        p50_latency_us: percentile(&latencies, 0.50).as_secs_f64() * 1e6,
        p99_latency_us: percentile(&latencies, 0.99).as_secs_f64() * 1e6,
        accepted,
    }
}

/// One concurrent-connection sweep point (see [`ConnectionSample`]): park
/// `count` idle connections on an [`EventLoopServer`], then run
/// `active_connections × rounds_per_active` verification round trips through
/// it while the herd sits there.
///
/// The server's read deadline is disabled for this point — the idle herd is
/// the subject, not a slow-loris attack — and the file-descriptor budget is
/// raised to cover both sides of every loopback connection (the idle count
/// is clamped to whatever budget the host actually grants, recorded in
/// [`ConnectionSample::held`]).
fn connection_point(
    config: &ServiceBenchConfig,
    db: &MeasurementDatabase,
    key: &DeviceKey,
    input: &[u32],
    evidence: &[Vec<u8>],
    count: usize,
) -> ConnectionSample {
    let active = config.active_connections.max(1);
    let rounds = config.rounds_per_active.max(1);
    let round_trips = (active * rounds).min(evidence.len());
    let evidence = &evidence[..round_trips];

    // Both ends of every loopback connection live in this process: two
    // descriptors per connection, plus listener/epoll/pool overhead.
    let wanted = 2 * (count + active) as u64 + 256;
    let budget = raise_nofile_limit(wanted);
    let held = if budget >= wanted {
        count
    } else {
        (budget.saturating_sub(2 * active as u64 + 256) / 2).min(count as u64) as usize
    };

    let service = Arc::new(VerifierService::new(
        db.clone(),
        key.verification_key(),
        ServiceConfig::sharded(config.shards),
    ));
    for _ in 0..round_trips {
        service.open_session(input.to_vec()).expect("open session");
    }
    let workers = config.worker_counts.iter().copied().max().unwrap_or(1);
    let server_config = ServerConfig {
        max_connections: held + active + 8,
        limits: NetLimits::server().with_read_timeout(None),
        pool: PoolConfig { workers, queue_capacity: config.queue_capacity, drain_burst: 8 },
        ..ServerConfig::default()
    };
    let server = EventLoopServer::bind("127.0.0.1:0", Arc::clone(&service), server_config)
        .expect("bind event-loop server");
    let addr = server.local_addr();

    // Park the idle herd.  Holding the streams keeps the connections alive;
    // they never send a byte.
    let idle: Vec<TcpStream> =
        (0..held).map(|_| TcpStream::connect(addr).expect("connect idle client")).collect();
    // Wait until the event loop has actually accepted the whole herd, so the
    // timed region measures round trips *through* a full epoll set.
    let patience = Instant::now();
    while server.active_connections() < held && patience.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.active_connections() >= held, "event loop accepted the idle herd");

    let prepared: Vec<(ProverClient, Vec<Vec<u8>>)> = (0..active)
        .map(|client| {
            let mine: Vec<Vec<u8>> =
                evidence.iter().skip(client).step_by(active).cloned().collect();
            (ProverClient::connect(addr).expect("connect active client"), mine)
        })
        .collect();
    let replies: Mutex<Vec<(Duration, bool)>> = Mutex::new(Vec::with_capacity(round_trips));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (mut client, mine) in prepared {
            let replies = &replies;
            scope.spawn(move || {
                let mut raw = client.raw();
                let mut local = Vec::with_capacity(mine.len());
                for bytes in mine {
                    let sent = Instant::now();
                    raw.send(&bytes).expect("submit evidence frame");
                    let reply = raw.recv().expect("read verdict frame").expect("server answered");
                    let accepted = matches!(
                        Envelope::decode(&reply).expect("verdict decodes").message,
                        Message::Verdict(v) if v.accepted
                    );
                    local.push((sent.elapsed(), accepted));
                }
                replies.lock().expect("reply lock").extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    drop(idle);
    server.shutdown();

    let replies = replies.into_inner().expect("reply lock");
    let accepted = replies.iter().filter(|(_, accepted)| *accepted).count() as u64;
    let mut latencies: Vec<Duration> = replies.iter().map(|(latency, _)| *latency).collect();
    latencies.sort_unstable();

    ConnectionSample {
        connections: count,
        held,
        active,
        round_trips: round_trips as u64,
        round_trips_per_sec: round_trips as f64 / elapsed.as_secs_f64(),
        p50_latency_us: percentile(&latencies, 0.50).as_secs_f64() * 1e6,
        p99_latency_us: percentile(&latencies, 0.99).as_secs_f64() * 1e6,
        accepted,
    }
}

/// Renders the `BENCH_service.json` document (schema version 2: the shared
/// bench-trajectory schema with a `service` section).
pub fn to_json(report: &ServiceBenchReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_object(None);
    w.field_str("bench", "service_throughput");
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_str("workload", WORKLOAD);
    w.field_u64("input_units", u64::from(UNITS));
    w.field_u64("host_cpus", report.host_cpus as u64);
    w.field_str("simd_tier", report.simd_tier);
    w.field_str(
        "measurement_note",
        "wall-clock sweep over worker counts; only service verification is timed (evidence is \
         pre-generated once and replayed against a fresh service per point). Worker scaling is \
         bounded by host_cpus — on a single-core host the sweep degenerates to ~1x and the CI \
         gate compares absolute sessions/sec instead. loopback_sweep runs the same points \
         through a lofat-net EventLoopServer on 127.0.0.1 with `producers` client connections; \
         its latencies are client-observed round trips, so the gap to `sweep` is the transport \
         cost. cache_path replays the same evidence single-threaded against a warm \
         default-capacity verdict cache (one untimed priming miss, then all hits) and against \
         a cache-disabled service; warm_speedup is the verification cost the cache removes. \
         connection_sweep parks `held` idle connections on a lofat-net EventLoopServer (one \
         epoll loop thread, no per-connection threads) and times `active` clients' verification \
         round trips through the full set; latencies are client-observed round trips. \
         Regenerate with `lofat serve-bench`.",
    );
    w.begin_object(Some("service"));
    w.field_u64("sessions", report.config.sessions as u64);
    w.field_u64("producers", report.config.producers as u64);
    w.field_u64("shards", report.config.shards as u64);
    w.field_u64("queue_capacity", report.config.queue_capacity as u64);
    w.field_u64("submit_batch", report.config.submit_batch as u64);
    // Warm-vs-cold verdict-cache row: same evidence, single-threaded, the
    // first envelope untimed (it primes the cache); `warm_speedup` is the
    // per-envelope verification cost the cache removes.
    w.begin_object(Some("cache_path"));
    w.field_u64("sessions", report.cache.sessions as u64);
    w.field_f64("cold_sessions_per_sec", report.cache.cold_sessions_per_sec, 1);
    w.field_f64("warm_sessions_per_sec", report.cache.warm_sessions_per_sec, 1);
    w.field_f64("warm_speedup", report.cache.warm_speedup, 2);
    w.field_u64("cache_hits", report.cache.cache_hits);
    w.field_u64("cache_misses", report.cache.cache_misses);
    w.end_object();
    let sweep_rows = |w: &mut JsonWriter, name: &str, samples: &[SweepSample]| {
        w.begin_array(Some(name));
        for sample in samples {
            w.begin_object(None);
            w.field_u64("workers", sample.workers as u64);
            w.field_f64("sessions_per_sec", sample.sessions_per_sec, 1);
            w.field_f64("p50_latency_us", sample.p50_latency_us, 1);
            w.field_f64("p99_latency_us", sample.p99_latency_us, 1);
            w.field_u64("accepted", sample.accepted);
            w.end_object();
        }
        w.end_array();
    };
    sweep_rows(&mut w, "sweep", &report.samples);
    w.field_f64("scaling_first_to_last", report.scaling_first_to_last(), 2);
    // Loopback-socket rows: same shape, latencies are client-observed round
    // trips over TCP (`producers` is the client-connection count).
    sweep_rows(&mut w, "loopback_sweep", &report.loopback);
    // Concurrent-connection rows: idle herd held on the event-loop server
    // while the active clients run round trips through it.
    w.begin_array(Some("connection_sweep"));
    for sample in &report.connections {
        w.begin_object(None);
        w.field_u64("connections", sample.connections as u64);
        w.field_u64("held", sample.held as u64);
        w.field_u64("active", sample.active as u64);
        w.field_u64("round_trips", sample.round_trips);
        w.field_f64("round_trips_per_sec", sample.round_trips_per_sec, 1);
        w.field_f64("p50_latency_us", sample.p50_latency_us, 1);
        w.field_f64("p99_latency_us", sample.p99_latency_us, 1);
        w.field_u64("accepted", sample.accepted);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_runs_and_serialises() {
        let config = ServiceBenchConfig {
            sessions: 6,
            producers: 2,
            shards: 2,
            worker_counts: vec![1, 2],
            queue_capacity: 8,
            submit_batch: 2,
            connection_counts: vec![4],
            active_connections: 2,
            rounds_per_active: 3,
        };
        let report = measure(&config);
        assert_eq!(report.samples.len(), 2);
        assert_eq!(report.loopback.len(), 2);
        for sample in report.samples.iter().chain(&report.loopback) {
            assert_eq!(sample.accepted, 6, "honest sweep must accept everything");
            assert!(sample.sessions_per_sec > 0.0);
        }
        assert_eq!(report.connections.len(), 1);
        let point = &report.connections[0];
        assert_eq!(point.held, 4, "tiny herd fits any fd budget");
        assert_eq!(point.round_trips, 6, "2 active clients × 3 rounds");
        assert_eq!(point.accepted, 6, "honest herd point accepts everything");
        assert!(point.round_trips_per_sec > 0.0);
        assert_eq!(report.cache.sessions, 5, "one priming envelope, five timed");
        assert_eq!(report.cache.cache_misses, 1, "only the priming envelope misses");
        assert_eq!(report.cache.cache_hits, 5, "every timed warm envelope must hit");
        assert!(report.cache.cold_sessions_per_sec > 0.0);
        assert!(report.cache.warm_sessions_per_sec > 0.0);
        assert!(["avx512", "avx2", "scalar"].contains(&report.simd_tier));
        let json = to_json(&report);
        assert!(json.contains("\"service\": {"));
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"simd_tier\": "));
        assert!(json.contains("\"cache_path\": {"));
        assert!(json.contains("\"warm_speedup\": "));
        assert!(json.contains("\"sweep\": ["));
        assert!(json.contains("\"loopback_sweep\": ["));
        assert!(json.contains("\"connection_sweep\": ["));
        assert!(json.contains("\"round_trips_per_sec\": "));
    }
}
