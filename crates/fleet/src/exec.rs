//! The fleet executor: fan enumerated jobs over the in-process worker pool,
//! a live TCP server and/or a fan-out front, with transport-fault injection,
//! and collect per-scenario outcomes.
//!
//! Determinism is the whole point.  Traffic is pre-generated **once per
//! section** against a throwaway template service ([`crate::driver`]); nonce
//! determinism then lets the same bytes answer every fresh execution service,
//! whether it sits behind [`lofat::ParallelVerifier`], an
//! [`lofat_net::EventLoopServer`] or a [`lofat_net::FanOutFront`] over
//! partitioned ones.  Each scenario opens its sessions up front
//! in slot order (asserting the issued challenges match the pre-generated
//! bytes), drives phase 1 concurrently from `clients` workers over strided
//! slots, then re-submits the replay-class slots in a sequential phase 2.
//! The client-observed verdict breakdown and the session-spending statistics
//! (`opened`, `accepted`, `sessions_rejected`, `expired`, `replays_blocked`,
//! `live`) must come out identical across transports; only wire-level
//! counters (`wire_errors`, total `rejected`) may differ, because half-frames
//! from dropped connections are visible to a socket but do not exist in a
//! pool.
//!
//! Fault classes map to transports as follows (applied to every
//! `fault_every`-th slot):
//!
//! | class | socket | pool |
//! |---|---|---|
//! | `drop-connection` | half an evidence frame, then disconnect | never submitted |
//! | `slow-loris` | half a frame, connection held until the run ends | never submitted |
//! | `duplicate-frame` | evidence sent twice back-to-back | submitted twice |
//! | `oversized-prefix` | hostile `u32::MAX` length prefix on a throwaway connection, then the real evidence | undecodable blob, then the real evidence |

use crate::driver::{behaviour_for, generate_traffic, DriveError, TrafficSlot};
use crate::enumerate::{enumerate, EnumerateError, Job};
use crate::spec::{Arrival, FaultClass, FleetSpec};
use lofat::wire::{code, Envelope, Message, SessionId, WireError};
use lofat::{
    EngineConfig, MeasurementDatabase, ParallelVerifier, PoolConfig, Prover, ServiceConfig,
    ServiceError, ServiceStats, Verifier, VerifierService,
};
use lofat_crypto::DeviceKey;
use lofat_net::{EventLoopServer, FanOutFront, NetError, NetLimits, ProverClient, ServerConfig};
use lofat_workloads::catalog;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which execution backend a scenario ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The in-process [`ParallelVerifier`] worker pool.
    Pool,
    /// A live [`EventLoopServer`] over loopback TCP — what `lofat serve`
    /// runs.
    Epoll,
    /// A [`FanOutFront`] multiplexing over two partitioned
    /// [`EventLoopServer`]s — the in-repo stand-in for an N-process
    /// `lofat front` + `lofat serve --partition` deployment.
    Front,
}

impl Transport {
    /// Stable name used in manifests and tables.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Pool => "pool",
            Transport::Epoll => "epoll",
            Transport::Front => "front",
        }
    }
}

/// What to execute.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Drive each job over the in-process pool.
    pub pool: bool,
    /// Drive each job over a loopback [`EventLoopServer`].
    pub epoll: bool,
    /// Drive each job over a fan-out front with two partitioned backends.
    pub front: bool,
    /// Overrides every section's `scale` (CI smoke runs shrink here).
    pub scale_override: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self { pool: true, epoll: true, front: true, scale_override: None }
    }
}

/// One job × transport result.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The executed job.
    pub job: Job,
    /// The transport it ran on.
    pub transport: Transport,
    /// Client-observed verdict breakdown: wire reason code → count.
    pub verdicts: BTreeMap<u16, u64>,
    /// Total verdicts observed (sum of the breakdown).
    pub verdict_total: u64,
    /// Observed `ACCEPTED` verdicts.
    pub accepted_verdicts: u64,
    /// Median clean-round-trip latency, µs (0 when nothing completed).
    pub p50_latency_us: u64,
    /// 99th-percentile clean-round-trip latency, µs.
    pub p99_latency_us: u64,
    /// The execution service's final statistics snapshot.
    pub stats: ServiceStats,
    /// Sessions still live at the end (dropped/slow-loris slots).
    pub live: usize,
    /// Whether the conservation law held on the final snapshot.
    pub conserved: bool,
}

/// A full fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The spec's `fleet <name>` header.
    pub spec_name: String,
    /// One outcome per executed job × transport, in job order with the
    /// enabled transports in pool, epoll, front order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Errors from fleet execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// The spec failed to expand.
    Enumerate(EnumerateError),
    /// Traffic pre-generation failed.
    Drive(DriveError),
    /// The execution service refused a session or submission.
    Service(ServiceError),
    /// A socket operation failed.
    Net(NetError),
    /// Binding or raw-socket I/O failed.
    Io(std::io::Error),
    /// A verdict envelope failed to decode.
    Wire(WireError),
    /// A fresh service issued a challenge that differs from the
    /// pre-generated bytes — nonce determinism is broken.
    ChallengeMismatch {
        /// The job index.
        job: usize,
        /// The slot whose challenge differed.
        slot: usize,
    },
    /// A reply that should have been a verdict envelope was something else.
    NotAVerdict {
        /// The job index.
        job: usize,
        /// The offending slot.
        slot: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Enumerate(e) => write!(f, "enumeration: {e}"),
            ExecError::Drive(e) => write!(f, "traffic generation: {e}"),
            ExecError::Service(e) => write!(f, "service: {e}"),
            ExecError::Net(e) => write!(f, "socket: {e}"),
            ExecError::Io(e) => write!(f, "i/o: {e}"),
            ExecError::Wire(e) => write!(f, "wire codec: {e}"),
            ExecError::ChallengeMismatch { job, slot } => {
                write!(f, "job {job} slot {slot}: challenge differs from pre-generated bytes")
            }
            ExecError::NotAVerdict { job, slot } => {
                write!(f, "job {job} slot {slot}: reply is not a verdict envelope")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EnumerateError> for ExecError {
    fn from(e: EnumerateError) -> Self {
        ExecError::Enumerate(e)
    }
}

impl From<DriveError> for ExecError {
    fn from(e: DriveError) -> Self {
        ExecError::Drive(e)
    }
}

impl From<ServiceError> for ExecError {
    fn from(e: ServiceError) -> Self {
        ExecError::Service(e)
    }
}

impl From<NetError> for ExecError {
    fn from(e: NetError) -> Self {
        ExecError::Net(e)
    }
}

impl From<std::io::Error> for ExecError {
    fn from(e: std::io::Error) -> Self {
        ExecError::Io(e)
    }
}

/// Everything a section's jobs share: the reference database, the key, and
/// the pre-generated traffic.
struct SectionContext {
    db: MeasurementDatabase,
    key: DeviceKey,
    traffic: Vec<TrafficSlot>,
}

fn prepare_section(spec_name: &str, job: &Job) -> Result<SectionContext, ExecError> {
    let workload = catalog::by_name(&job.workload).expect("enumerate validated the catalogue");
    let program = workload.program().expect("enumerate validated assembly");
    let key = DeviceKey::from_seed(&format!("fleet-{spec_name}-{}", job.workload));
    let verifier = Verifier::new(program.clone(), workload.name, key.verification_key())
        .map_err(DriveError::Prover)?;
    let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), job.inputs.clone())
        .map_err(DriveError::Prover)?;
    let template =
        VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::default());
    let mut prover = Prover::new(program.clone(), workload.name, key.clone());
    let slots = (0..job.scale)
        .map(|slot| {
            behaviour_for(job.adversary_for_slot(slot), &program)
                .map(|behaviour| (job.input_for_slot(slot).to_vec(), behaviour))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let traffic = generate_traffic(&template, &mut prover, slots)?;
    Ok(SectionContext { db, key, traffic })
}

fn fresh_service(section: &SectionContext, workers: usize) -> (Arc<VerifierService>, usize) {
    let workers = workers.clamp(1, 8);
    let config = ServiceConfig::sharded(4);
    let service = VerifierService::new(section.db.clone(), section.key.verification_key(), config);
    (Arc::new(service), workers)
}

/// The pause a slot observes before submitting, per the arrival pattern.
fn arrival_pause(arrival: Arrival, interval_us: u64, slot: usize, scale: usize) -> Duration {
    match arrival {
        Arrival::Burst => Duration::ZERO,
        Arrival::Uniform => Duration::from_micros(interval_us),
        Arrival::Ramp => {
            let remaining = (scale - slot.min(scale)) as u64;
            Duration::from_micros(interval_us * 2 * remaining / scale.max(1) as u64)
        }
    }
}

/// One observed verdict: the slot, the wire reason code, and the clean
/// round-trip latency when the observation was a normal submission.
struct Observation {
    code: u16,
    latency_us: Option<u64>,
}

fn decode_code(bytes: &[u8], job: usize, slot: usize) -> Result<u16, ExecError> {
    let envelope = Envelope::decode(bytes).map_err(ExecError::Wire)?;
    match envelope.message {
        Message::Verdict(v) => Ok(v.reason_code),
        _ => Err(ExecError::NotAVerdict { job, slot }),
    }
}

/// An undecodable submission the pool transport uses to mirror the socket's
/// hostile-length-prefix fault: the service answers `MALFORMED` either way.
const GARBAGE_BLOB: &[u8] = b"!! not an envelope !!";

/// Phase 1 over the in-process pool: `clients` threads, strided slots.
fn pool_phase1(
    job: &Job,
    traffic: &[TrafficSlot],
    pool: &ParallelVerifier,
) -> Result<Vec<Observation>, ExecError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..job.clients)
            .map(|client| {
                scope.spawn(move || -> Result<Vec<Observation>, ExecError> {
                    let mut observations = Vec::new();
                    for slot in (client..job.scale).step_by(job.clients) {
                        let pause = arrival_pause(job.arrival, job.interval_us, slot, job.scale);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        if job.slot_is_faulted(slot) {
                            match job.fault {
                                FaultClass::DropConnection | FaultClass::SlowLoris => {
                                    // No transport to half-write through: the
                                    // evidence simply never arrives.
                                    continue;
                                }
                                FaultClass::DuplicateFrame => {
                                    for _ in 0..2 {
                                        let reply = pool.verify(traffic[slot].evidence.clone());
                                        let bytes = reply.reply.map_err(ExecError::Service)?;
                                        observations.push(Observation {
                                            code: decode_code(&bytes, job.index, slot)?,
                                            latency_us: None,
                                        });
                                    }
                                    continue;
                                }
                                FaultClass::OversizedPrefix => {
                                    let reply = pool.verify(GARBAGE_BLOB.to_vec());
                                    let bytes = reply.reply.map_err(ExecError::Service)?;
                                    observations.push(Observation {
                                        code: decode_code(&bytes, job.index, slot)?,
                                        latency_us: None,
                                    });
                                    // Fall through: the real evidence follows.
                                }
                                FaultClass::None => unreachable!("slot_is_faulted excludes None"),
                            }
                        }
                        let reply = pool.verify(traffic[slot].evidence.clone());
                        let latency_us = reply.latency.as_micros() as u64;
                        let bytes = reply.reply.map_err(ExecError::Service)?;
                        observations.push(Observation {
                            code: decode_code(&bytes, job.index, slot)?,
                            latency_us: Some(latency_us),
                        });
                    }
                    Ok(observations)
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("fleet client thread panicked")?);
        }
        Ok(all)
    })
}

/// Phase 1 over a live server: `clients` connections, strided slots, raw
/// half-frame writes for the connection-level fault classes.
fn socket_phase1(
    job: &Job,
    traffic: &[TrafficSlot],
    addr: std::net::SocketAddr,
) -> Result<Vec<Observation>, ExecError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..job.clients)
            .map(|client| {
                scope.spawn(move || -> Result<Vec<Observation>, ExecError> {
                    let mut prover_client = ProverClient::connect(addr)?;
                    let mut observations = Vec::new();
                    // Slow-loris victims stay open (half a frame in flight)
                    // until this client's work is done.
                    let mut held: Vec<TcpStream> = Vec::new();
                    for slot in (client..job.scale).step_by(job.clients) {
                        let pause = arrival_pause(job.arrival, job.interval_us, slot, job.scale);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        let evidence = &traffic[slot].evidence;
                        if job.slot_is_faulted(slot) {
                            match job.fault {
                                FaultClass::DropConnection => {
                                    let mut raw = TcpStream::connect(addr)?;
                                    raw.write_all(&(evidence.len() as u32).to_le_bytes())?;
                                    raw.write_all(&evidence[..evidence.len() / 2])?;
                                    drop(raw);
                                    continue;
                                }
                                FaultClass::SlowLoris => {
                                    let mut raw = TcpStream::connect(addr)?;
                                    raw.write_all(&(evidence.len() as u32).to_le_bytes())?;
                                    raw.write_all(&evidence[..evidence.len() / 2])?;
                                    held.push(raw);
                                    continue;
                                }
                                FaultClass::DuplicateFrame => {
                                    for _ in 0..2 {
                                        let (_, verdict) =
                                            prover_client.submit_evidence(evidence)?;
                                        observations.push(Observation {
                                            code: verdict.reason_code,
                                            latency_us: None,
                                        });
                                    }
                                    continue;
                                }
                                FaultClass::OversizedPrefix => {
                                    let mut raw = TcpStream::connect(addr)?;
                                    raw.write_all(&u32::MAX.to_le_bytes())?;
                                    let reply = lofat_net::frame::read_frame(&mut raw, 1 << 20)?
                                        .ok_or(NetError::Closed)?;
                                    observations.push(Observation {
                                        code: decode_code(&reply, job.index, slot)?,
                                        latency_us: None,
                                    });
                                    // Fall through: the real evidence follows
                                    // on the healthy connection.
                                }
                                FaultClass::None => unreachable!("slot_is_faulted excludes None"),
                            }
                        }
                        let started = Instant::now();
                        let (_, verdict) = prover_client.submit_evidence(evidence)?;
                        observations.push(Observation {
                            code: verdict.reason_code,
                            latency_us: Some(started.elapsed().as_micros() as u64),
                        });
                    }
                    drop(held);
                    Ok(observations)
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("fleet client thread panicked")?);
        }
        Ok(all)
    })
}

/// Slots whose evidence is re-submitted in phase 2: replay-class slots that
/// actually submitted in phase 1 (drop/slow-loris victims never did).
fn phase2_slots(job: &Job, traffic: &[TrafficSlot]) -> Vec<usize> {
    (0..job.scale)
        .filter(|&slot| {
            traffic[slot].replay
                && !(job.slot_is_faulted(slot)
                    && matches!(job.fault, FaultClass::DropConnection | FaultClass::SlowLoris))
        })
        .collect()
}

/// The `fraction` percentile (0.0..=1.0) of an ascending-sorted sample by
/// the rounded nearest-rank rule: the element at rank
/// `round((len − 1) · fraction)`, or `T::default()` for an empty sample.
/// The fleet executor's latency report ranks its samples through it; rttbench,
/// a workspace of its own, keeps its own copy.
pub fn percentile<T: Copy + Default>(sorted: &[T], fraction: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() - 1) as f64 * fraction).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn collect_outcome(
    job: &Job,
    transport: Transport,
    observations: Vec<Observation>,
    service: &VerifierService,
) -> ScenarioOutcome {
    collect_outcome_from_books(
        job,
        transport,
        observations,
        service.stats(),
        service.live_sessions(),
    )
}

/// [`collect_outcome`] with the service books supplied directly — the front
/// transport sums the per-partition snapshots first.
fn collect_outcome_from_books(
    job: &Job,
    transport: Transport,
    observations: Vec<Observation>,
    stats: ServiceStats,
    live: usize,
) -> ScenarioOutcome {
    let mut verdicts: BTreeMap<u16, u64> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    for observation in &observations {
        *verdicts.entry(observation.code).or_insert(0) += 1;
        if let Some(us) = observation.latency_us {
            latencies.push(us);
        }
    }
    latencies.sort_unstable();
    let conserved = stats.is_conserved(live);
    ScenarioOutcome {
        job: job.clone(),
        transport,
        verdict_total: verdicts.values().sum(),
        accepted_verdicts: verdicts.get(&code::ACCEPTED).copied().unwrap_or(0),
        p50_latency_us: percentile(&latencies, 0.50),
        p99_latency_us: percentile(&latencies, 0.99),
        verdicts,
        stats,
        live,
        conserved,
    }
}

/// Runs one job over the in-process pool.
fn run_pool_job(job: &Job, section: &SectionContext) -> Result<ScenarioOutcome, ExecError> {
    let (service, workers) = fresh_service(section, job.clients);
    // Open every session up front, in slot order: ids and nonces line up with
    // the pre-generated traffic, and the challenges must match byte for byte.
    for (slot, traffic_slot) in section.traffic.iter().enumerate() {
        let id = service.open_session(traffic_slot.input.clone())?;
        let challenge = service.challenge_envelope(id)?.encode().map_err(ExecError::Wire)?;
        if challenge != traffic_slot.challenge {
            return Err(ExecError::ChallengeMismatch { job: job.index, slot });
        }
    }
    let pool = ParallelVerifier::spawn(Arc::clone(&service), PoolConfig::with_workers(workers));
    let mut observations = pool_phase1(job, &section.traffic, &pool)?;
    // Phase 2: replay-class slots re-submit their (now decided) evidence.
    for slot in phase2_slots(job, &section.traffic) {
        let reply = pool.verify(section.traffic[slot].evidence.clone());
        let bytes = reply.reply.map_err(ExecError::Service)?;
        observations
            .push(Observation { code: decode_code(&bytes, job.index, slot)?, latency_us: None });
    }
    pool.join();
    Ok(collect_outcome(job, Transport::Pool, observations, &service))
}

/// Runs one job against a live loopback [`EventLoopServer`].
fn run_socket_job(job: &Job, section: &SectionContext) -> Result<ScenarioOutcome, ExecError> {
    let (service, workers) = fresh_service(section, job.clients);
    let config = ServerConfig {
        max_connections: job.clients + job.scale + 8,
        limits: NetLimits::server()
            .with_read_timeout(Some(Duration::from_secs(5)))
            .with_write_timeout(Some(Duration::from_secs(5))),
        pool: PoolConfig::with_workers(workers),
        ..ServerConfig::default()
    };
    let server = EventLoopServer::bind("127.0.0.1:0", Arc::clone(&service), config)?;
    let addr = server.local_addr();
    let outcome = (|| -> Result<ScenarioOutcome, ExecError> {
        // One opener requests every challenge in slot order, so session ids
        // and nonces line up with the pre-generated traffic.
        let mut opener = ProverClient::connect(addr)?;
        for (slot, traffic_slot) in section.traffic.iter().enumerate() {
            let (envelope, bytes) =
                opener.request_challenge(&job.workload, traffic_slot.input.clone())?;
            if envelope.session != SessionId(slot as u64 + 1) || bytes != traffic_slot.challenge {
                return Err(ExecError::ChallengeMismatch { job: job.index, slot });
            }
        }
        let mut observations = socket_phase1(job, &section.traffic, addr)?;
        for slot in phase2_slots(job, &section.traffic) {
            let (_, verdict) = opener.submit_evidence(&section.traffic[slot].evidence)?;
            observations.push(Observation { code: verdict.reason_code, latency_us: None });
        }
        drop(opener);
        Ok(collect_outcome(job, Transport::Epoll, observations, &service))
    })();
    server.shutdown();
    outcome
}

/// How many `lofat serve`-shaped backend processes the front transport
/// simulates.  Each backend serves one partition of the session/nonce space;
/// two is the smallest count that exercises cross-partition routing.
const FRONT_PARTITIONS: u64 = 2;

/// Runs one job through a [`FanOutFront`] over `FRONT_PARTITIONS` partitioned
/// servers — the multi-process deployment shape, in-process.
///
/// The front round-robins session requests, each backend issues ids on its
/// own stripes (`partition + shard·P + issued·stripes`), and a single
/// sequential opener therefore sees the same dense id sequence — and the same
/// challenge bytes — as every other transport.  The outcome's books are the
/// **sum** of the per-partition snapshots ([`ServiceStats::absorb`]); the
/// differential in [`run`]'s callers then proves the deployment is
/// stats-conserving and verdict-identical to one service.
fn run_front_job(job: &Job, section: &SectionContext) -> Result<ScenarioOutcome, ExecError> {
    let workers = job.clients.clamp(1, 8);
    let mut services = Vec::new();
    let mut servers = Vec::new();
    let mut backends = Vec::new();
    for partition in 0..FRONT_PARTITIONS {
        let config = ServiceConfig::sharded(2).partitioned(partition, FRONT_PARTITIONS);
        let service = Arc::new(VerifierService::new(
            section.db.clone(),
            section.key.verification_key(),
            config,
        ));
        let server_config = ServerConfig {
            max_connections: job.clients + job.scale + 8,
            limits: NetLimits::server()
                .with_read_timeout(Some(Duration::from_secs(5)))
                .with_write_timeout(Some(Duration::from_secs(5))),
            pool: PoolConfig::with_workers(workers),
            ..ServerConfig::default()
        };
        let server = EventLoopServer::bind("127.0.0.1:0", Arc::clone(&service), server_config)?;
        backends.push(server.local_addr());
        services.push(service);
        servers.push(server);
    }
    let front_config = ServerConfig {
        max_connections: job.clients + job.scale + 8,
        limits: NetLimits::server()
            .with_read_timeout(Some(Duration::from_secs(5)))
            .with_write_timeout(Some(Duration::from_secs(5))),
        ..ServerConfig::default()
    };
    let front = FanOutFront::bind("127.0.0.1:0", backends, front_config)?;
    let addr = front.local_addr();
    let outcome = (|| -> Result<ScenarioOutcome, ExecError> {
        let mut opener = ProverClient::connect(addr)?;
        for (slot, traffic_slot) in section.traffic.iter().enumerate() {
            let (envelope, bytes) =
                opener.request_challenge(&job.workload, traffic_slot.input.clone())?;
            if envelope.session != SessionId(slot as u64 + 1) || bytes != traffic_slot.challenge {
                return Err(ExecError::ChallengeMismatch { job: job.index, slot });
            }
        }
        let mut observations = socket_phase1(job, &section.traffic, addr)?;
        for slot in phase2_slots(job, &section.traffic) {
            let (_, verdict) = opener.submit_evidence(&section.traffic[slot].evidence)?;
            observations.push(Observation { code: verdict.reason_code, latency_us: None });
        }
        drop(opener);
        let mut stats = ServiceStats::default();
        let mut live = 0usize;
        for service in &services {
            stats.absorb(&service.stats());
            live += service.live_sessions();
        }
        Ok(collect_outcome_from_books(job, Transport::Front, observations, stats, live))
    })();
    front.shutdown();
    for server in servers {
        server.shutdown();
    }
    outcome
}

/// Expands `spec` and executes every job over the transports `options`
/// enables, pool first.
///
/// # Errors
///
/// Propagates enumeration, generation, transport and determinism failures;
/// the report is all-or-nothing.
pub fn run(spec: &FleetSpec, options: ExecOptions) -> Result<FleetReport, ExecError> {
    let mut spec = spec.clone();
    if let Some(scale) = options.scale_override {
        for section in &mut spec.sections {
            section.scale = scale.max(1);
        }
    }
    let jobs = enumerate(&spec)?;
    let mut outcomes = Vec::new();
    let mut sections: BTreeMap<usize, SectionContext> = BTreeMap::new();
    for job in &jobs {
        if let std::collections::btree_map::Entry::Vacant(e) = sections.entry(job.section) {
            e.insert(prepare_section(&spec.name, job)?);
        }
        let section = &sections[&job.section];
        if options.pool {
            outcomes.push(run_pool_job(job, section)?);
        }
        if options.epoll {
            outcomes.push(run_socket_job(job, section)?);
        }
        if options.front {
            outcomes.push(run_front_job(job, section)?);
        }
    }
    Ok(FleetReport { spec_name: spec.name.clone(), outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_pauses_are_monotone_for_ramp() {
        let early = arrival_pause(Arrival::Ramp, 100, 0, 8);
        let late = arrival_pause(Arrival::Ramp, 100, 7, 8);
        assert!(early > late, "ramp starts slow and speeds up");
        assert_eq!(arrival_pause(Arrival::Burst, 100, 3, 8), Duration::ZERO);
        assert_eq!(arrival_pause(Arrival::Uniform, 100, 3, 8), Duration::from_micros(100));
    }

    #[test]
    fn percentiles_index_sorted_samples() {
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile(&[7u64], 0.99), 7);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&samples, 0.50), 51, "rank rounds to nearest");
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        // The same ranks over `Duration`s.
        let latencies: Vec<Duration> =
            samples.iter().map(|&us| Duration::from_micros(us)).collect();
        assert_eq!(percentile(&latencies, 0.50), Duration::from_micros(51));
        assert_eq!(percentile::<Duration>(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn a_tiny_fleet_runs_identically_on_every_transport() {
        let spec = FleetSpec::parse(
            "fleet unit\nscale = 4\n[workload fig4-loop]\nadversaries = honest, forge\nfaults = none, duplicate-frame\n",
        )
        .unwrap();
        let report = run(&spec, ExecOptions::default()).expect("runs");
        assert_eq!(report.outcomes.len(), 6, "2 jobs × 3 transports");
        for group in report.outcomes.chunks(3) {
            let pool = &group[0];
            assert_eq!(pool.transport, Transport::Pool);
            assert_eq!(group[1].transport, Transport::Epoll);
            assert_eq!(group[2].transport, Transport::Front);
            for other in &group[1..] {
                let label = format!("{} vs {}", pool.job.label(), other.transport.name());
                assert_eq!(pool.verdicts, other.verdicts, "{label}");
                assert!(other.conserved, "{label}");
                assert_eq!(pool.stats.accepted, other.stats.accepted, "{label}");
                assert_eq!(pool.live, other.live, "{label}");
            }
            assert!(pool.conserved);
        }
        let first = &report.outcomes[0];
        assert_eq!(first.accepted_verdicts, 2, "two honest slots of four");
        assert_eq!(first.verdicts.get(&code::BAD_SIGNATURE), Some(&2));
    }
}
