//! Bringing up the verifier the way `lofat serve` ships it, in process, and
//! timing that set-up.

use crate::workload::{Plan, DEVICE_KEY_SEED};
use lofat::{
    EngineConfig, MeasurementDatabase, PoolConfig, ServiceConfig, Verifier, VerifierService,
};
use lofat_crypto::DeviceKey;
use lofat_net::{EventLoopServer, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `lofat serve` defaults: 4 shards, a 60 M-cycle session deadline and the
/// default 1024-entry verdict cache and live-session bound.
pub fn service_config() -> ServiceConfig {
    ServiceConfig { session_deadline_cycles: 60_000_000, shards: 4, ..ServiceConfig::default() }
}

/// `lofat serve` defaults: 2 pool workers, default `NetLimits`.
pub fn server_config() -> ServerConfig {
    ServerConfig { pool: PoolConfig::with_workers(2), ..ServerConfig::default() }
}

/// Set-ups of an untraced run before its pass: at least this many...
pub const SETUP_REPS: usize = 3;
/// ...and until this much time went into them, at most [`MAX_SETUP_REPS`].
/// As many again follow the pass.  `setup_s` is the fastest of them, and
/// the longer they run the likelier one of them meets the host at full
/// speed.
pub const SETUP_SECONDS: f64 = 1.5;
/// See [`SETUP_SECONDS`].
pub const MAX_SETUP_REPS: usize = 10_000;

/// A running verifier.
pub struct Live {
    /// The event-loop server on a loopback ephemeral port.
    pub server: EventLoopServer,
    /// The service behind it (kept to read its books after shutdown).
    pub service: Arc<VerifierService>,
}

/// The verifier's measurement database over the plan's inputs.
///
/// # Errors
///
/// Propagates CFG analysis and measurement failures.
pub fn measurement_db(plan: &Plan) -> Result<MeasurementDatabase, String> {
    let key = DeviceKey::from_seed(DEVICE_KEY_SEED);
    let verifier = Verifier::new(plan.program.clone(), plan.program_id(), key.verification_key())
        .map_err(|e| format!("verifier: {e}"))?;
    MeasurementDatabase::build(&verifier, EngineConfig::default(), plan.inputs.clone())
        .map_err(|e| format!("measurement database: {e}"))
}

/// Builds the measurement database over the plan's inputs, the service and
/// the server; returns them with the time that took.
///
/// # Errors
///
/// Propagates CFG analysis, measurement and bind failures.
pub fn bring_up(plan: &Plan) -> Result<(Live, Duration), String> {
    let t0 = Instant::now();
    let db = measurement_db(plan)?;
    let key = DeviceKey::from_seed(DEVICE_KEY_SEED).verification_key();
    let service = Arc::new(VerifierService::new(db, key, service_config()));
    let server = EventLoopServer::bind("127.0.0.1:0", Arc::clone(&service), server_config())
        .map_err(|e| format!("bind: {e}"))?;
    Ok((Live { server, service }, t0.elapsed()))
}

/// Sets up [`SETUP_REPS`] times or more, until [`SETUP_SECONDS`] went into
/// it, shutting down every server but the last; returns the last one and
/// every set-up time in seconds.
///
/// # Errors
///
/// Propagates [`bring_up`] failures.
pub fn bring_up_repeatedly(plan: &Plan) -> Result<(Live, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let (live, elapsed) = bring_up(plan)?;
        times.push(elapsed.as_secs_f64());
        if times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_SECONDS
            || times.len() >= MAX_SETUP_REPS
        {
            return Ok((live, times));
        }
        live.server.shutdown();
    }
}

/// Sets up `reps` more times, shutting every server down; returns the
/// set-up times in seconds.
///
/// # Errors
///
/// Propagates [`bring_up`] failures.
pub fn set_up_again(plan: &Plan, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let (live, elapsed) = bring_up(plan)?;
            live.server.shutdown();
            Ok(elapsed.as_secs_f64())
        })
        .collect()
}
