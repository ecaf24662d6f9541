//! In-process, single-threaded replays after a pass.
//!
//! * The **verifier replay** rebuilds the service's twin — same database,
//!   key and configuration (without the live-session bound, which only
//!   refuses) — and opens sessions in id order, so it issues the same nonces
//!   the live service did.  It then feeds every frame the live service judged
//!   through `handle_bytes_batch` in pool-drain-sized bursts, in the order
//!   the verdicts arrived, and requires every verdict byte for byte.  The
//!   same frames time the layers under the service one call at a time.
//! * The **prover replay** runs the pass's inputs through the CPU model, the
//!   engine and the signer one layer at a time.

use crate::record::{verdict_digest, Judged, PassLog};
use crate::setup::service_config;
use crate::workload::{self, load_input, Plan, Premeasured, DEVICE_KEY_SEED, MAX_CYCLES};
use lofat::wire::{Envelope, Message, SessionId};
use lofat::{
    AttestationReport, EngineConfig, LofatEngine, MeasurementDatabase, PoolConfig, Prover,
    ProverSession, ServiceConfig, VerifierService,
};
use lofat_crypto::sign::HmacVerifier;
use lofat_crypto::{DeviceKey, HmacSigner, Nonce, SignatureVerifier, Signer};
use lofat_rv32::Cpu;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Judged frames (in recording order) the traced run times one layer at a
/// time; the untraced run times none.
pub const LAYER_REPLAY_FRAMES: usize = 4096;

/// Per-call times of the verifier-side layers, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifierReplay {
    /// `open_session` plus the challenge encode, per session.
    pub open_us: f64,
    /// `handle_bytes_batch` per envelope.
    pub verify_us: f64,
    /// `Envelope::decode` per evidence frame.
    pub decode_us: f64,
    /// `HmacVerifier::verify` per evidence frame.
    pub mac_verify_us: f64,
    /// `MeasurementDatabase::check` per evidence frame.
    pub check_us: f64,
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Rebuilds a judged frame from its template and checks it is the one sent.
fn rebuild(pre: &Premeasured, judged: &Judged) -> Result<Vec<u8>, String> {
    let (template, forged) = pre.template(judged.source);
    let signature = template.sign(&judged.nonce);
    let frame = template.frame(SessionId(judged.session), judged.nonce, signature, forged)?;
    if !judged.matches(&frame) {
        return Err(format!(
            "replay: the rebuilt frame for session {} differs from the one sent",
            judged.session
        ));
    }
    Ok(frame)
}

/// Replays `log` against a fresh twin of the service and checks that it
/// reproduces every verdict the live service sent.
///
/// # Errors
///
/// Fails when a replayed verdict differs from the live one, or when the
/// twin refuses to open a session.
pub fn verifier(
    db: &MeasurementDatabase,
    plan: &Plan,
    pre: &Premeasured,
    log: &PassLog,
) -> Result<VerifierReplay, String> {
    let key = DeviceKey::from_seed(DEVICE_KEY_SEED).verification_key();
    let twin = VerifierService::new(
        db.clone(),
        key.clone(),
        ServiceConfig { max_live_sessions: usize::MAX, ..service_config() },
    );
    let inputs: HashMap<u64, usize> =
        log.judged.iter().map(|j| (j.session, pre.input_of(j.source))).collect();
    let mut next_id = 1u64;
    let mut open_us = 0.0;
    // Sessions no judged frame addressed (refused for a full connection, or
    // never answered) are opened on an arbitrary input: nothing the service
    // judged depends on it.
    let mut open_through = |id: u64, open_us: &mut f64| -> Result<(), String> {
        while next_id <= id {
            let input = plan.inputs[inputs.get(&next_id).copied().unwrap_or(0)].clone();
            let t = Instant::now();
            let opened = twin.open_session(input).map_err(|e| format!("replay open: {e}"))?;
            let challenge =
                twin.challenge_envelope(opened).map_err(|e| format!("replay challenge: {e}"))?;
            black_box(challenge.encode().map_err(|e| format!("replay challenge: {e}"))?);
            *open_us += micros(t);
            if opened.0 != next_id {
                return Err(format!(
                    "replay opened {opened} where the live service opened {next_id}"
                ));
            }
            next_id += 1;
        }
        Ok(())
    };

    let mut order: Vec<usize> = (0..log.judged.len()).collect();
    order.sort_by_key(|&i| log.judged[i].at);
    let burst = PoolConfig::default().drain_burst;
    let mut verify_us = 0.0;
    for chunk in order.chunks(burst) {
        let max_id = chunk.iter().map(|&i| log.judged[i].session).max().unwrap_or(0);
        open_through(max_id, &mut open_us)?;
        let frames =
            chunk.iter().map(|&i| rebuild(pre, &log.judged[i])).collect::<Result<Vec<_>, _>>()?;
        let t = Instant::now();
        let replies = twin.handle_bytes_batch(&frames);
        verify_us += micros(t);
        for (&i, reply) in chunk.iter().zip(replies) {
            let reply = reply.map_err(|e| format!("replay verdict encode: {e}"))?;
            if verdict_digest(&reply) != log.judged[i].verdict {
                return Err(format!(
                    "replayed verdict for session {} differs from the one sent over the wire",
                    log.judged[i].session
                ));
            }
        }
    }

    let mac = HmacVerifier::new(key);
    let (mut decode_us, mut mac_us, mut check_us) = (0.0, 0.0, 0.0);
    let timed = if log.tracer.enabled() { log.judged.len().min(LAYER_REPLAY_FRAMES) } else { 0 };
    for judged in &log.judged[..timed] {
        let frame = rebuild(pre, judged)?;
        let t = Instant::now();
        let envelope = Envelope::decode(black_box(&frame)).map_err(|e| e.to_string())?;
        decode_us += micros(t);
        let Message::Evidence(evidence) = &envelope.message else {
            return Err("replay: a judged frame is not evidence".into());
        };
        let report = &evidence.report;
        let payload = report.payload();
        let t = Instant::now();
        let _ = black_box(mac.verify(&payload, &report.signature));
        mac_us += micros(t);
        let input = &plan.inputs[inputs.get(&judged.session).copied().unwrap_or(0)];
        let t = Instant::now();
        let _ = black_box(db.check(input, report));
        check_us += micros(t);
    }
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    Ok(VerifierReplay {
        open_us: per(open_us, (next_id - 1) as usize),
        verify_us: per(verify_us, log.judged.len()),
        decode_us: per(decode_us, timed),
        mac_verify_us: per(mac_us, timed),
        check_us: per(check_us, timed),
    })
}

/// Per-session times of the prover-side layers, in microseconds, weighted by
/// how often the pass used each input.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProverReplay {
    /// `ProverSession::respond` to a challenge for the input.
    pub respond_us: f64,
    /// `Cpu::run` without tracing.
    pub run_us: f64,
    /// `Cpu::run_traced` with a `LofatEngine` attached.
    pub traced_us: f64,
    /// `LofatEngine::finalize`.
    pub finalize_us: f64,
    /// `HmacSigner::sign` over the signed payload.
    pub sign_us: f64,
}

/// Most distinct inputs the prover replay runs (the most used first).
pub const PROVER_REPLAY_INPUTS: usize = 512;
/// Repetitions per replayed input.
pub const PROVER_REPLAY_REPS: usize = 3;

/// Replays the inputs `weights` names (input index → sessions that used it).
///
/// # Errors
///
/// Propagates execution, engine and signing failures.
pub fn prover(plan: &Plan, weights: &HashMap<usize, u64>) -> Result<ProverReplay, String> {
    let mut inputs: Vec<(usize, u64)> = weights.iter().map(|(&i, &n)| (i, n)).collect();
    inputs.sort_by_key(|&(i, n)| (std::cmp::Reverse(n), i));
    inputs.truncate(PROVER_REPLAY_INPUTS);
    let total: u64 = inputs.iter().map(|&(_, n)| n).sum();
    let key = DeviceKey::from_seed(DEVICE_KEY_SEED);
    let mut signer = HmacSigner::new(key.clone());
    let mut prover = Prover::new(plan.program.clone(), plan.program_id(), key);
    let mut sums = ProverReplay::default();
    for &(index, count) in &inputs {
        let input = &plan.inputs[index];
        let weight = count as f64 / (total as f64 * PROVER_REPLAY_REPS as f64);
        let challenge = workload::placeholder_challenge(plan.program_id(), input);
        for _ in 0..PROVER_REPLAY_REPS {
            let t = Instant::now();
            black_box(
                ProverSession::new(&mut prover).respond(&challenge).map_err(|e| e.to_string())?,
            );
            sums.respond_us += weight * micros(t);

            let mut cpu = Cpu::new(&plan.program).map_err(|e| e.to_string())?;
            load_input(&plan.program, &mut cpu, input)?;
            let t = Instant::now();
            black_box(cpu.run(MAX_CYCLES).map_err(|e| e.to_string())?);
            sums.run_us += weight * micros(t);

            let mut engine = LofatEngine::for_program(&plan.program, EngineConfig::default())
                .map_err(|e| e.to_string())?;
            let mut cpu = Cpu::new(&plan.program).map_err(|e| e.to_string())?;
            load_input(&plan.program, &mut cpu, input)?;
            let t = Instant::now();
            black_box(cpu.run_traced(MAX_CYCLES, &mut engine).map_err(|e| e.to_string())?);
            sums.traced_us += weight * micros(t);

            let t = Instant::now();
            let measurement = engine.finalize().map_err(|e| e.to_string())?;
            sums.finalize_us += weight * micros(t);

            let payload = AttestationReport::signed_bytes(
                plan.program_id(),
                &measurement.authenticator,
                &measurement.metadata,
                &Nonce::from_counter(1),
            );
            let t = Instant::now();
            black_box(signer.sign(&payload).map_err(|e| e.to_string())?);
            sums.sign_us += weight * micros(t);
        }
    }
    Ok(sums)
}
