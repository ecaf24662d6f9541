//! `device`: one closed-loop client that connects, attests and disconnects
//! per session, the pattern of the shipped `lofat attest --connect`.

use crate::record::{Judged, PassLog, Phase, SessionRecord, Source, Status};
use crate::sys;
use crate::workload::{self, Plan, DEVICE_KEY_SEED, STREAM_SESSIONS};
use lofat::wire::{code, Envelope, Message, SessionId, VerdictMsg};
use lofat::{Prover, ProverSession};
use lofat_crypto::{DeviceKey, Nonce};
use lofat_net::{NetError, ProverClient};
use rand::Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one round trip produced.
struct RoundTrip {
    session: SessionId,
    nonce: Nonce,
    evidence: Vec<u8>,
    verdict: VerdictMsg,
    /// Attested cycles of the local run (known only when traced).
    cycles: Option<u64>,
    /// Child span indices, adopted by the session's root span.
    spans: Vec<usize>,
}

/// Runs the closed loop against `addr` for `seconds`.  A session of an
/// untraced run is one `ProverClient::attest`.  Every session of a traced
/// run makes the four calls `attest` composes itself, and the traced half
/// of them times each, so the two halves differ only by their spans.
///
/// # Errors
///
/// Fails on a wrong verdict or a prover failure.
pub fn run(
    plan: &Plan,
    addr: SocketAddr,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<PassLog, String> {
    let mut prover =
        Prover::new(plan.program.clone(), plan.program_id(), DeviceKey::from_seed(DEVICE_KEY_SEED));
    let mut rng = workload::stream(seed, STREAM_SESSIONS);
    let started = Instant::now();
    let cpu = sys::cpu_time();
    let mut log = PassLog::new(started, traced);
    let deadline = started + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let input = rng.gen_range(0..plan.inputs.len());
        let key = log.sessions.len() as u64;
        let t0 = Instant::now();
        let result = if traced {
            composed_round_trip(addr, &mut prover, plan.inputs[input].clone(), &mut log, key)
        } else {
            round_trip(addr, &mut prover, plan.inputs[input].clone())
        };
        let t1 = Instant::now();
        let mut attested_cycles = None;
        let (status, frames, bytes) = match result {
            Ok((client, trip)) => {
                drop(client);
                if trip.verdict.reason_code != code::ACCEPTED {
                    return Err(format!(
                        "device: session {} drew code {} ({}), expected acceptance",
                        trip.session, trip.verdict.reason_code, trip.verdict.detail
                    ));
                }
                let root = log.tracer.record("session", key, t0, t1);
                log.tracer.adopt(root, &trip.spans);
                attested_cycles = trip.cycles;
                let bytes = trip.evidence.len() as u64;
                let verdict = Envelope::new(trip.session, Message::Verdict(trip.verdict))
                    .encode()
                    .map_err(|e| e.to_string())?;
                log.judge(&Judged::new(
                    trip.session.0,
                    trip.nonce,
                    Source::Honest(input),
                    &trip.evidence,
                    &verdict,
                    t1,
                ))?;
                (Status::Expected, 1, bytes)
            }
            Err(NetError::Refused { code, .. }) => (Status::Refused(code), 0, 0),
            Err(NetError::Attest(e)) => return Err(format!("device: prover failed: {e}")),
            Err(_) => (Status::Transport, 0, 0),
        };
        log.record(SessionRecord {
            key,
            phase: Phase::Closed,
            input,
            status,
            start: t0,
            end: t1,
            evidence_frames: frames,
            evidence_bytes: bytes,
            attested_cycles,
        });
    }
    log.window_seconds = started.elapsed().as_secs_f64();
    log.phase_cpu = sys::cpu_time().saturating_sub(cpu);
    log.window_good = log.sessions.iter().filter(|s| s.status == Status::Expected).count() as u64;
    Ok(log)
}

/// One `ProverClient::attest` round trip; the client is handed back so the
/// disconnect stays outside the timed interval.
fn round_trip(
    addr: SocketAddr,
    prover: &mut Prover,
    input: Vec<u32>,
) -> Result<(ProverClient, RoundTrip), NetError> {
    let mut client = ProverClient::connect(addr)?;
    let attestation = client.attest(prover, input)?;
    let challenge = Envelope::decode(&attestation.challenge_bytes).map_err(NetError::Wire)?;
    let Message::Challenge(challenge) = challenge.message else {
        return Err(NetError::UnexpectedMessage {
            expected: "challenge",
            found: challenge.message.kind(),
        });
    };
    Ok((
        client,
        RoundTrip {
            session: attestation.session,
            nonce: challenge.nonce,
            evidence: attestation.evidence_bytes,
            verdict: attestation.verdict,
            cycles: None,
            spans: Vec::new(),
        },
    ))
}

/// The same round trip as the four calls `ProverClient::attest` composes,
/// each under its own span when the session is traced.
fn composed_round_trip(
    addr: SocketAddr,
    prover: &mut Prover,
    input: Vec<u32>,
    log: &mut PassLog,
    key: u64,
) -> Result<(ProverClient, RoundTrip), NetError> {
    let traced = log.tracer.traces(key);
    let clock = || traced.then(Instant::now);
    let mut spans = Vec::with_capacity(5);
    let mut timed = |name: &'static str, start: Option<Instant>, log: &mut PassLog| {
        if let Some(start) = start {
            spans.extend(log.tracer.record(name, key, start, Instant::now()));
        }
    };
    let t = clock();
    let mut client = ProverClient::connect(addr)?;
    timed("net.connect", t, log);
    let t = clock();
    let (challenge, _) = client.request_challenge(prover.program_id(), input)?;
    timed("net.challenge", t, log);
    let t = clock();
    let (evidence, run) = ProverSession::new(prover)
        .respond(&challenge)
        .map_err(|e| NetError::Attest(Box::new(e)))?;
    timed("prover.respond", t, log);
    let t = clock();
    let evidence_bytes = evidence.encode().map_err(NetError::Wire)?;
    timed("wire.encode", t, log);
    let t = clock();
    let (_, verdict) = client.submit_evidence(&evidence_bytes)?;
    timed("net.verdict", t, log);
    let Message::Challenge(challenge_msg) = &challenge.message else {
        unreachable!("request_challenge returns challenges only");
    };
    Ok((
        client,
        RoundTrip {
            session: challenge.session,
            nonce: challenge_msg.nonce,
            evidence: evidence_bytes,
            verdict,
            cycles: Some(run.exit.cycles),
            spans,
        },
    ))
}
