//! The shared session-driving core: turn an adversary class into a concrete
//! slot behaviour for a workload, and pre-generate a fleet's traffic against
//! a template service.
//!
//! Several harnesses used to carry private copies of the same loop — open a
//! session, fetch the challenge, answer it honestly / adversarially / with a
//! forged signature, keep the bytes.  This module is the single copy: the
//! fleet executor, `lofat bench-json`'s verify pass, the e14 network
//! differential suite and `lofat sessions` all generate their traffic here.
//!
//! The load-bearing trick is **nonce determinism**: a fresh
//! [`VerifierService`] issues nonces in open order, so evidence generated
//! against a throwaway template service answers *any* fresh instance whose
//! sessions are opened in the same order — including one behind a TCP server
//! or a worker pool.  That is what makes pool-vs-socket runs byte-comparable.

use crate::spec::Adversary;
use lofat::session::ProverSession;
use lofat::wire::{Envelope, EvidenceMsg, Message, WireError};
use lofat::{LofatError, Prover, ServiceError, VerifierService};
use lofat_crypto::Digest;
use lofat_rv32::Program;
use lofat_workloads::attack;
use std::fmt;

/// What one session slot does with its challenge.
pub enum SlotBehaviour {
    /// Answer honestly.
    Honest,
    /// Answer honestly, then flip one authenticator byte (breaks the
    /// signature; expected `BAD_SIGNATURE`).
    Forge,
    /// Answer honestly in phase 1; the harness re-submits the same evidence
    /// in phase 2 (expected `NONCE_REPLAYED`).
    Replay,
    /// Run the attested execution under a fault-injection hook.
    Fault(attack::Fault),
}

impl fmt::Debug for SlotBehaviour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotBehaviour::Honest => write!(f, "Honest"),
            SlotBehaviour::Forge => write!(f, "Forge"),
            SlotBehaviour::Replay => write!(f, "Replay"),
            SlotBehaviour::Fault(_) => write!(f, "Fault(..)"),
        }
    }
}

/// One slot's pre-generated traffic.
#[derive(Debug, Clone)]
pub struct TrafficSlot {
    /// The session's input vector.
    pub input: Vec<u32>,
    /// Whether the harness should re-submit this slot's evidence in a second
    /// phase (the [`Adversary::Replay`] class).
    pub replay: bool,
    /// Encoded challenge envelope, as a fresh service issues it.
    pub challenge: Vec<u8>,
    /// Encoded evidence envelope answering that challenge.
    pub evidence: Vec<u8>,
}

/// Errors from behaviour resolution and traffic generation.
#[derive(Debug)]
#[non_exhaustive]
pub enum DriveError {
    /// The adversary class targets a symbol this workload does not export.
    MissingSymbol {
        /// The class that needs the symbol.
        adversary: Adversary,
        /// The symbol the workload lacks.
        symbol: &'static str,
    },
    /// The template service refused a session or challenge.
    Service(ServiceError),
    /// Challenge or evidence bytes failed to (de)code.
    Wire(WireError),
    /// The prover failed to execute or sign.
    Prover(LofatError),
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::MissingSymbol { adversary, symbol } => {
                write!(
                    f,
                    "adversary `{}` needs symbol `{symbol}` this workload does not export",
                    adversary.name()
                )
            }
            DriveError::Service(e) => write!(f, "template service: {e}"),
            DriveError::Wire(e) => write!(f, "wire codec: {e}"),
            DriveError::Prover(e) => write!(f, "prover: {e}"),
        }
    }
}

impl std::error::Error for DriveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriveError::MissingSymbol { .. } => None,
            DriveError::Service(e) => Some(e),
            DriveError::Wire(e) => Some(e),
            DriveError::Prover(e) => Some(e),
        }
    }
}

fn require_symbol(
    program: &Program,
    adversary: Adversary,
    symbol: &'static str,
) -> Result<u32, DriveError> {
    program.symbol(symbol).ok_or(DriveError::MissingSymbol { adversary, symbol })
}

/// Resolves an adversary class to the concrete behaviour it plays against
/// `program`, binding the stock attack constructors to the workload's
/// exported symbols.
///
/// # Errors
///
/// [`DriveError::MissingSymbol`] when the class targets a symbol the workload
/// does not export (e.g. `code-pointer` needs the dispatch table).
pub fn behaviour_for(adversary: Adversary, program: &Program) -> Result<SlotBehaviour, DriveError> {
    Ok(match adversary {
        Adversary::Honest => SlotBehaviour::Honest,
        Adversary::Forge => SlotBehaviour::Forge,
        Adversary::Replay => SlotBehaviour::Replay,
        Adversary::Poke => {
            let input = require_symbol(program, adversary, "input")?;
            SlotBehaviour::Fault(attack::poke_at_instruction(2, input, 1))
        }
        Adversary::LoopCounter => {
            let input = require_symbol(program, adversary, "input")?;
            SlotBehaviour::Fault(attack::loop_counter_attack(input, 50))
        }
        Adversary::NonControlData => {
            let input = require_symbol(program, adversary, "input")?;
            SlotBehaviour::Fault(attack::non_control_data_attack(input, 9))
        }
        Adversary::CodePointer => {
            let table = require_symbol(program, adversary, "table")?;
            let target = require_symbol(program, adversary, "op_clear")?;
            SlotBehaviour::Fault(attack::code_pointer_attack(table, 0, target))
        }
        Adversary::ReturnAddress => {
            let process = require_symbol(program, adversary, "process")?;
            let privileged = require_symbol(program, adversary, "privileged")?;
            SlotBehaviour::Fault(attack::return_address_attack(process + 8, 12, privileged))
        }
        Adversary::DataOnly => {
            let output = require_symbol(program, adversary, "motor_pulses")?;
            SlotBehaviour::Fault(attack::data_only_attack(output, 9999))
        }
    })
}

/// Pre-generates traffic for a sequence of `(input, behaviour)` slots against
/// a throwaway `template` service: opens one session per slot **in order**
/// (so nonces match any fresh service driven the same way), fetches the
/// challenge and produces the evidence the behaviour dictates.
///
/// # Errors
///
/// Propagates template-service refusals, codec failures and prover execution
/// errors; nothing is half-generated.
pub fn generate_traffic(
    template: &VerifierService,
    prover: &mut Prover,
    slots: impl IntoIterator<Item = (Vec<u32>, SlotBehaviour)>,
) -> Result<Vec<TrafficSlot>, DriveError> {
    let mut traffic = Vec::new();
    for (input, behaviour) in slots {
        let id = template.open_session(input.clone()).map_err(DriveError::Service)?;
        let challenge = template
            .challenge_envelope(id)
            .map_err(DriveError::Service)?
            .encode()
            .map_err(DriveError::Wire)?;
        let mut replay = false;
        let evidence = match behaviour {
            SlotBehaviour::Honest => {
                ProverSession::new(prover).handle_bytes(&challenge).map_err(DriveError::Prover)?
            }
            SlotBehaviour::Replay => {
                replay = true;
                ProverSession::new(prover).handle_bytes(&challenge).map_err(DriveError::Prover)?
            }
            SlotBehaviour::Forge => {
                let decoded = Envelope::decode(&challenge).map_err(DriveError::Wire)?;
                let (_, run) =
                    ProverSession::new(prover).respond(&decoded).map_err(DriveError::Prover)?;
                let mut report = run.report;
                let mut bytes = report.authenticator.as_bytes().to_vec();
                bytes[0] ^= 0x01;
                report.authenticator = Digest::from_bytes(bytes);
                Envelope::new(id, Message::Evidence(EvidenceMsg { report }))
                    .encode()
                    .map_err(DriveError::Wire)?
            }
            SlotBehaviour::Fault(mut fault) => {
                let decoded = Envelope::decode(&challenge).map_err(DriveError::Wire)?;
                let (envelope, _run) = ProverSession::new(prover)
                    .respond_with_adversary(&decoded, &mut fault)
                    .map_err(DriveError::Prover)?;
                envelope.encode().map_err(DriveError::Wire)?
            }
        };
        traffic.push(TrafficSlot { input, replay, challenge, evidence });
    }
    Ok(traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat::wire::{code, SessionId, VerdictMsg};
    use lofat::{EngineConfig, MeasurementDatabase, ServiceConfig, Verifier};
    use lofat_crypto::DeviceKey;
    use lofat_workloads::catalog;

    fn harness(name: &str) -> (Program, VerifierService, VerifierService, Prover) {
        let workload = catalog::by_name(name).expect("catalogue workload");
        let program = workload.program().expect("assembles");
        let key = DeviceKey::from_seed("driver-tests");
        let verifier =
            Verifier::new(program.clone(), workload.name, key.verification_key()).expect("cfg");
        let db = MeasurementDatabase::build(
            &verifier,
            EngineConfig::default(),
            vec![workload.default_input.clone()],
        )
        .expect("reference measurements");
        let template =
            VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::default());
        let fresh = VerifierService::new(db, key.verification_key(), ServiceConfig::default());
        let prover = Prover::new(program.clone(), workload.name, key);
        (program, template, fresh, prover)
    }

    fn verdict(bytes: &[u8]) -> VerdictMsg {
        match Envelope::decode(bytes).expect("verdict decodes").message {
            Message::Verdict(v) => v,
            other => panic!("expected verdict, got {other:?}"),
        }
    }

    #[test]
    fn pregenerated_traffic_answers_a_fresh_service() {
        let (program, template, fresh, mut prover) = harness("fig4-loop");
        let input = catalog::by_name("fig4-loop").unwrap().default_input;
        let slots: Vec<(Vec<u32>, SlotBehaviour)> =
            [Adversary::Honest, Adversary::Forge, Adversary::Replay, Adversary::Poke]
                .into_iter()
                .map(|a| (input.clone(), behaviour_for(a, &program).expect("applicable")))
                .collect();
        let traffic = generate_traffic(&template, &mut prover, slots).expect("generates");
        assert_eq!(traffic.len(), 4);
        assert!(traffic[2].replay && !traffic[0].replay);

        // Open the same sessions on the fresh instance: challenges match byte
        // for byte, and the evidence produces the expected verdicts.
        for (i, slot) in traffic.iter().enumerate() {
            let id = fresh.open_session(slot.input.clone()).expect("capacity");
            assert_eq!(id, SessionId(i as u64 + 1));
            let challenge =
                fresh.challenge_envelope(id).expect("challenge").encode().expect("encode");
            assert_eq!(challenge, slot.challenge, "slot {i} challenge differs");
        }
        let codes: Vec<u16> = traffic
            .iter()
            .map(|s| verdict(&fresh.handle_bytes(&s.evidence).expect("verdict")).reason_code)
            .collect();
        assert_eq!(
            codes,
            vec![code::ACCEPTED, code::BAD_SIGNATURE, code::ACCEPTED, code::AUTHENTICATOR_MISMATCH]
        );
        // Replaying the replay slot now bounces.
        let again = verdict(&fresh.handle_bytes(&traffic[2].evidence).expect("verdict"));
        assert_eq!(again.reason_code, code::NONCE_REPLAYED);
    }

    #[test]
    fn missing_symbols_are_typed_errors() {
        let (program, ..) = harness("fig4-loop");
        match behaviour_for(Adversary::CodePointer, &program) {
            Err(DriveError::MissingSymbol { adversary: Adversary::CodePointer, symbol }) => {
                assert_eq!(symbol, "table");
            }
            other => panic!("expected MissingSymbol, got {other:?}"),
        }
        match behaviour_for(Adversary::DataOnly, &program) {
            Err(DriveError::MissingSymbol { symbol: "motor_pulses", .. }) => {}
            other => panic!("expected MissingSymbol, got {other:?}"),
        }
    }

    #[test]
    fn stock_attacks_bind_to_their_victim_workloads() {
        for (workload, adversary) in [
            ("dispatch", Adversary::CodePointer),
            ("return-victim", Adversary::ReturnAddress),
            ("syringe-pump", Adversary::DataOnly),
        ] {
            let (program, ..) = harness(workload);
            assert!(
                matches!(behaviour_for(adversary, &program), Ok(SlotBehaviour::Fault(_))),
                "{workload} should support {}",
                adversary.name()
            );
        }
    }
}
