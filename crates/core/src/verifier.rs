//! The verifier `V` (Fig. 2).
//!
//! The verifier holds the program binary, its statically derived CFG and loop
//! structure, and the verification key.  [`Verifier::new`] enumerates, once, the
//! valid path encodings of every loop it can (innermost, call-free loops).
//!
//! Verification is a **golden replay** feeding the judge ([`crate::judge`]):
//! because the verifier knows the program, the challenge input and LO-FAT's
//! deterministic measurement rules, it recomputes the expected authenticator `A`
//! and metadata `L` by replaying the program on its own trusted simulator.  The
//! judge then checks, in order, the program id, the nonce binding, the signature
//! over `A ‖ L ‖ N`, the static plausibility of every reported loop path ("other
//! path encodings are considered invalid and detected by V", §5.1, Fig. 4) and the
//! replayed measurement.  This is how the verifier "checks whether the reported
//! path resembles a valid path of the CFG under input i".  The replay runs only
//! once the signature verified.

use crate::config::EngineConfig;
use crate::engine::{LofatEngine, Measurement};
use crate::error::LofatError;
use crate::judge::{self, Judgement};
use crate::measurement_db::PackedReference;
use crate::prover::load_input;
use crate::report::AttestationReport;
use lofat_cfg::paths::enumerate_loop_paths;
use lofat_cfg::{Cfg, LoopNest};
use lofat_crypto::sign::HmacVerifier;
use lofat_crypto::{Nonce, VerificationKey};
use lofat_rv32::{Cpu, ExitInfo, Program};
use std::collections::BTreeMap;
use std::fmt;

/// Maximum number of paths enumerated per loop for the static plausibility check.
const PATH_ENUMERATION_LIMIT: usize = 4096;

/// Why a report was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectionReason {
    /// The report names a different program than the challenge.
    ProgramIdMismatch {
        /// Program id expected by the verifier.
        expected: String,
        /// Program id found in the report.
        found: String,
    },
    /// The echoed nonce does not match the challenge (replay / stale report).
    NonceMismatch,
    /// The signature over `A ‖ L ‖ N` did not verify.
    BadSignature,
    /// A loop path encoding is not a valid path of the loop's body in the CFG.
    InvalidLoopPath {
        /// Loop entry address the record refers to.
        loop_entry: u32,
        /// The offending path ID.
        path_id: u32,
    },
    /// The authenticator differs from the expected value for the challenge input
    /// (the executed path deviated from the expected control flow).
    AuthenticatorMismatch,
    /// The loop metadata differs from the expected value (e.g. manipulated loop
    /// counters or unexpected loop paths).
    MetadataMismatch,
}

impl RejectionReason {
    /// The stable numeric code carried in [`crate::wire::VerdictMsg::reason_code`].
    ///
    /// Codes are part of the wire contract (see [`crate::wire::code`]): they
    /// never change meaning, and new reasons get new numbers.
    pub fn code(&self) -> u16 {
        match self {
            RejectionReason::ProgramIdMismatch { .. } => crate::wire::code::PROGRAM_ID_MISMATCH,
            RejectionReason::NonceMismatch => crate::wire::code::NONCE_MISMATCH,
            RejectionReason::BadSignature => crate::wire::code::BAD_SIGNATURE,
            RejectionReason::InvalidLoopPath { .. } => crate::wire::code::INVALID_LOOP_PATH,
            RejectionReason::AuthenticatorMismatch => crate::wire::code::AUTHENTICATOR_MISMATCH,
            RejectionReason::MetadataMismatch => crate::wire::code::METADATA_MISMATCH,
        }
    }
}

impl fmt::Display for RejectionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectionReason::ProgramIdMismatch { expected, found } => {
                write!(f, "program id mismatch: expected `{expected}`, report names `{found}`")
            }
            RejectionReason::NonceMismatch => write!(f, "nonce does not match the challenge"),
            RejectionReason::BadSignature => write!(f, "signature verification failed"),
            RejectionReason::InvalidLoopPath { loop_entry, path_id } => write!(
                f,
                "loop at {loop_entry:#010x} reports path id {path_id:#b} which is not a valid CFG path"
            ),
            RejectionReason::AuthenticatorMismatch => {
                write!(f, "authenticator does not match the expected control flow")
            }
            RejectionReason::MetadataMismatch => {
                write!(f, "loop metadata does not match the expected control flow")
            }
        }
    }
}

/// A successful verification.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Exit information of the verifier's golden replay.
    pub replay_exit: ExitInfo,
    /// The expected measurement the report was compared against.
    pub expected: Measurement,
}

/// An attestation challenge (`id_S`, `i`, `N`), as sent from `V` to `P`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Challenge {
    /// Identifier of the program to attest.
    pub program_id: String,
    /// Program input `i`.
    pub input: Vec<u32>,
    /// Freshness nonce `N`.
    pub nonce: Nonce,
}

/// The verifier.
#[derive(Debug, Clone)]
pub struct Verifier {
    program: Program,
    program_id: String,
    key: HmacVerifier,
    config: EngineConfig,
    max_cycles: u64,
    /// Valid path-ID sets for loops amenable to static enumeration, keyed by the
    /// loop entry (header) address.
    valid_paths: BTreeMap<u32, Vec<u32>>,
    nonce_counter: u64,
}

impl Verifier {
    /// Creates a verifier for `program`, performing the one-time offline CFG and
    /// loop-structure analysis.
    ///
    /// # Errors
    ///
    /// Fails if the program cannot be analysed.
    pub fn new(
        program: Program,
        program_id: impl Into<String>,
        key: VerificationKey,
    ) -> Result<Self, LofatError> {
        let cfg = Cfg::from_program(&program)?;
        let loops = cfg.natural_loops();
        let valid_paths = Self::enumerate_valid_paths(&cfg, &loops);
        Ok(Self {
            program,
            program_id: program_id.into(),
            key: HmacVerifier::new(key),
            config: EngineConfig::default(),
            max_cycles: crate::prover::DEFAULT_MAX_CYCLES,
            valid_paths,
            nonce_counter: 0,
        })
    }

    /// Replaces the engine configuration used for golden replay (must match the
    /// prover's configuration).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the replay cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The program identifier this verifier attests.
    pub fn program_id(&self) -> &str {
        &self.program_id
    }

    /// The statically enumerated valid path IDs per loop entry address.
    pub fn valid_loop_paths(&self) -> &BTreeMap<u32, Vec<u32>> {
        &self.valid_paths
    }

    /// Issues a fresh challenge for input `i`.
    pub fn challenge(&mut self, input: Vec<u32>) -> Challenge {
        self.nonce_counter += 1;
        Challenge {
            program_id: self.program_id.clone(),
            input,
            nonce: Nonce::from_counter(self.nonce_counter),
        }
    }

    /// Opens a sans-I/O protocol session for `input`: issues a fresh challenge
    /// (consuming the next nonce, exactly like [`Verifier::challenge`]) and
    /// wraps it in a [`crate::session::VerifierSession`] with the given expiry
    /// deadline on the caller's cycle clock (`u64::MAX` disables expiry).
    ///
    /// Judging the session's evidence still happens through this verifier —
    /// pass `&self` to
    /// [`VerifierSession::process_evidence`](crate::session::VerifierSession::process_evidence).
    pub fn begin_session(
        &mut self,
        id: crate::wire::SessionId,
        input: Vec<u32>,
        deadline_cycles: u64,
    ) -> crate::session::VerifierSession {
        let challenge = self.challenge(input);
        crate::session::VerifierSession::new(id, challenge, deadline_cycles)
    }

    /// Verifies `report` against `challenge`: [`Verifier::judge`] without the
    /// spend rule.
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::Rejected`] with the specific [`RejectionReason`] when
    /// the report must be rejected, or other variants when the verifier itself fails
    /// (e.g. the golden replay cannot be executed).
    pub fn verify(
        &self,
        report: &AttestationReport,
        challenge: &Challenge,
    ) -> Result<Verdict, LofatError> {
        self.judge(report, challenge)?.into_result().map_err(LofatError::Rejected)
    }

    /// Judges `report` against `challenge` ([`crate::judge`]), replaying the
    /// challenge input for the expected measurement once the signature
    /// verified.
    ///
    /// # Errors
    ///
    /// Fails when the verifier itself fails (e.g. the golden replay cannot be
    /// executed); a rejection is a [`Judgement`], not an error.
    pub fn judge(
        &self,
        report: &AttestationReport,
        challenge: &Challenge,
    ) -> Result<Judgement<Verdict>, LofatError> {
        let bound = match judge::bind(report, &challenge.program_id, &challenge.nonce) {
            Ok(bound) => bound,
            Err(refused) => return Ok(refused),
        };
        let mut mac = self.key.mac_base().clone();
        mac.update(report.payload());
        bound.conclude(&mac.finalize(), || {
            let (expected, replay_exit) = self.expected_measurement(&challenge.input)?;
            let reference = PackedReference::new(
                &expected.authenticator,
                &expected.metadata,
                replay_exit.register_a0,
            );
            judge::measurement(report, &self.valid_paths, &reference)
                .map_err(LofatError::Rejected)?;
            Ok(Verdict { replay_exit, expected })
        })
    }

    /// Computes the expected measurement for `input` by golden replay.
    ///
    /// # Errors
    ///
    /// Fails if the replay execution faults or exceeds the cycle budget.
    pub fn expected_measurement(
        &self,
        input: &[u32],
    ) -> Result<(Measurement, ExitInfo), LofatError> {
        self.replay(self.config, input)
    }

    /// Golden replay of `input` under `config`, which need not be this
    /// verifier's own (a [`crate::MeasurementDatabase`] records the
    /// configuration it was built for).
    pub(crate) fn replay(
        &self,
        config: EngineConfig,
        input: &[u32],
    ) -> Result<(Measurement, ExitInfo), LofatError> {
        let mut engine = LofatEngine::for_program(&self.program, config)?;
        let mut cpu = Cpu::new(&self.program)?;
        load_input(&self.program, &mut cpu, input)?;
        let exit = cpu.run_traced(self.max_cycles, &mut engine)?;
        Ok((engine.finalize()?, exit))
    }

    /// Enumerates the valid path-ID sets of loops amenable to static enumeration:
    /// innermost natural loops whose bodies are free of calls and indirect jumps.
    fn enumerate_valid_paths(cfg: &Cfg, loops: &LoopNest) -> BTreeMap<u32, Vec<u32>> {
        let mut valid = BTreeMap::new();
        for (index, info) in loops.iter().enumerate() {
            let is_innermost = !loops.iter().enumerate().any(|(other_index, other)| {
                other_index != index
                    && other.body.is_subset(&info.body)
                    && other.body.len() < info.body.len()
            });
            if !is_innermost {
                continue;
            }
            let Ok(enumeration) = enumerate_loop_paths(cfg, info, PATH_ENUMERATION_LIMIT) else {
                continue;
            };
            if enumeration.paths.is_empty() {
                continue;
            }
            let entry_addr = cfg.block(info.header).start;
            valid.insert(entry_addr, enumeration.path_ids());
        }
        valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::PathRecord;
    use crate::prover::Prover;
    use lofat_crypto::DeviceKey;
    use lofat_rv32::asm::assemble;

    const PROGRAM: &str = r#"
        .data
        input:
            .space 64
        input_len:
            .word 0
        .text
        main:
            la   t0, input
            la   t1, input_len
            lw   t1, 0(t1)
            li   a0, 0
            beqz t1, done
        loop:
            lw   t2, 0(t0)
            add  a0, a0, t2
            addi t0, t0, 4
            addi t1, t1, -1
            bnez t1, loop
        done:
            ecall
    "#;

    fn setup() -> (Prover, Verifier) {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("device");
        let prover = Prover::new(program.clone(), "sum", key.clone());
        let verifier = Verifier::new(program, "sum", key.verification_key()).unwrap();
        (prover, verifier)
    }

    #[test]
    fn honest_report_is_accepted() {
        let (mut prover, mut verifier) = setup();
        let challenge = verifier.challenge(vec![2, 4, 6]);
        let run = prover.attest(&challenge.input, challenge.nonce).unwrap();
        let verdict = verifier.verify(&run.report, &challenge).unwrap();
        assert_eq!(verdict.replay_exit.register_a0, 12);
        assert_eq!(verdict.expected.authenticator, run.report.authenticator);
    }

    #[test]
    fn stale_nonce_is_rejected() {
        let (mut prover, mut verifier) = setup();
        let challenge = verifier.challenge(vec![1]);
        let run = prover.attest(&challenge.input, challenge.nonce).unwrap();
        let newer = verifier.challenge(vec![1]);
        let err = verifier.verify(&run.report, &newer).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(RejectionReason::NonceMismatch)));
    }

    #[test]
    fn forged_signature_is_rejected() {
        let (_prover, mut verifier) = setup();
        let program = assemble(PROGRAM).unwrap();
        // A prover with a *different* key cannot produce acceptable reports.
        let mut rogue = Prover::new(program, "sum", DeviceKey::from_seed("rogue"));
        let challenge = verifier.challenge(vec![1, 2]);
        let run = rogue.attest(&challenge.input, challenge.nonce).unwrap();
        let err = verifier.verify(&run.report, &challenge).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(RejectionReason::BadSignature)));
    }

    #[test]
    fn wrong_program_id_is_rejected() {
        let (mut prover, mut verifier) = setup();
        let challenge = verifier.challenge(vec![1]);
        let mut run = prover.attest(&challenge.input, challenge.nonce).unwrap();
        run.report.program_id = "other".into();
        let err = verifier.verify(&run.report, &challenge).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(RejectionReason::ProgramIdMismatch { .. })));
    }

    #[test]
    fn tampered_metadata_is_rejected() {
        let (mut prover, mut verifier) = setup();
        let challenge = verifier.challenge(vec![3, 3, 3, 3]);
        let mut run = prover.attest(&challenge.input, challenge.nonce).unwrap();
        // The (software) adversary cannot re-sign, so any tampering breaks the
        // signature check first.
        let mut metadata = run.report.metadata.decode();
        metadata.loops[0].paths[0].iterations += 1;
        run.report.metadata = metadata.pack();
        let err = verifier.verify(&run.report, &challenge).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(RejectionReason::BadSignature)));
    }

    #[test]
    fn loop_counter_manipulation_detected_by_replay() {
        let (mut prover, mut verifier) = setup();
        let challenge = verifier.challenge(vec![1, 1, 1, 1, 1, 1]);
        // The adversary shortens the loop by corrupting the in-memory length field
        // (non-control-data attack ② of Fig. 1).
        let input_len = prover.program().symbol("input_len").unwrap();
        let mut attack = |cpu: &mut lofat_rv32::Cpu, retired: u64| {
            if retired == 2 {
                cpu.memory_mut().poke_bytes(input_len, &3u32.to_le_bytes()).unwrap();
            }
        };
        let run =
            prover.attest_with_adversary(&challenge.input, challenge.nonce, &mut attack).unwrap();
        assert_eq!(run.exit.register_a0, 3);
        let err = verifier.verify(&run.report, &challenge).unwrap_err();
        assert!(matches!(
            err,
            LofatError::Rejected(
                RejectionReason::MetadataMismatch | RejectionReason::AuthenticatorMismatch
            )
        ));
    }

    #[test]
    fn invalid_loop_path_detected_statically() {
        let (mut prover, mut verifier) = setup();
        // Build a syntactically valid report whose loop path encoding is not a valid
        // CFG path; re-sign it with the correct key to isolate the static check.
        let challenge = verifier.challenge(vec![1, 2, 3]);
        let run = prover.attest(&challenge.input, challenge.nonce).unwrap();
        let mut metadata = run.report.metadata.decode();
        metadata.loops[0].paths.push(PathRecord { path_id: 0b1_1111, iterations: 1 });
        let metadata = metadata.pack();
        let payload = AttestationReport::signed_bytes(
            "sum",
            &run.report.authenticator,
            &metadata,
            &challenge.nonce,
        );
        use lofat_crypto::Signer;
        let mut signer = lofat_crypto::HmacSigner::new(DeviceKey::from_seed("device"));
        let forged = AttestationReport {
            program_id: "sum".into(),
            authenticator: run.report.authenticator.clone(),
            metadata,
            nonce: challenge.nonce,
            signature: signer.sign(&payload).unwrap(),
        };
        let err = verifier.verify(&forged, &challenge).unwrap_err();
        assert!(matches!(
            err,
            LofatError::Rejected(RejectionReason::InvalidLoopPath { path_id: 0b1_1111, .. })
        ));
    }

    #[test]
    fn verifier_precomputes_valid_paths_for_simple_loops() {
        let (_, verifier) = setup();
        assert_eq!(verifier.valid_loop_paths().len(), 1);
        let paths = verifier.valid_loop_paths().values().next().unwrap();
        assert_eq!(paths, &vec![0b11], "the sum loop has a single valid path `1`");
    }
}
