//! Sans-I/O protocol session state machines.
//!
//! [`VerifierSession`] and [`ProverSession`] model one Fig. 2 round trip as
//! explicit state machines that consume and produce [`crate::wire`] envelopes
//! instead of sharing Rust objects.  Neither performs I/O: callers move the
//! encoded bytes over whatever transport they have (an in-process call, a
//! socket, a radio link) and feed them back in.  This is what makes
//! concurrency, loss, replay and remote deployment representable — see
//! [`crate::service::VerifierService`] for the sharded multi-session
//! front-end (and [`crate::pool::ParallelVerifier`] for its worker pool) and
//! [`crate::protocol::run_attestation`] for the classic in-process adapter,
//! now a thin wrapper over these sessions.
//!
//! ```text
//!  VerifierSession                              ProverSession
//!  AwaitingEvidence ── challenge_envelope() ──▶ respond(…)
//!        │                                         │ Prover::attest*
//!        │ ◀───────── evidence envelope ───────────┘
//!  process_evidence(…)
//!        │
//!     Decided  (SessionOutcome: accepted / rejected + VerdictMsg)
//! ```

use crate::error::LofatError;
use crate::judge::Judgement;
use crate::prover::{Adversary, NoAdversary, Prover, ProverRun};
use crate::verifier::{Challenge, RejectionReason, Verdict, Verifier};
use crate::wire::{
    code, ChallengeMsg, Envelope, EvidenceMsg, Message, SessionId, VerdictMsg, WireError,
    WIRE_VERSION,
};
use lofat_crypto::Nonce;
use std::fmt;

/// Lifecycle of a [`VerifierSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum SessionState {
    /// The challenge is outstanding; evidence has not arrived.
    AwaitingEvidence,
    /// A verdict was reached (accepted, rejected or expired); the session is
    /// spent and further evidence is refused.
    Decided,
}

/// Session-level protocol errors: failures of the *interaction*, as opposed to
/// report rejections, which are verdicts (see [`SessionDecision::Rejected`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionError {
    /// The envelope names a different session.
    WrongSession {
        /// The session that received the envelope.
        expected: SessionId,
        /// The session the envelope was addressed to.
        found: SessionId,
    },
    /// The session already reached a verdict.
    AlreadyDecided {
        /// The spent session.
        id: SessionId,
    },
    /// The session's deadline passed before the evidence arrived.
    Expired {
        /// The expired session.
        id: SessionId,
        /// Its deadline on the verifier clock.
        deadline_cycles: u64,
        /// The clock value at submission.
        now_cycles: u64,
    },
    /// The envelope carried a message kind the state machine cannot accept.
    UnexpectedMessage {
        /// The kind the session was waiting for.
        expected: &'static str,
        /// The kind found in the envelope.
        found: &'static str,
    },
    /// A challenge named a different program than this prover attests; the
    /// prover refuses before running (the report could only be rejected).
    ProgramMismatch {
        /// The program this prover is bound to.
        expected: String,
        /// The program the challenge named.
        found: String,
    },
    /// The envelope failed wire-level validation.
    Wire(WireError),
    /// The verifier itself failed (e.g. the golden replay could not execute);
    /// this is an infrastructure failure, not a verdict on the prover.
    Verifier(Box<LofatError>),
}

impl SessionError {
    /// The stable numeric code a service reports for this error ([`code`]).
    pub fn code(&self) -> u16 {
        match self {
            SessionError::WrongSession { .. } => code::UNKNOWN_SESSION,
            SessionError::AlreadyDecided { .. } => code::SESSION_DECIDED,
            SessionError::Expired { .. } => code::SESSION_EXPIRED,
            SessionError::UnexpectedMessage { .. } => code::UNEXPECTED_MESSAGE,
            SessionError::ProgramMismatch { .. } => code::PROGRAM_ID_MISMATCH,
            SessionError::Wire(e) => e.code(),
            SessionError::Verifier(_) => code::INTERNAL_ERROR,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::WrongSession { expected, found } => {
                write!(f, "envelope for {found} delivered to {expected}")
            }
            SessionError::AlreadyDecided { id } => {
                write!(f, "{id} already reached a verdict")
            }
            SessionError::Expired { id, deadline_cycles, now_cycles } => write!(
                f,
                "{id} expired: deadline was cycle {deadline_cycles}, evidence arrived at \
                 cycle {now_cycles}"
            ),
            SessionError::UnexpectedMessage { expected, found } => {
                write!(f, "expected a {expected} message, found a {found} message")
            }
            SessionError::ProgramMismatch { expected, found } => {
                write!(f, "challenge names program `{found}` but this prover attests `{expected}`")
            }
            SessionError::Wire(e) => write!(f, "wire error: {e}"),
            SessionError::Verifier(e) => write!(f, "verifier failure: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Wire(e) => Some(e),
            SessionError::Verifier(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<WireError> for SessionError {
    fn from(e: WireError) -> Self {
        SessionError::Wire(e)
    }
}

/// The verdict of a decided session.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SessionDecision {
    /// The evidence was accepted; the verifier's [`Verdict`] is attached.
    Accepted(Verdict),
    /// The evidence was rejected for this [`RejectionReason`].
    Rejected(RejectionReason),
}

/// Everything a decided session produces: the machine-readable decision plus
/// the [`VerdictMsg`] to put on the wire.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The decision.
    pub decision: SessionDecision,
    /// The wire-format verdict message (send with
    /// [`VerifierSession::verdict_envelope`]).
    pub verdict_msg: VerdictMsg,
}

impl SessionOutcome {
    /// Returns `true` if the evidence was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self.decision, SessionDecision::Accepted(_))
    }
}

/// The verifier half of one protocol round trip (sans-I/O state machine).
///
/// A session is created around an outstanding [`Challenge`] and moves from
/// [`SessionState::AwaitingEvidence`] to [`SessionState::Decided`] exactly
/// once.  It binds the challenge nonce, enforces a per-session deadline in
/// verifier-clock cycles and refuses envelopes addressed to other sessions.
///
/// # Example
///
/// ```
/// use lofat::session::{ProverSession, VerifierSession};
/// use lofat::wire::{Envelope, SessionId};
/// use lofat::{Prover, Verifier};
/// use lofat_crypto::DeviceKey;
/// use lofat_rv32::asm::assemble;
///
/// let program = assemble(
///     ".text\nmain:\n    li t0, 3\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
/// )?;
/// let key = DeviceKey::from_seed("doc");
/// let mut prover = Prover::new(program.clone(), "demo", key.clone());
/// let mut verifier = Verifier::new(program, "demo", key.verification_key())?;
///
/// // Verifier side: open a session and emit the challenge bytes.
/// let mut session = verifier.begin_session(SessionId(1), vec![], 1_000_000);
/// let challenge_bytes = session.challenge_envelope().encode()?;
///
/// // Prover side (possibly on another machine): answer the challenge bytes.
/// let evidence_bytes = ProverSession::new(&mut prover).handle_bytes(&challenge_bytes)?;
///
/// // Verifier side: decide.
/// let outcome = session.process_evidence(&Envelope::decode(&evidence_bytes)?, &verifier, 0)?;
/// assert!(outcome.is_accepted());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VerifierSession {
    id: SessionId,
    challenge: Challenge,
    deadline_cycles: u64,
    state: SessionState,
}

impl VerifierSession {
    /// Creates a session for an outstanding `challenge`.
    ///
    /// `deadline_cycles` is the verifier-clock cycle after which evidence is
    /// rejected as expired (`u64::MAX` disables expiry).
    pub fn new(id: SessionId, challenge: Challenge, deadline_cycles: u64) -> Self {
        Self { id, challenge, deadline_cycles, state: SessionState::AwaitingEvidence }
    }

    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The outstanding challenge.
    pub fn challenge(&self) -> &Challenge {
        &self.challenge
    }

    /// The challenge nonce this session binds.
    pub fn nonce(&self) -> Nonce {
        self.challenge.nonce
    }

    /// The expiry deadline on the verifier clock.
    pub fn deadline_cycles(&self) -> u64 {
        self.deadline_cycles
    }

    /// Returns `true` once the session reached a verdict.
    pub fn is_decided(&self) -> bool {
        self.state == SessionState::Decided
    }

    /// The challenge message for the prover.
    pub fn challenge_msg(&self) -> ChallengeMsg {
        ChallengeMsg {
            program_id: self.challenge.program_id.clone(),
            input: self.challenge.input.clone(),
            nonce: self.challenge.nonce,
            deadline_cycles: self.deadline_cycles,
        }
    }

    /// The challenge message wrapped in an envelope addressed to this session.
    pub fn challenge_envelope(&self) -> Envelope {
        Envelope::new(self.id, Message::Challenge(self.challenge_msg()))
    }

    /// Wraps a verdict message in an envelope addressed to this session.
    pub fn verdict_envelope(&self, verdict: VerdictMsg) -> Envelope {
        Envelope::new(self.id, Message::Verdict(verdict))
    }

    /// Marks the session decided; a decided session refuses all further
    /// evidence.  [`VerifierSession::process_evidence`] calls it when a
    /// judgement spends the session or the deadline passed.
    pub fn settle(&mut self) {
        self.state = SessionState::Decided;
    }

    /// Consumes an evidence envelope and decides the session by judging the
    /// report with `verifier` ([`Verifier::judge`]: program id, nonce
    /// binding, signature, static loop-path plausibility and the golden
    /// replay's measurement, in that order).
    ///
    /// `now_cycles` is the current verifier-clock value used for the deadline
    /// check.  The returned [`SessionOutcome`] carries the [`VerdictMsg`] for
    /// the wire.  The session becomes [`SessionState::Decided`] exactly when
    /// the judgement spends it ([`Judgement::spends_session`]): on acceptance
    /// or a rejection established after the signature verified.  A refusal
    /// (wrong program id, wrong nonce, bad signature) leaves it open: over a
    /// real transport anyone can lob a forged envelope at a live session, and
    /// doing so must not lock the honest prover out of answering.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] when the interaction itself fails (wrong
    /// session, replay of a decided session, expiry, wrong message kind, or a
    /// verifier infrastructure failure).  Expiry also settles the session.
    pub fn process_evidence(
        &mut self,
        envelope: &Envelope,
        verifier: &Verifier,
        now_cycles: u64,
    ) -> Result<SessionOutcome, SessionError> {
        if self.state == SessionState::Decided {
            return Err(SessionError::AlreadyDecided { id: self.id });
        }
        let evidence = match check_evidence(envelope, self.id, self.deadline_cycles, now_cycles) {
            Ok(evidence) => evidence,
            Err(e) => {
                if matches!(e, SessionError::Expired { .. }) {
                    self.settle();
                }
                return Err(e);
            }
        };
        let judgement = verifier
            .judge(&evidence.report, &self.challenge)
            .map_err(|e| SessionError::Verifier(Box::new(e)))?;
        let verdict_msg = judgement.verdict_msg(|verdict| verdict.replay_exit.register_a0);
        if judgement.spends_session() {
            self.settle();
        }
        let decision = match judgement {
            Judgement::Accepted(verdict) => SessionDecision::Accepted(verdict),
            Judgement::Refused(reason) | Judgement::Rejected(reason) => {
                SessionDecision::Rejected(reason)
            }
        };
        Ok(SessionOutcome { decision, verdict_msg })
    }
}

/// The transport checks on an envelope for session `id`, due by
/// `deadline_cycles`, in order: addressing, wire version, deadline, message
/// kind.  Returns the evidence message without judging it.  Both
/// [`VerifierSession::process_evidence`] and
/// [`crate::service::VerifierService`] run them.
///
/// # Errors
///
/// Returns the [`SessionError`] describing the first violation.
pub(crate) fn check_evidence(
    envelope: &Envelope,
    id: SessionId,
    deadline_cycles: u64,
    now_cycles: u64,
) -> Result<&EvidenceMsg, SessionError> {
    if envelope.session != id {
        return Err(SessionError::WrongSession { expected: id, found: envelope.session });
    }
    if envelope.version != WIRE_VERSION {
        return Err(SessionError::Wire(WireError::UnsupportedVersion { found: envelope.version }));
    }
    if now_cycles > deadline_cycles {
        return Err(SessionError::Expired { id, deadline_cycles, now_cycles });
    }
    match &envelope.message {
        Message::Evidence(evidence) => Ok(evidence),
        other => Err(SessionError::UnexpectedMessage { expected: "evidence", found: other.kind() }),
    }
}

/// The prover half of one round trip: a sans-I/O driver around
/// [`Prover::attest`] / [`Prover::attest_with_adversary`].
///
/// Bytes in (a challenge envelope), bytes out (an evidence envelope); the
/// wrapped [`Prover`] does the attested execution in between.
#[derive(Debug)]
pub struct ProverSession<'p> {
    prover: &'p mut Prover,
}

impl<'p> ProverSession<'p> {
    /// Wraps `prover` for session-style driving.
    pub fn new(prover: &'p mut Prover) -> Self {
        Self { prover }
    }

    /// Answers a decoded challenge envelope: runs the attested execution and
    /// returns the evidence envelope together with the local [`ProverRun`]
    /// (exit info and engine statistics never leave the device).
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::Session`] if the envelope does not carry a
    /// challenge, and propagates execution/signing failures from the prover.
    pub fn respond(&mut self, envelope: &Envelope) -> Result<(Envelope, ProverRun), LofatError> {
        self.respond_with_adversary(envelope, &mut NoAdversary)
    }

    /// Like [`ProverSession::respond`], with a run-time [`Adversary`]
    /// corrupting data memory during the attested execution.
    ///
    /// # Errors
    ///
    /// Same as [`ProverSession::respond`], plus
    /// [`SessionError::ProgramMismatch`] when the challenge names a different
    /// program — the attested execution (the most expensive operation on the
    /// device) is refused up front instead of producing a doomed report.
    pub fn respond_with_adversary<A: Adversary + ?Sized>(
        &mut self,
        envelope: &Envelope,
        adversary: &mut A,
    ) -> Result<(Envelope, ProverRun), LofatError> {
        let challenge = match &envelope.message {
            Message::Challenge(challenge) => challenge,
            other => {
                return Err(LofatError::Session(SessionError::UnexpectedMessage {
                    expected: "challenge",
                    found: other.kind(),
                }));
            }
        };
        if challenge.program_id != self.prover.program_id() {
            return Err(LofatError::Session(SessionError::ProgramMismatch {
                expected: self.prover.program_id().to_string(),
                found: challenge.program_id.clone(),
            }));
        }
        let run =
            self.prover.attest_with_adversary(&challenge.input, challenge.nonce, adversary)?;
        let evidence = Envelope::new(
            envelope.session,
            Message::Evidence(EvidenceMsg { report: run.report.clone() }),
        );
        Ok((evidence, run))
    }

    /// Fully sans-I/O surface: decodes challenge bytes, attests, returns
    /// encoded evidence bytes.
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::Wire`] on codec failures plus everything
    /// [`ProverSession::respond`] can return.
    pub fn handle_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u8>, LofatError> {
        let envelope = Envelope::decode(bytes).map_err(LofatError::Wire)?;
        let (evidence, _run) = self.respond(&envelope)?;
        evidence.encode().map_err(LofatError::Wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            addi a0, a0, 2
            addi t1, t1, -1
            bnez t1, loop
        done:
            ecall
    "#;

    fn setup() -> (Prover, Verifier) {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("session-test");
        let prover = Prover::new(program.clone(), "double", key.clone());
        let verifier = Verifier::new(program, "double", key.verification_key()).unwrap();
        (prover, verifier)
    }

    fn run_round(
        session: &mut VerifierSession,
        prover: &mut Prover,
        verifier: &Verifier,
        now: u64,
    ) -> Result<SessionOutcome, SessionError> {
        let challenge_bytes = session.challenge_envelope().encode().unwrap();
        let evidence_bytes =
            ProverSession::new(prover).handle_bytes(&challenge_bytes).expect("prover answers");
        let evidence = Envelope::decode(&evidence_bytes).unwrap();
        session.process_evidence(&evidence, verifier, now)
    }

    #[test]
    fn honest_round_trip_is_accepted_over_the_wire() {
        let (mut prover, mut verifier) = setup();
        let mut session = verifier.begin_session(SessionId(1), vec![5], u64::MAX);
        let outcome = run_round(&mut session, &mut prover, &verifier, 0).unwrap();
        assert!(outcome.is_accepted());
        assert_eq!(outcome.verdict_msg.expected_result, Some(10));
        assert!(session.is_decided());
    }

    #[test]
    fn decided_sessions_refuse_further_evidence() {
        let (mut prover, mut verifier) = setup();
        let mut session = verifier.begin_session(SessionId(1), vec![2], u64::MAX);
        let challenge_bytes = session.challenge_envelope().encode().unwrap();
        let evidence_bytes =
            ProverSession::new(&mut prover).handle_bytes(&challenge_bytes).unwrap();
        let evidence = Envelope::decode(&evidence_bytes).unwrap();
        assert!(session.process_evidence(&evidence, &verifier, 0).unwrap().is_accepted());
        let replay = session.process_evidence(&evidence, &verifier, 0).unwrap_err();
        assert!(matches!(replay, SessionError::AlreadyDecided { .. }));
    }

    #[test]
    fn misaddressed_envelopes_are_refused() {
        let (mut prover, mut verifier) = setup();
        let mut session = verifier.begin_session(SessionId(1), vec![1], u64::MAX);
        let challenge_bytes = session.challenge_envelope().encode().unwrap();
        let evidence_bytes =
            ProverSession::new(&mut prover).handle_bytes(&challenge_bytes).unwrap();
        let mut evidence = Envelope::decode(&evidence_bytes).unwrap();
        evidence.session = SessionId(42);
        let err = session.process_evidence(&evidence, &verifier, 0).unwrap_err();
        assert!(matches!(
            err,
            SessionError::WrongSession { expected: SessionId(1), found: SessionId(42) }
        ));
        assert!(!session.is_decided(), "a misrouted envelope must not spend the session");
    }

    #[test]
    fn expiry_settles_the_session() {
        let (mut prover, mut verifier) = setup();
        let mut session = verifier.begin_session(SessionId(1), vec![1], 100);
        let err = run_round(&mut session, &mut prover, &verifier, 101).unwrap_err();
        assert!(matches!(err, SessionError::Expired { deadline_cycles: 100, .. }));
        assert!(session.is_decided());
    }

    #[test]
    fn challenge_messages_are_refused_as_evidence() {
        let (_, mut verifier) = setup();
        let mut session = verifier.begin_session(SessionId(1), vec![1], u64::MAX);
        let challenge = session.challenge_envelope();
        let err = session.process_evidence(&challenge, &verifier, 0).unwrap_err();
        assert!(matches!(
            err,
            SessionError::UnexpectedMessage { expected: "evidence", found: "challenge" }
        ));
    }

    #[test]
    fn unauthenticated_rejections_do_not_spend_the_session() {
        let (_, mut verifier) = setup();
        // A rogue device (different key) answers the challenge: BadSignature.
        let program = assemble(PROGRAM).unwrap();
        let mut rogue = Prover::new(program, "double", DeviceKey::from_seed("rogue"));
        let mut session = verifier.begin_session(SessionId(1), vec![3], u64::MAX);
        let challenge_bytes = session.challenge_envelope().encode().unwrap();
        let forged_bytes = ProverSession::new(&mut rogue).handle_bytes(&challenge_bytes).unwrap();
        let forged = Envelope::decode(&forged_bytes).unwrap();
        let outcome = session.process_evidence(&forged, &verifier, 0).unwrap();
        assert!(matches!(
            outcome.decision,
            SessionDecision::Rejected(RejectionReason::BadSignature)
        ));
        // The forgery must not lock out the honest prover.
        assert!(!session.is_decided());
        let (mut prover, _) = setup();
        let honest_bytes = ProverSession::new(&mut prover).handle_bytes(&challenge_bytes).unwrap();
        let honest = Envelope::decode(&honest_bytes).unwrap();
        assert!(session.process_evidence(&honest, &verifier, 0).unwrap().is_accepted());
        assert!(session.is_decided());
    }

    #[test]
    fn prover_refuses_challenges_for_other_programs() {
        let (mut prover, _) = setup();
        let envelope = Envelope::new(
            SessionId(1),
            Message::Challenge(ChallengeMsg {
                program_id: "someone-else".into(),
                input: vec![],
                nonce: Nonce::from_counter(1),
                deadline_cycles: u64::MAX,
            }),
        );
        let err = ProverSession::new(&mut prover).respond(&envelope).unwrap_err();
        assert!(matches!(err, LofatError::Session(SessionError::ProgramMismatch { .. })));
    }

    #[test]
    fn prover_session_refuses_non_challenges() {
        let (mut prover, _) = setup();
        let envelope = Envelope::new(SessionId(1), Message::Verdict(VerdictMsg::accepted(None)));
        let err = ProverSession::new(&mut prover).respond(&envelope).unwrap_err();
        assert!(matches!(err, LofatError::Session(SessionError::UnexpectedMessage { .. })));
    }
}
