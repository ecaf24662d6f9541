//! `ProverClient` — the prover side of the attestation protocol over TCP.
//!
//! The client is a thin transport around the sans-I/O [`ProverSession`]: it
//! moves the session's bytes over a [`TcpStream`] with the framing of
//! [`crate::frame`] and maps wire-level refusals onto typed [`NetError`]s
//! carrying the stable [`lofat::wire::code`] reason codes.  The attested
//! execution itself is exactly the in-process one — the network adds no
//! semantics, which is what `tests/e14_network.rs` proves differentially.
//!
//! The typed methods ([`ProverClient::request_challenge`],
//! [`ProverClient::submit_evidence`], [`ProverClient::attest`]) keep the
//! connection in a strict request/reply rhythm.  Code that needs to put
//! arbitrary bytes on the wire — the fuzz suites, pipelined benchmarks —
//! takes the [`RawFrameIo`] handle via [`ProverClient::raw`]; the borrow
//! makes the escape hatch explicit and keeps raw and typed traffic from
//! interleaving by accident.

use crate::error::NetError;
use crate::frame::{read_frame, write_frame};
use crate::limits::NetLimits;
use lofat::prover::{Adversary, NoAdversary, Prover};
use lofat::session::ProverSession;
use lofat::wire::{Envelope, Message, SessionId, SessionRequestMsg, VerdictMsg};
use std::net::{TcpStream, ToSocketAddrs};

/// Tunables of a [`ProverClient`].
///
/// The deadline and size knobs moved into [`ClientConfig::limits`] when
/// [`NetLimits`] unified them across server and client
/// (`config.read_timeout` → `config.limits.read_timeout`, and so on).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket deadlines and frame bound — see [`NetLimits`].  Defaults to
    /// [`NetLimits::client`] (30 s deadlines: the client waits on
    /// verification work, not just I/O).
    #[doc(alias = "read_timeout")]
    #[doc(alias = "write_timeout")]
    #[doc(alias = "max_frame_bytes")]
    pub limits: NetLimits,
}

impl ClientConfig {
    /// A config with explicit limits (`ClientConfig { limits }` spelled as a
    /// builder).
    #[must_use]
    pub fn with_limits(limits: NetLimits) -> Self {
        Self { limits }
    }
}

impl Default for ClientConfig {
    /// The client-side limits ([`NetLimits::client`]).
    fn default() -> Self {
        Self { limits: NetLimits::client() }
    }
}

/// Everything one networked attestation round trip produces on the client.
#[derive(Debug, Clone)]
pub struct NetAttestation {
    /// The session the verifier opened for this round trip.
    pub session: SessionId,
    /// The challenge envelope exactly as it arrived on the wire.
    pub challenge_bytes: Vec<u8>,
    /// The evidence envelope exactly as it was sent on the wire.
    pub evidence_bytes: Vec<u8>,
    /// The verifier's decision.
    pub verdict: VerdictMsg,
}

/// A connection to a remote [`crate::EventLoopServer`] (or a
/// [`crate::FanOutFront`] in front of several).
///
/// One client connection may run any number of sessions back to back — or
/// interleaved, when driven through [`ProverClient::raw`]; see
/// [`crate::event_loop`] for a complete round-trip example.
#[derive(Debug)]
pub struct ProverClient {
    stream: TcpStream,
    max_frame_bytes: usize,
}

impl ProverClient {
    /// Connects with the default [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit deadlines and frame bound.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the connection cannot be established.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(config.limits.read_timeout)?;
        stream.set_write_timeout(config.limits.write_timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, max_frame_bytes: config.limits.max_frame_bytes })
    }

    /// The raw-frame escape hatch: send and receive arbitrary frame payloads
    /// on this connection (the fuzz suites put hostile bytes on the wire
    /// through this; pipelined drivers send several frames before reading).
    ///
    /// While the returned handle lives, the typed methods are unborrowable —
    /// raw and typed traffic cannot interleave by accident.
    pub fn raw(&mut self) -> RawFrameIo<'_> {
        RawFrameIo { client: self }
    }

    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        write_frame(&mut self.stream, payload, self.max_frame_bytes)
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        read_frame(&mut self.stream, self.max_frame_bytes)
    }

    /// Asks the verifier to open a session for `(program_id, input)` and
    /// returns the decoded challenge envelope together with its exact wire
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Refused`] (carrying the verifier's stable reason
    /// code) when the server answers a rejecting verdict instead of a
    /// challenge, and transport errors otherwise.
    pub fn request_challenge(
        &mut self,
        program_id: &str,
        input: Vec<u32>,
    ) -> Result<(Envelope, Vec<u8>), NetError> {
        let request = Envelope::new(
            SessionId(0),
            Message::SessionRequest(SessionRequestMsg {
                program_id: program_id.to_string(),
                input,
            }),
        );
        self.send_frame(&request.encode().map_err(NetError::Wire)?)?;
        let reply = self.recv_frame()?.ok_or(NetError::Closed)?;
        let envelope = Envelope::decode(&reply).map_err(NetError::Wire)?;
        match &envelope.message {
            Message::Challenge(_) => Ok((envelope, reply)),
            Message::Verdict(verdict) => {
                Err(NetError::Refused { code: verdict.reason_code, detail: verdict.detail.clone() })
            }
            other => {
                Err(NetError::UnexpectedMessage { expected: "challenge", found: other.kind() })
            }
        }
    }

    /// Submits already-encoded evidence envelope bytes and returns the
    /// verifier's verdict (and the session it addressed).
    ///
    /// # Errors
    ///
    /// Returns transport errors, or [`NetError::UnexpectedMessage`] if the
    /// server answers something other than a verdict.
    pub fn submit_evidence(
        &mut self,
        evidence: &[u8],
    ) -> Result<(SessionId, VerdictMsg), NetError> {
        self.send_frame(evidence)?;
        let reply = self.recv_frame()?.ok_or(NetError::Closed)?;
        let envelope = Envelope::decode(&reply).map_err(NetError::Wire)?;
        match envelope.message {
            Message::Verdict(verdict) => Ok((envelope.session, verdict)),
            other => Err(NetError::UnexpectedMessage { expected: "verdict", found: other.kind() }),
        }
    }

    /// One full round trip: request a challenge for `input`, run the attested
    /// execution on `prover`, submit the evidence, return the verdict.
    ///
    /// # Errors
    ///
    /// Everything [`ProverClient::request_challenge`] and
    /// [`ProverClient::submit_evidence`] can return, plus
    /// [`NetError::Attest`] when the local attested execution fails.
    pub fn attest(
        &mut self,
        prover: &mut Prover,
        input: Vec<u32>,
    ) -> Result<NetAttestation, NetError> {
        self.attest_with_adversary(prover, input, &mut NoAdversary)
    }

    /// Like [`ProverClient::attest`], with a run-time [`Adversary`]
    /// corrupting data memory during the attested execution (the stock
    /// attack classes of `lofat-workloads` plug in here).
    ///
    /// # Errors
    ///
    /// Same as [`ProverClient::attest`].
    pub fn attest_with_adversary<A: Adversary + ?Sized>(
        &mut self,
        prover: &mut Prover,
        input: Vec<u32>,
        adversary: &mut A,
    ) -> Result<NetAttestation, NetError> {
        let (challenge, challenge_bytes) = self.request_challenge(prover.program_id(), input)?;
        let session = challenge.session;
        let (evidence, _run) = ProverSession::new(prover)
            .respond_with_adversary(&challenge, adversary)
            .map_err(|e| NetError::Attest(Box::new(e)))?;
        let evidence_bytes = evidence.encode().map_err(NetError::Wire)?;
        let (_, verdict) = self.submit_evidence(&evidence_bytes)?;
        Ok(NetAttestation { session, challenge_bytes, evidence_bytes, verdict })
    }
}

/// Raw frame I/O on a borrowed [`ProverClient`] connection — the explicit
/// escape hatch below the typed protocol (see [`ProverClient::raw`]).
#[derive(Debug)]
pub struct RawFrameIo<'a> {
    client: &'a mut ProverClient,
}

impl RawFrameIo<'_> {
    /// Sends one raw frame (any payload — hostile bytes included).
    ///
    /// # Errors
    ///
    /// Propagates framing and socket failures.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.client.send_frame(payload)
    }

    /// Receives one raw frame payload; `None` when the server closed cleanly.
    ///
    /// # Errors
    ///
    /// Propagates framing and socket failures.
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.client.recv_frame()
    }
}
