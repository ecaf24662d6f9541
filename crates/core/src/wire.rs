//! Versioned wire format for the attestation protocol.
//!
//! The Fig. 2 round trip is a message exchange: the verifier sends a challenge
//! `(id_S, i, N)`, the prover answers with its signed report, and (in the
//! service deployment) the verifier answers back with a verdict.  This module
//! gives those messages an explicit, transport-agnostic representation:
//!
//! * [`ChallengeMsg`] / [`EvidenceMsg`] / [`VerdictMsg`] — the three message
//!   bodies, unified under [`Message`];
//! * [`Envelope`] — a message addressed to a protocol session, carrying the
//!   wire-format version;
//! * [`Envelope::encode`] / [`Envelope::decode`] — the compact deterministic
//!   byte codec (magic, version, session id, length-prefixed body; the body is
//!   the vendored-serde encoding of the [`Message`]).
//!
//! Nothing here performs I/O: encode produces bytes for *some* transport and
//! decode consumes bytes from one (sans-I/O).  The state machines that consume
//! and produce these messages live in [`crate::session`]; the multi-session
//! front-end lives in [`crate::service`].
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "LFAT"
//! 4       2     version (little-endian u16, currently 5)
//! 6       8     session id (little-endian u64)
//! 14      4     body length (little-endian u32)
//! 18      n     body: serde encoding of `Message`
//! ```

use crate::report::AttestationReport;
use lofat_crypto::Nonce;
use std::fmt;

/// Magic bytes opening every envelope.
pub const WIRE_MAGIC: [u8; 4] = *b"LFAT";

/// The wire-format version this build speaks, and the only one it reads.
/// Version 2 carries the loop metadata `L` packed
/// ([`PackedMetadata`](crate::metadata::PackedMetadata)) instead of field by
/// field at fixed width.  Version 3 stores identical consecutive loop
/// records of `L` once, as a run, and signs the report's own wire encoding
/// up to the nonce ([`AttestationReport::payload`]) instead of `L`'s
/// fixed-width layout.  Version 4 writes a loop record's entry and exit only
/// when they differ from the stored record's before it, its targets only
/// when it has any, and no path's index of first occurrence.  Version 5
/// writes its nesting depth and its path ids (with their count) only when
/// they differ from the stored record's before it too (the
/// [version-5 grammar](crate::metadata#packed-l-version-5)).
pub const WIRE_VERSION: u16 = 5;

/// Size of the fixed envelope header in bytes.
pub const HEADER_BYTES: usize = 18;

/// Stable numeric verdict codes carried in [`VerdictMsg::reason_code`].
///
/// Codes `1..=6` mirror [`crate::verifier::RejectionReason`] (see
/// [`RejectionReason::code`](crate::verifier::RejectionReason::code)): each is
/// one check of the judge ([`crate::judge`]), which decides evidence the same
/// way for [`crate::verifier::Verifier::verify`] and
/// [`crate::service::VerifierService`].  Codes 1–3 refuse evidence without
/// spending its session; 4–6 spend it.  Codes from [`code::UNKNOWN_SESSION`]
/// up describe session- and service-level failures that occur before report
/// verification.  The values are part of the wire contract: they never change
/// meaning across versions, new codes only get new numbers.
pub mod code {
    /// The report was accepted.
    pub const ACCEPTED: u16 = 0;
    /// [`RejectionReason::ProgramIdMismatch`](crate::verifier::RejectionReason::ProgramIdMismatch):
    /// the judge's check 1 (program id); refuses, the session stays open.
    pub const PROGRAM_ID_MISMATCH: u16 = 1;
    /// [`RejectionReason::NonceMismatch`](crate::verifier::RejectionReason::NonceMismatch):
    /// the judge's check 2 (nonce binding); refuses, the session stays open.
    pub const NONCE_MISMATCH: u16 = 2;
    /// [`RejectionReason::BadSignature`](crate::verifier::RejectionReason::BadSignature):
    /// the judge's check 3 (signature); refuses, the session stays open.
    pub const BAD_SIGNATURE: u16 = 3;
    /// [`RejectionReason::InvalidLoopPath`](crate::verifier::RejectionReason::InvalidLoopPath):
    /// the judge's check 4 (loop-path plausibility, §5.1 Fig. 4); spends the session.
    pub const INVALID_LOOP_PATH: u16 = 4;
    /// [`RejectionReason::AuthenticatorMismatch`](crate::verifier::RejectionReason::AuthenticatorMismatch):
    /// the judge's check 5 (reference authenticator); spends the session.
    pub const AUTHENTICATOR_MISMATCH: u16 = 5;
    /// [`RejectionReason::MetadataMismatch`](crate::verifier::RejectionReason::MetadataMismatch):
    /// the judge's check 5 (reference metadata); spends the session.
    pub const METADATA_MISMATCH: u16 = 6;
    /// The envelope names a session the service does not know (never opened,
    /// or already swept after expiry).
    pub const UNKNOWN_SESSION: u16 = 64;
    /// The session already reached a verdict; the submission was a replay.
    pub const SESSION_DECIDED: u16 = 65;
    /// The session's deadline passed before the evidence arrived.
    pub const SESSION_EXPIRED: u16 = 66;
    /// The evidence echoes a nonce that was already consumed by another
    /// session (cross-session replay).
    pub const NONCE_REPLAYED: u16 = 67;
    /// The envelope carried a message kind the session cannot accept.
    pub const UNEXPECTED_MESSAGE: u16 = 68;
    /// The service has no reference measurement for the session's input.
    pub const UNKNOWN_INPUT: u16 = 69;
    /// The envelope could not be decoded at all.
    pub const MALFORMED: u16 = 70;
    /// The envelope speaks a wire-format version this build does not.
    pub const UNSUPPORTED_VERSION: u16 = 71;
    /// The verifier itself failed (e.g. a golden-replay execution error) —
    /// an infrastructure fault, not a statement about the evidence.
    pub const INTERNAL_ERROR: u16 = 72;
    /// A session request was refused because the service is at its
    /// live-session limit (try again later; nothing about the prover is
    /// judged).
    pub const AT_CAPACITY: u16 = 73;
}

/// Identifier of one protocol session, unique per [`crate::service::VerifierService`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// A prover's request to open an attestation session for one program input.
///
/// This is the first message a *remote* prover sends when it connects to a
/// verifier over a transport (see the `lofat-net` crate): in-process embedders
/// call [`crate::service::VerifierService::open_session`] directly instead.
/// The verifier answers with either a [`ChallengeMsg`] (the session is open)
/// or a refusing [`VerdictMsg`] ([`code::PROGRAM_ID_MISMATCH`],
/// [`code::UNKNOWN_INPUT`] or [`code::AT_CAPACITY`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionRequestMsg {
    /// The program the prover wants to attest (`id_S`).
    pub program_id: String,
    /// The program input the prover will run under.
    pub input: Vec<u32>,
}

/// The challenge `(id_S, i, N)` sent from verifier to prover, plus the
/// session deadline so the prover knows how long its answer stays valid.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChallengeMsg {
    /// Identifier of the program to attest (`id_S`).
    pub program_id: String,
    /// Program input `i`.
    pub input: Vec<u32>,
    /// Freshness nonce `N`.
    pub nonce: Nonce,
    /// Cycle deadline (on the verifier's clock) after which evidence is
    /// rejected as expired; `u64::MAX` means no deadline.
    pub deadline_cycles: u64,
}

/// The prover's answer: the signed attestation report `(P, R)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvidenceMsg {
    /// The signed report covering `A ‖ L ‖ N`.
    pub report: AttestationReport,
}

/// The verifier's final answer for one session.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VerdictMsg {
    /// Whether the evidence was accepted.
    pub accepted: bool,
    /// Stable numeric code ([`code`]); [`code::ACCEPTED`] iff `accepted`.
    pub reason_code: u16,
    /// Human-readable detail (empty on acceptance).
    pub detail: String,
    /// The expected program result (`a0`) when the service knows it.
    pub expected_result: Option<u32>,
}

impl VerdictMsg {
    /// An accepting verdict.
    pub fn accepted(expected_result: Option<u32>) -> Self {
        Self { accepted: true, reason_code: code::ACCEPTED, detail: String::new(), expected_result }
    }

    /// A rejecting verdict with a stable `reason_code` and human detail.
    pub fn rejected(reason_code: u16, detail: impl Into<String>) -> Self {
        Self { accepted: false, reason_code, detail: detail.into(), expected_result: None }
    }
}

/// One protocol message, as carried in an [`Envelope`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum Message {
    /// Verifier → prover: attest this input under this nonce.
    Challenge(ChallengeMsg),
    /// Prover → verifier: the signed report.
    Evidence(EvidenceMsg),
    /// Verifier → prover/operator: the decision.
    Verdict(VerdictMsg),
    /// Prover → verifier: open a session for this program and input.
    ///
    /// Appended in wire revision 1 of version 1: the variant index extends the
    /// enum, so envelopes carrying the three original kinds are byte-identical
    /// to those of earlier builds, and earlier builds reject this kind as a
    /// malformed body rather than misparsing it.
    SessionRequest(SessionRequestMsg),
}

impl Message {
    /// Short human-readable kind name, used in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Challenge(_) => "challenge",
            Message::Evidence(_) => "evidence",
            Message::Verdict(_) => "verdict",
            Message::SessionRequest(_) => "session-request",
        }
    }
}

/// A [`Message`] addressed to a session, with the wire-format version.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Envelope {
    /// Wire-format version ([`WIRE_VERSION`] for envelopes built by this code).
    pub version: u16,
    /// The session this message belongs to.
    pub session: SessionId,
    /// The message body.
    pub message: Message,
}

impl Envelope {
    /// Wraps `message` for `session` under the current [`WIRE_VERSION`].
    pub fn new(session: SessionId, message: Message) -> Self {
        Self { version: WIRE_VERSION, session, message }
    }

    /// Encodes the envelope to its deterministic byte representation.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Body`] if the body cannot be encoded (a contained
    /// collection overflowed the length prefix) and [`WireError::Oversized`]
    /// if the body exceeds the `u32` length field.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let body = serde::to_bytes(&self.message).map_err(WireError::Body)?;
        let body_len =
            u32::try_from(body.len()).map_err(|_| WireError::Oversized { len: body.len() })?;
        let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.session.0.to_le_bytes());
        out.extend_from_slice(&body_len.to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Decodes an envelope, rejecting bad magic, unsupported versions,
    /// truncated input and trailing bytes.  Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] describing the first problem found.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < HEADER_BYTES {
            return Err(WireError::Truncated { needed: HEADER_BYTES, have: bytes.len() });
        }
        if bytes[..4] != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: [bytes[0], bytes[1], bytes[2], bytes[3]] });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let session = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
        let body_len = u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes")) as usize;
        let body = &bytes[HEADER_BYTES..];
        if body.len() < body_len {
            return Err(WireError::Truncated {
                // Saturate: a hostile length near `u32::MAX` must not overflow
                // `usize` on 32-bit targets (decode never panics).
                needed: HEADER_BYTES.saturating_add(body_len),
                have: bytes.len(),
            });
        }
        if body.len() > body_len {
            return Err(WireError::TrailingBytes { extra: body.len() - body_len });
        }
        let message = serde::from_bytes(body).map_err(WireError::Body)?;
        Ok(Self { version, session: SessionId(session), message })
    }
}

/// Errors produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The envelope's version field is not a version this build speaks.
    UnsupportedVersion {
        /// The version found on the wire.
        found: u16,
    },
    /// The input ended before the envelope was complete.
    Truncated {
        /// Total bytes the envelope needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Bytes were left over after the declared body length.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The body exceeds the `u32` length field.
    Oversized {
        /// The offending body length.
        len: usize,
    },
    /// The body is not a valid [`Message`] encoding.
    Body(serde::Error),
}

impl WireError {
    /// The stable numeric code a service reports for this error.
    pub fn code(&self) -> u16 {
        match self {
            WireError::UnsupportedVersion { .. } => code::UNSUPPORTED_VERSION,
            _ => code::MALFORMED,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad envelope magic {found:02x?}")
            }
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found} (this build speaks {WIRE_VERSION})")
            }
            WireError::Truncated { needed, have } => {
                write!(f, "truncated envelope: need {needed} bytes, have {have}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the envelope body")
            }
            WireError::Oversized { len } => {
                write!(f, "envelope body of {len} bytes exceeds the u32 length field")
            }
            WireError::Body(e) => write!(f, "malformed envelope body: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Body(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots: the durable-state document.
// ---------------------------------------------------------------------------

/// Magic bytes opening every snapshot document.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"LFSN";

/// The snapshot-format version this build writes, and the only one it reads:
/// [`SnapshotMsg::decode`] refuses a document of any other version with
/// [`SnapshotError::UnsupportedVersion`] before parsing its body.  A change to
/// the body's encoding takes a new number.  Version 2 appended the
/// measurement database's valid-path table, version 3 stores each
/// reference's metadata packed, as the wire does, version 4 keeps one
/// watermark per shard and no live session, version 5 stores that
/// metadata run-length, as wire version 3 does, version 6 drops the
/// verdict cache's capacity from the configuration and its evictions from
/// the books, version 7 stores that metadata in the grammar of wire version
/// 4, and version 8 in that of wire version 5; an older document is
/// refused, so a service never restarts from one with fresh nonce counters.
pub const SNAPSHOT_VERSION: u16 = 8;

/// Size of the fixed snapshot header in bytes: magic (4) + version (2) +
/// body length (4) + SHA3-256 body digest (32).
pub const SNAPSHOT_HEADER_BYTES: usize = 42;

/// The state a [`VerifierService`](crate::service::VerifierService) resumes
/// from after a crash: configuration, clock, shard cursor, per-shard nonce
/// watermarks, the statistics books and the measurement database.
///
/// It holds no session.  The writer counts every session that was live at
/// the write as expired, so the books balance with zero live sessions, and
/// a restore puts no session back: every counter below its shard's
/// watermark reads as spent, and evidence for it draws
/// [`code::NONCE_REPLAYED`].
///
/// The verification key is deliberately **absent** — it is provided again at
/// restore time, so a snapshot document never carries key material.
///
/// ```text
/// offset  size  field
/// 0       4     magic  "LFSN"
/// 4       2     version (little-endian u16, currently 6)
/// 6       4     body length (little-endian u32)
/// 10      32    SHA3-256 digest of the body
/// 42      n     body: serde encoding of `SnapshotMsg`
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotMsg {
    /// The attested program (must match the embedded database).
    pub program_id: String,
    /// The service configuration, including the partition coordinates.
    pub config: crate::service::ServiceConfig,
    /// The service clock at snapshot time; restore resumes from here.
    pub now_cycles: u64,
    /// The round-robin shard cursor.
    pub next_open: u64,
    /// The statistics books at snapshot time, with the sessions live at the
    /// write counted as expired.
    pub stats: crate::service::ServiceStats,
    /// Sessions each shard has issued, in shard order — **rounded up** by
    /// the writer's reserve margin, never down, so counters handed out after
    /// the snapshot was taken read as spent (not fresh) after a
    /// crash-restore.
    pub watermarks: Vec<u64>,
    /// The reference measurement database.
    pub db: crate::measurement_db::MeasurementDatabase,
}

impl SnapshotMsg {
    /// Decodes a snapshot document, refusing bad magic, unknown versions,
    /// truncation, trailing bytes and any body whose digest does not match.
    /// Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] describing the first problem found.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAPSHOT_HEADER_BYTES {
            return Err(SnapshotError::Truncated {
                needed: SNAPSHOT_HEADER_BYTES,
                have: bytes.len(),
            });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                found: [bytes[0], bytes[1], bytes[2], bytes[3]],
            });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let body_len = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
        let stored_digest = &bytes[10..SNAPSHOT_HEADER_BYTES];
        let body = &bytes[SNAPSHOT_HEADER_BYTES..];
        if body.len() < body_len {
            return Err(SnapshotError::Truncated {
                // Saturate: a hostile length near `u32::MAX` must not overflow
                // `usize` on 32-bit targets (decode never panics).
                needed: SNAPSHOT_HEADER_BYTES.saturating_add(body_len),
                have: bytes.len(),
            });
        }
        if body.len() > body_len {
            return Err(SnapshotError::TrailingBytes { extra: body.len() - body_len });
        }
        let digest = lofat_crypto::Sha3_256::digest(body);
        if digest.as_bytes() != stored_digest {
            return Err(SnapshotError::DigestMismatch);
        }
        serde::from_bytes(body).map_err(SnapshotError::Codec)
    }
}

/// A [`SnapshotMsg`] that borrows its fields, so that a live service can
/// encode a snapshot without first copying its measurement database.  It
/// encodes exactly as the `SnapshotMsg` holding the same values.
pub(crate) struct SnapshotRef<'a> {
    pub(crate) program_id: &'a str,
    pub(crate) config: &'a crate::service::ServiceConfig,
    pub(crate) now_cycles: u64,
    pub(crate) next_open: u64,
    pub(crate) stats: &'a crate::service::ServiceStats,
    pub(crate) watermarks: &'a [u64],
    pub(crate) db: &'a crate::measurement_db::MeasurementDatabase,
}

impl serde::Serialize for SnapshotRef<'_> {
    fn serialize(&self, serializer: &mut serde::Serializer) -> Result<(), serde::Error> {
        // `SnapshotMsg`'s field order; the watermarks as a `Vec` encodes them.
        self.program_id.serialize(serializer)?;
        self.config.serialize(serializer)?;
        self.now_cycles.serialize(serializer)?;
        self.next_open.serialize(serializer)?;
        self.stats.serialize(serializer)?;
        serializer.write_len(self.watermarks.len())?;
        for watermark in self.watermarks {
            watermark.serialize(serializer)?;
        }
        self.db.serialize(serializer)
    }
}

impl SnapshotRef<'_> {
    /// The snapshot document, written into one buffer: the body goes behind
    /// a reserved header, whose length and digest are filled in last.  The
    /// digest makes bit rot (and tampering by anything weaker than a
    /// second-preimage attack on SHA3-256) detectable before the body is
    /// parsed at all.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Codec`] if the body cannot be encoded and
    /// [`SnapshotError::Oversized`] if it exceeds the `u32` length field.
    pub(crate) fn encode(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut serializer = serde::Serializer::new();
        serializer.write_bytes(&[0; SNAPSHOT_HEADER_BYTES]);
        serde::Serialize::serialize(self, &mut serializer).map_err(SnapshotError::Codec)?;
        let mut out = serializer.into_bytes();
        let (header, body) = out.split_at_mut(SNAPSHOT_HEADER_BYTES);
        let body_len =
            u32::try_from(body.len()).map_err(|_| SnapshotError::Oversized { len: body.len() })?;
        header[..4].copy_from_slice(&SNAPSHOT_MAGIC);
        header[4..6].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header[6..10].copy_from_slice(&body_len.to_le_bytes());
        header[10..].copy_from_slice(lofat_crypto::Sha3_256::digest(body).as_bytes());
        Ok(out)
    }
}

/// Errors produced by the snapshot codec and the restore path.
///
/// Unlike [`WireError`] this carries [`std::io::Error`] (for the file
/// helpers on [`VerifierService`](crate::service::VerifierService)), so it
/// is not `Clone`/`PartialEq`.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The document's version field is not a version this build reads.
    UnsupportedVersion {
        /// The version found in the document.
        found: u16,
    },
    /// The input ended before the document was complete.
    Truncated {
        /// Total bytes the document needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Bytes were left over after the declared body length.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The body exceeds the `u32` length field.
    Oversized {
        /// The offending body length.
        len: usize,
    },
    /// The body's SHA3-256 digest does not match the header — the document
    /// was corrupted (or tampered with) after it was written.
    DigestMismatch,
    /// The body is not a valid [`SnapshotMsg`] encoding.
    Codec(serde::Error),
    /// The document decoded but describes an inconsistent service (a
    /// database for another program, a partition index out of range, a
    /// watermark list that does not match the shard count).  Restore refuses
    /// rather than guessing.
    Invalid {
        /// What the validation found.
        reason: String,
    },
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:02x?}")
            }
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated { needed, have } => {
                write!(f, "truncated snapshot: need {needed} bytes, have {have}")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the snapshot body")
            }
            SnapshotError::Oversized { len } => {
                write!(f, "snapshot body of {len} bytes exceeds the u32 length field")
            }
            SnapshotError::DigestMismatch => {
                write!(f, "snapshot body digest mismatch (corrupted or tampered document)")
            }
            SnapshotError::Codec(e) => write!(f, "malformed snapshot body: {e}"),
            SnapshotError::Invalid { reason } => write!(f, "inconsistent snapshot: {reason}"),
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Codec(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn challenge_envelope() -> Envelope {
        Envelope::new(
            SessionId(7),
            Message::Challenge(ChallengeMsg {
                program_id: "fig4-loop".into(),
                input: vec![6, 2],
                nonce: Nonce::from_counter(99),
                deadline_cycles: 10_000,
            }),
        )
    }

    #[test]
    fn envelope_round_trips() {
        let envelope = challenge_envelope();
        let bytes = envelope.encode().unwrap();
        assert_eq!(Envelope::decode(&bytes).unwrap(), envelope);
    }

    #[test]
    fn verdict_round_trips() {
        let envelope = Envelope::new(
            SessionId(3),
            Message::Verdict(VerdictMsg::rejected(code::NONCE_MISMATCH, "stale")),
        );
        let bytes = envelope.encode().unwrap();
        let decoded = Envelope::decode(&bytes).unwrap();
        assert_eq!(decoded, envelope);
        let Message::Verdict(v) = decoded.message else { panic!("wrong kind") };
        assert!(!v.accepted);
        assert_eq!(v.reason_code, code::NONCE_MISMATCH);
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let bytes = challenge_envelope().encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(Envelope::decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = challenge_envelope().encode().unwrap();
        bytes[0] = b'X';
        assert!(matches!(Envelope::decode(&bytes), Err(WireError::BadMagic { .. })));

        let mut bytes = challenge_envelope().encode().unwrap();
        bytes[4] = 0xff;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::UnsupportedVersion { found }) if found != WIRE_VERSION
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = challenge_envelope().encode().unwrap();
        bytes.push(0);
        assert_eq!(Envelope::decode(&bytes), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn message_kinds_are_named() {
        assert_eq!(challenge_envelope().message.kind(), "challenge");
        assert_eq!(Message::Verdict(VerdictMsg::accepted(None)).kind(), "verdict");
    }

    #[test]
    fn session_request_round_trips() {
        let envelope = Envelope::new(
            SessionId(0),
            Message::SessionRequest(SessionRequestMsg {
                program_id: "fig4-loop".into(),
                input: vec![4],
            }),
        );
        let bytes = envelope.encode().unwrap();
        let decoded = Envelope::decode(&bytes).unwrap();
        assert_eq!(decoded, envelope);
        assert_eq!(decoded.message.kind(), "session-request");
    }

    #[test]
    fn session_request_variant_does_not_shift_existing_encodings() {
        // The new variant is appended, so the original kinds keep their
        // discriminants: a challenge body still opens with variant index 0.
        let bytes = challenge_envelope().encode().unwrap();
        assert_eq!(&bytes[HEADER_BYTES..HEADER_BYTES + 4], &0u32.to_le_bytes());
        let verdict = Envelope::new(SessionId(1), Message::Verdict(VerdictMsg::accepted(None)))
            .encode()
            .unwrap();
        assert_eq!(&verdict[HEADER_BYTES..HEADER_BYTES + 4], &2u32.to_le_bytes());
        // ...and the new variant itself sits at index 3, which transports may
        // peek (without a full decode) to route session requests.
        let request = Envelope::new(
            SessionId(0),
            Message::SessionRequest(SessionRequestMsg { program_id: "p".into(), input: vec![] }),
        )
        .encode()
        .unwrap();
        assert_eq!(&request[HEADER_BYTES..HEADER_BYTES + 4], &3u32.to_le_bytes());
    }
}
