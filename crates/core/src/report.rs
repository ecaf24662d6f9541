//! The attestation report `R = sign(A ‖ L ‖ N; sk)` (Fig. 2).
//!
//! The signature covers the report's own wire encoding up to and including
//! the nonce: the program id, `A` and the packed `L` (runs and all), each
//! behind its `u32` length, then the nonce.  So the prover signs, and the
//! verifier MACs, the bytes that travel, and no side expands a run of `L` to
//! sign or check it.  The packed form is canonical, so the signature binds
//! exactly the information the report carries.

use crate::metadata::PackedMetadata;
use lofat_crypto::{Digest, Nonce, Signature};

/// The attestation report the prover returns to the verifier.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttestationReport {
    /// Identifier of the attested program (`id_S` in the protocol).
    pub program_id: String,
    /// The cumulative authenticator `A` over the executed `(Src, Dest)` pairs.
    pub authenticator: Digest,
    /// The loop auxiliary metadata `L`.
    pub metadata: PackedMetadata,
    /// The verifier's freshness nonce `N`, echoed back.
    pub nonce: Nonce,
    /// Signature over `program_id ‖ A ‖ L ‖ N` under the device key.
    pub signature: Signature,
}

impl AttestationReport {
    /// The exact byte string covered by the signature: the report's wire
    /// encoding up to and including the nonce — the program id, `A` and the
    /// packed `L`, each behind its `u32` length, then the nonce.
    pub fn signed_bytes(
        program_id: &str,
        authenticator: &Digest,
        metadata: &PackedMetadata,
        nonce: &Nonce,
    ) -> Vec<u8> {
        let mut bytes = Self::prefix_bytes(program_id, authenticator, metadata);
        bytes.extend_from_slice(nonce.as_bytes());
        bytes
    }

    /// The signed bytes up to the nonce.
    fn prefix_bytes(
        program_id: &str,
        authenticator: &Digest,
        metadata: &PackedMetadata,
    ) -> Vec<u8> {
        let fields = [program_id.as_bytes(), authenticator.as_bytes(), metadata.as_bytes()];
        let mut bytes = Vec::with_capacity(fields.iter().map(|field| 4 + field.len()).sum());
        framed_pieces(&fields, |piece| bytes.extend_from_slice(piece));
        bytes
    }

    /// The byte string covered by this report's signature.
    pub fn payload(&self) -> Vec<u8> {
        Self::signed_bytes(&self.program_id, &self.authenticator, &self.metadata, &self.nonce)
    }

    /// The signed bytes *shared* by every report with this program id,
    /// authenticator and metadata: [`AttestationReport::payload`] minus the
    /// trailing nonce.  Two honest reports for the same measurement differ
    /// only in the nonce (and therefore the signature).
    pub fn signed_prefix(&self) -> Vec<u8> {
        Self::prefix_bytes(&self.program_id, &self.authenticator, &self.metadata)
    }

    /// Hands `absorb` the bytes of [`AttestationReport::signed_prefix`] piece
    /// by piece, in order, without copying them: what the verifier MACs
    /// ahead of the nonce.
    pub(crate) fn absorb_signed_prefix(&self, absorb: impl FnMut(&[u8])) {
        let fields =
            [self.program_id.as_bytes(), self.authenticator.as_bytes(), self.metadata.as_bytes()];
        framed_pieces(&fields, absorb);
    }

    /// Size of the report on the wire, in bytes: the length of
    /// [`AttestationReport::to_wire_bytes`], computed without encoding.  The
    /// metadata travels packed ([`PackedMetadata::packed_len`]); experiment
    /// E7 sweeps the paper's fixed-width size ([`PackedMetadata::size_bytes`])
    /// instead.
    pub fn wire_size(&self) -> usize {
        // Program id, authenticator, metadata and signature each follow a
        // `u32` length; the nonce has a fixed size.
        let prefixes = 4 * std::mem::size_of::<u32>();
        prefixes
            + self.program_id.len()
            + self.authenticator.len()
            + self.metadata.packed_len()
            + self.nonce.as_bytes().len()
            + self.signature.len()
    }

    /// Serialises the report with the deterministic wire codec (the encoding
    /// used inside [`crate::wire::EvidenceMsg`] envelopes).  It begins with
    /// the signed bytes ([`AttestationReport::payload`]).
    ///
    /// # Errors
    ///
    /// Fails only if a contained collection overflows the codec's `u32`
    /// length prefix.
    pub fn to_wire_bytes(&self) -> Result<Vec<u8>, serde::Error> {
        serde::to_bytes(self)
    }

    /// Decodes a report previously encoded with
    /// [`AttestationReport::to_wire_bytes`], rejecting truncated or trailing
    /// input.
    ///
    /// # Errors
    ///
    /// Returns the decode error for malformed input.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, serde::Error> {
        serde::from_bytes(bytes)
    }
}

/// Signed fields — for the signed prefix the program id, `A` and the packed
/// `L` — each behind its `u32` length, as the wire codec encodes them, handed
/// to `piece` in order.
pub(crate) fn framed_pieces(fields: &[&[u8]], mut piece: impl FnMut(&[u8])) {
    for field in fields {
        piece(&(field.len() as u32).to_le_bytes());
        piece(field);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metadata::{LoopRecord, Metadata, PathRecord};
    use lofat_crypto::Sha3_512;

    /// Edits `report`'s metadata through its decoded view and packs it back.
    pub(crate) fn edit_metadata(report: &mut AttestationReport, edit: impl FnOnce(&mut Metadata)) {
        let mut metadata = report.metadata.decode();
        edit(&mut metadata);
        report.metadata = metadata.pack();
    }

    fn report() -> AttestationReport {
        let metadata = Metadata {
            loops: vec![LoopRecord {
                entry: 0x1000,
                exit: 0x1010,
                nesting_depth: 1,
                paths: vec![PathRecord { path_id: 3, first_occurrence: 0, iterations: 4 }],
                indirect_targets: vec![],
                encoder_overflowed: false,
            }],
        };
        AttestationReport {
            program_id: "syringe-pump".into(),
            authenticator: Sha3_512::digest(b"path"),
            metadata: metadata.pack(),
            nonce: Nonce::from_counter(7),
            signature: Signature::from_bytes(vec![0u8; 64]),
        }
    }

    #[test]
    fn payload_binds_all_fields() {
        let base = report();
        let mut other = report();
        other.program_id = "other".into();
        assert_ne!(base.payload(), other.payload());

        let mut other = report();
        other.nonce = Nonce::from_counter(8);
        assert_ne!(base.payload(), other.payload());

        let mut other = report();
        edit_metadata(&mut other, |m| m.loops[0].paths[0].iterations = 5);
        assert_ne!(base.payload(), other.payload());

        let mut other = report();
        other.authenticator = Sha3_512::digest(b"other path");
        assert_ne!(base.payload(), other.payload());

        // The same bytes split differently between neighbouring fields: each
        // field is signed behind its length.
        let mut other = report();
        let last = other.program_id.pop().unwrap();
        let moved = [&[last as u8][..], base.authenticator.as_bytes()].concat();
        other.authenticator = Digest::from_bytes(moved);
        assert_ne!(base.payload(), other.payload());
    }

    #[test]
    fn payload_is_prefix_then_nonce() {
        let r = report();
        let mut rebuilt = r.signed_prefix();
        rebuilt.extend_from_slice(r.nonce.as_bytes());
        assert_eq!(rebuilt, r.payload());
        let mut absorbed = Vec::new();
        r.absorb_signed_prefix(|piece| absorbed.extend_from_slice(piece));
        assert_eq!(absorbed, r.signed_prefix());

        let mut other = report();
        other.nonce = Nonce::from_counter(99);
        assert_eq!(r.signed_prefix(), other.signed_prefix());
    }

    /// The signed bytes are the wire encoding up to the signature, and the
    /// signature follows them behind its length.
    #[test]
    fn the_wire_encoding_is_the_payload_then_the_signature() {
        let mut r = report();
        for _ in 0..2 {
            let wire = r.to_wire_bytes().unwrap();
            let payload = r.payload();
            assert_eq!(wire[..payload.len()], payload);
            let signature = &wire[payload.len()..];
            assert_eq!(signature[..4], (r.signature.len() as u32).to_le_bytes());
            assert_eq!(signature[4..], *r.signature.as_bytes());
            assert_eq!(r.wire_size(), wire.len());
            edit_metadata(&mut r, |m| {
                m.loops[0].paths[0].iterations = u64::MAX;
                m.loops.push(m.loops[0].clone());
            });
            r.signature = Signature::from_bytes(vec![1; 200]);
        }
        assert_eq!(r.metadata.run_count(), 1, "two equal records travel as one run");
    }
}
