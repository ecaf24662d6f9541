//! The judge: the one procedure that decides attestation evidence.
//!
//! Both verifiers in this crate decide a report here.
//! [`Verifier::verify`](crate::verifier::Verifier::verify) gets the expected
//! measurement by golden replay; [`VerifierService`](crate::service::VerifierService)
//! looks it up in a [`MeasurementDatabase`](crate::measurement_db::MeasurementDatabase).
//! The checks run in this order, and the first failure decides:
//!
//! 1. **program id** — the report names the challenged program;
//! 2. **nonce binding** — the report echoes the challenge nonce;
//! 3. **signature** — the MAC over `id_S ‖ A ‖ L ‖ N` verifies under the
//!    fleet key;
//! 4. **loop-path plausibility** — every path id reported for a loop whose
//!    valid paths the verifier enumerated statically is one of them: "other
//!    path encodings are considered invalid and detected by V" (§5.1, Fig. 4);
//! 5. **reference comparison** — the authenticator, then the metadata, equal
//!    the expected measurement for the challenge input.
//!
//! The judge also owns the spend rule.  Until checks 1–3 pass, anyone could
//! have sent the evidence, so a failure there leaves the session open for the
//! honest device ([`Judgement::Refused`]).  Acceptance and a failure of check
//! 4 or 5 are decisions about the device's own signed answer and spend the
//! session ([`Judgement::spends_session`]).
//!
//! The decision comes in two steps so that the service can finalize many
//! signature MACs in one multi-lane pass: `bind` runs checks 1 and 2, and
//! `Bound::conclude` runs check 3 against the finalized MAC and then checks
//! 4 and 5 (`measurement`, which
//! [`MeasurementDatabase::check`](crate::measurement_db::MeasurementDatabase::check)
//! runs too).

use crate::error::LofatError;
use crate::measurement_db::PackedReference;
use crate::metadata::{LoopHeader, PackedMetadata, PathRecord, Visit};
use crate::report::AttestationReport;
use crate::verifier::RejectionReason;
use crate::wire::VerdictMsg;
use lofat_crypto::{Digest, Nonce};
use std::collections::BTreeMap;

/// What the judge decided about one report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Judgement<T> {
    /// All five checks passed; `T` is what the reference lookup produced.
    Accepted(T),
    /// Check 1, 2 or 3 failed: the evidence is not the device's signed answer
    /// to this challenge.  The session stays open.
    Refused(RejectionReason),
    /// Check 4 or 5 failed: the device's signed answer reports a control
    /// flow the program cannot take, or did not take on the challenge input.
    /// The session is spent.
    Rejected(RejectionReason),
}

impl<T> Judgement<T> {
    /// The spend rule: acceptance and authenticated rejections spend the
    /// session; refusals do not.
    pub fn spends_session(&self) -> bool {
        !matches!(self, Judgement::Refused(_))
    }

    /// The accepted value, or the reason for the rejection.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectionReason`] of a refusal or rejection.
    pub fn into_result(self) -> Result<T, RejectionReason> {
        match self {
            Judgement::Accepted(value) => Ok(value),
            Judgement::Refused(reason) | Judgement::Rejected(reason) => Err(reason),
        }
    }

    /// The verdict for the wire.  `expected_result` reads the program result
    /// (`a0` at exit) an acceptance reports.
    pub fn verdict_msg(&self, expected_result: impl FnOnce(&T) -> u32) -> VerdictMsg {
        match self {
            Judgement::Accepted(value) => VerdictMsg::accepted(Some(expected_result(value))),
            Judgement::Refused(reason) | Judgement::Rejected(reason) => {
                VerdictMsg::rejected(reason.code(), reason.to_string())
            }
        }
    }
}

/// A report that passed checks 1 and 2; check 3 needs the MAC of its
/// payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bound<'r> {
    report: &'r AttestationReport,
}

/// Checks 1 (program id) and 2 (nonce binding) of `report` against the
/// challenged `program_id` and `nonce`.
///
/// # Errors
///
/// Returns the [`Judgement::Refused`] of the first failing check.
pub(crate) fn bind<'r, T>(
    report: &'r AttestationReport,
    program_id: &str,
    nonce: &Nonce,
) -> Result<Bound<'r>, Judgement<T>> {
    if report.program_id != program_id {
        return Err(Judgement::Refused(RejectionReason::ProgramIdMismatch {
            expected: program_id.to_string(),
            found: report.program_id.clone(),
        }));
    }
    if report.nonce != *nonce {
        return Err(Judgement::Refused(RejectionReason::NonceMismatch));
    }
    Ok(Bound { report })
}

impl<'r> Bound<'r> {
    /// The bound report.
    pub(crate) fn report(&self) -> &'r AttestationReport {
        self.report
    }

    /// Check 3, then checks 4 and 5.  `tag` is the finalized MAC of the
    /// report's [payload](AttestationReport::payload) under the fleet key;
    /// it is compared with the signature in constant time.  `measure` runs
    /// checks 4 and 5 — [`measurement`] against the expected measurement —
    /// and reports a failure as [`LofatError::Rejected`].
    ///
    /// # Errors
    ///
    /// Returns any other error `measure` returns: the verifier failed (the
    /// golden replay faulted, or the input has no reference), which decides
    /// nothing about the evidence.
    pub(crate) fn conclude<T>(
        self,
        tag: &Digest,
        measure: impl FnOnce() -> Result<T, LofatError>,
    ) -> Result<Judgement<T>, LofatError> {
        if !tag.ct_eq_bytes(self.report.signature.as_bytes()) {
            return Ok(Judgement::Refused(RejectionReason::BadSignature));
        }
        match measure() {
            Ok(value) => Ok(Judgement::Accepted(value)),
            Err(LofatError::Rejected(reason)) => Ok(Judgement::Rejected(reason)),
            Err(other) => Err(other),
        }
    }
}

/// Checks 4 (loop-path plausibility against `valid_paths`, the valid path
/// ids per statically enumerated loop entry) and 5 (comparison with
/// `reference`).  Check 4 walks the report's packed metadata, visiting each
/// stored record once however many loop executions its run stands for;
/// check 5 compares bytes, the authenticator's and then the packed
/// metadata's, with the reference record's.  Allocates nothing unless a
/// check fails.
///
/// # Errors
///
/// Returns the [`RejectionReason`] of the first failing check.
pub(crate) fn measurement(
    report: &AttestationReport,
    valid_paths: &BTreeMap<u32, Vec<u32>>,
    reference: &PackedReference,
) -> Result<(), RejectionReason> {
    if let Some(invalid) = invalid_loop_path(&report.metadata, valid_paths) {
        return Err(invalid);
    }
    if reference.authenticator() != report.authenticator.as_bytes() {
        return Err(RejectionReason::AuthenticatorMismatch);
    }
    if reference.metadata() != report.metadata.as_bytes() {
        return Err(RejectionReason::MetadataMismatch);
    }
    Ok(())
}

/// Check 4: the first loop record, in exit order, that reports a path id
/// outside its loop's valid ids, with the first such id.
fn invalid_loop_path(
    metadata: &PackedMetadata,
    valid_paths: &BTreeMap<u32, Vec<u32>>,
) -> Option<RejectionReason> {
    let mut check = PathCheck { valid_paths, current: None, invalid: None, found: None };
    metadata.visit(&mut check);
    check.found
}

/// Check 4 as a walk over packed `L`.  A loop's indirect-target count comes
/// after its paths, so the first invalid path of a loop is held until the
/// count shows the loop can be judged.
struct PathCheck<'v> {
    valid_paths: &'v BTreeMap<u32, Vec<u32>>,
    /// The current loop's entry and valid path ids, when the table lists it
    /// and its encoder did not overflow.
    current: Option<(u32, &'v [u32])>,
    /// The current loop's first path id outside its valid ids.
    invalid: Option<u32>,
    /// The first failure.
    found: Option<RejectionReason>,
}

impl Visit for PathCheck<'_> {
    fn loop_header(&mut self, header: &LoopHeader) {
        // An overflowed encoder records path id 0: its paths cannot be
        // judged here.
        self.current = if header.encoder_overflowed {
            None
        } else {
            self.valid_paths.get(&header.entry).map(|ids| (header.entry, &ids[..]))
        };
        self.invalid = None;
    }

    fn path(&mut self, path: PathRecord) {
        if let (Some((_, valid)), None) = (self.current, self.invalid) {
            if !valid.contains(&path.path_id) {
                self.invalid = Some(path.path_id);
            }
        }
    }

    fn targets(&mut self, count: usize) {
        // Indirect branches leave the statically enumerated paths: a loop
        // that took any cannot be judged here either.
        if let (Some((loop_entry, _)), Some(path_id), 0, None) =
            (self.current, self.invalid, count, &self.found)
        {
            self.found = Some(RejectionReason::InvalidLoopPath { loop_entry, path_id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{LoopRecord, Metadata};
    use crate::report::tests::edit_metadata;
    use crate::verifier::Challenge;
    use lofat_crypto::Signature;

    const ENTRY: u32 = 0x1010;

    fn challenge() -> Challenge {
        Challenge { program_id: "fig4".into(), input: vec![6], nonce: Nonce::from_counter(1) }
    }

    /// A report that passes every check against [`challenge`], [`valid`],
    /// [`reference`] and the tag [`signed`].
    fn honest() -> AttestationReport {
        let paths = vec![PathRecord { path_id: 0b1_011, iterations: 2 }];
        AttestationReport {
            program_id: "fig4".into(),
            authenticator: Digest::from_bytes(vec![0xaa; 64]),
            metadata: Metadata {
                loops: vec![LoopRecord {
                    entry: ENTRY,
                    exit: 0x1030,
                    nesting_depth: 1,
                    paths,
                    indirect_targets: Vec::new(),
                    encoder_overflowed: false,
                }],
            }
            .pack(),
            nonce: Nonce::from_counter(1),
            signature: Signature::from_bytes(vec![7; 64]),
        }
    }

    fn valid() -> BTreeMap<u32, Vec<u32>> {
        BTreeMap::from([(ENTRY, vec![0b1_011, 0b1_0011])])
    }

    fn reference() -> PackedReference {
        let report = honest();
        PackedReference::new(&report.authenticator, &report.metadata, 42)
    }

    fn signed() -> Digest {
        Digest::from_bytes(vec![7; 64])
    }

    fn judge(report: &AttestationReport, tag: &Digest) -> Judgement<u32> {
        let challenge = challenge();
        match bind(report, &challenge.program_id, &challenge.nonce) {
            Ok(bound) => bound
                .conclude(tag, || {
                    measurement(report, &valid(), &reference()).map_err(LofatError::Rejected)?;
                    Ok(42)
                })
                .expect("measuring never fails here"),
            Err(refused) => refused,
        }
    }

    #[test]
    fn the_first_failing_check_decides_and_only_the_last_two_spend() {
        let unsigned = Digest::from_bytes(vec![8; 64]);
        let mut report = honest();
        assert_eq!(judge(&report, &signed()), Judgement::Accepted(42));

        // Break the checks from the last to the first; each time the newly
        // broken, earlier check decides.
        edit_metadata(&mut report, |m| m.loops[0].exit ^= 1);
        assert_eq!(
            judge(&report, &signed()),
            Judgement::Rejected(RejectionReason::MetadataMismatch)
        );
        report.authenticator = Digest::from_bytes(vec![0xbb; 64]);
        let authenticator = Judgement::Rejected(RejectionReason::AuthenticatorMismatch);
        assert_eq!(judge(&report, &signed()), authenticator);
        edit_metadata(&mut report, |m| m.loops[0].paths[0].path_id = 0b1_111);
        let invalid = RejectionReason::InvalidLoopPath { loop_entry: ENTRY, path_id: 0b1_111 };
        assert_eq!(judge(&report, &signed()), Judgement::Rejected(invalid));
        assert_eq!(judge(&report, &unsigned), Judgement::Refused(RejectionReason::BadSignature));
        report.nonce = Nonce::from_counter(2);
        assert_eq!(judge(&report, &signed()), Judgement::Refused(RejectionReason::NonceMismatch));
        report.program_id = "other".into();
        let foreign =
            RejectionReason::ProgramIdMismatch { expected: "fig4".into(), found: "other".into() };
        assert_eq!(judge(&report, &signed()), Judgement::Refused(foreign));

        assert!(Judgement::Accepted(42).spends_session());
        assert!(authenticator.spends_session());
        assert!(!judge(&report, &signed()).spends_session());
    }

    #[test]
    fn a_bad_signature_is_refused_before_anything_is_measured() {
        let report = honest();
        let challenge = challenge();
        let bound = bind::<u32>(&report, &challenge.program_id, &challenge.nonce).expect("bound");
        let judged = bound.conclude(&Digest::from_bytes(vec![8; 64]), || -> Result<u32, _> {
            panic!("measured unauthenticated evidence")
        });
        assert_eq!(judged.unwrap(), Judgement::Refused(RejectionReason::BadSignature));
    }

    #[test]
    fn loops_the_table_cannot_judge_are_skipped() {
        let mut report = honest();
        edit_metadata(&mut report, |m| m.loops[0].paths[0].path_id = 0b1_111);
        let mut overflowed = report.clone();
        edit_metadata(&mut overflowed, |m| m.loops[0].encoder_overflowed = true);
        let mut indirect = report.clone();
        edit_metadata(&mut indirect, |m| {
            let target = crate::metadata::IndirectTargetRecord { target: 0x2000, code: 1 };
            m.loops[0].indirect_targets.push(target)
        });
        let mut unlisted = report.clone();
        edit_metadata(&mut unlisted, |m| m.loops[0].entry = 0x2020);
        for skipped in [overflowed, indirect, unlisted] {
            assert_eq!(
                measurement(&skipped, &valid(), &reference()),
                Err(RejectionReason::MetadataMismatch),
                "{:?}",
                skipped.metadata.decode().loops[0]
            );
        }
    }

    #[test]
    fn verdicts_carry_the_code_and_the_expected_result() {
        let accepted = Judgement::Accepted(42).verdict_msg(|&result| result);
        assert_eq!(accepted, VerdictMsg::accepted(Some(42)));
        let rejected = Judgement::<u32>::Refused(RejectionReason::BadSignature);
        let msg = rejected.verdict_msg(|&result| result);
        assert_eq!(msg.reason_code, crate::wire::code::BAD_SIGNATURE);
        assert_eq!(msg.detail, RejectionReason::BadSignature.to_string());
    }
}
