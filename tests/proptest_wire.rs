//! Property tests for the versioned wire format.
//!
//! * `Envelope::encode → Envelope::decode` is the identity for arbitrary
//!   challenge/evidence/verdict messages, the evidence carrying arbitrary
//!   loop metadata (no loops, indirect targets, overflowed records, every
//!   field at its maximum);
//! * decode rejects truncated input at *every* cut point, bad magic, bumped
//!   versions and trailing bytes — always with a typed `WireError`, never a
//!   panic;
//! * arbitrary single-byte corruption never panics the decoder;
//! * the packed metadata inside evidence is read strictly: the writer's bytes
//!   are the version-5 grammar's, every accepted blob re-encodes to itself,
//!   each way a blob can be malformed (a flag that misstates its record, a
//!   non-maximal run and runs over `u32::MAX` loop executions included) has
//!   its own typed `serde::Error`, and neither a hostile count nor a run
//!   claiming `u32::MAX` loop executions makes a decoder or a service
//!   allocate in proportion to it;
//! * golden fixtures pin both byte forms of each catalogue workload's
//!   evidence at wire version 6: the signed payload, which is the report's
//!   wire encoding up to the signature and the version-5 build's byte for
//!   byte, and the encoded envelope.  The version-5 envelopes are refused by
//!   version, and their 64-byte tag, carried in a version-6 envelope, by the
//!   signature check;
//! * flipping any byte a signature covers refuses the evidence.
//!
//! Case counts honour the vendored proptest's `PROPTEST_CASES` cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

use common::{flag, leb128};
use lofat::metadata::IndirectTargetRecord;
use lofat::session::ProverSession;
use lofat::wire::{
    code, ChallengeMsg, Envelope, EvidenceMsg, Message, SessionId, VerdictMsg, HEADER_BYTES,
};
use lofat::{
    AttestationReport, EngineConfig, LoopRecord, MeasurementDatabase, Metadata, PackedMetadata,
    PathRecord, Prover, ServiceConfig, Verifier, VerifierService, WireError,
};
use lofat_crypto::sign::{HmacSigner, Signer};
use lofat_crypto::{DeviceKey, Digest, Nonce, Signature};
use lofat_workloads::catalog;
use proptest::prelude::*;

/// System allocator wrapper counting the bytes the calling thread allocates.
struct CountingAllocator;

thread_local! {
    /// Per-thread, so other test threads never land in a window.
    /// `const`-initialised with no destructor, so the allocator can touch it
    /// without allocating or registering anything.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn nonce_strategy() -> impl Strategy<Value = Nonce> {
    (any::<u64>(), any::<u64>()).prop_map(|(lo, hi)| {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&lo.to_le_bytes());
        bytes[8..].copy_from_slice(&hi.to_le_bytes());
        Nonce::from_bytes(bytes)
    })
}

/// Mostly small values, with zero, the type's maximum and arbitrary (mostly
/// many-byte) values mixed in.
fn value(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), 0..300u64, Just(max), any::<u64>().prop_map(move |v| v & max)]
}

fn path_strategy() -> impl Strategy<Value = PathRecord> {
    (value(u32::MAX.into()), value(u64::MAX))
        .prop_map(|(id, n)| PathRecord { path_id: id as u32, iterations: n })
}

fn loop_strategy() -> impl Strategy<Value = LoopRecord> {
    let target = (value(u32::MAX.into()), value(u32::MAX.into())).prop_map(|(target, code)| {
        IndirectTargetRecord { target: target as u32, code: code as u32 }
    });
    (
        (value(u32::MAX.into()), value(u32::MAX.into()), value(u64::MAX)),
        proptest::collection::vec(path_strategy(), 0..3),
        proptest::collection::vec(target, 0..3),
        any::<bool>(),
    )
        .prop_map(|((entry, exit, depth), paths, indirect_targets, encoder_overflowed)| {
            LoopRecord {
                entry: entry as u32,
                exit: exit as u32,
                nesting_depth: depth as usize,
                paths,
                indirect_targets,
                encoder_overflowed,
            }
        })
}

/// Up to three records, each executed up to twice in a row, about half of
/// them taking the loop (entry and exit), half the depth and half the path
/// ids of the record before; inherited paths keep the record's own
/// iterations where it has as many paths.
fn metadata_strategy() -> impl Strategy<Value = Metadata> {
    let inherits = (any::<bool>(), any::<bool>(), any::<bool>());
    proptest::collection::vec((loop_strategy(), 1..3usize, inherits), 0..3).prop_map(|runs| {
        let mut loops: Vec<LoopRecord> = Vec::new();
        for (mut record, n, (same_loop, same_depth, same_paths)) in runs {
            if let Some(before) = loops.last() {
                if same_loop {
                    (record.entry, record.exit) = (before.entry, before.exit);
                }
                if same_depth {
                    record.nesting_depth = before.nesting_depth;
                }
                if same_paths {
                    let own = |i: usize| record.paths.get(i).map(|p| p.iterations);
                    record.paths = (before.paths.iter().enumerate())
                        .map(|(i, p)| PathRecord {
                            path_id: p.path_id,
                            iterations: own(i).unwrap_or(p.iterations),
                        })
                        .collect();
                }
            }
            loops.extend(std::iter::repeat_n(record, n));
        }
        Metadata { loops }
    })
}

fn report_strategy() -> impl Strategy<Value = AttestationReport> {
    (
        "[a-z]{1,12}",
        proptest::collection::vec(any::<u8>(), 64),
        metadata_strategy(),
        nonce_strategy(),
        proptest::collection::vec(any::<u8>(), 64),
    )
        .prop_map(|(program_id, digest, metadata, nonce, signature)| AttestationReport {
            program_id,
            authenticator: Digest::from_bytes(digest),
            metadata: metadata.pack(),
            nonce,
            signature: Signature::from_bytes(signature),
        })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            "[a-z]{1,10}",
            proptest::collection::vec(any::<u32>(), 0..6),
            nonce_strategy(),
            any::<u64>()
        )
            .prop_map(|(program_id, input, nonce, deadline_cycles)| {
                Message::Challenge(ChallengeMsg { program_id, input, nonce, deadline_cycles })
            }),
        report_strategy().prop_map(|report| Message::Evidence(EvidenceMsg { report })),
        (any::<bool>(), 0u16..80, "[a-z ]{0,20}", any::<u32>(), any::<bool>()).prop_map(
            |(accepted, reason_code, detail, result, has_result)| {
                Message::Verdict(VerdictMsg {
                    accepted,
                    reason_code,
                    detail,
                    expected_result: has_result.then_some(result),
                })
            }
        ),
    ]
}

fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    (any::<u64>(), message_strategy())
        .prop_map(|(session, message)| Envelope::new(SessionId(session), message))
}

/// What the strict reader expects of one varint of a packed `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field {
    /// A value the fixed-width layout holds as a `u32`.
    U32,
    /// A `usize` or `u64` value.
    Wide,
    /// A run's flag, after runs of this many loop executions.
    Flag(u64),
    /// A count of records, each at least this many bytes.
    Count(usize),
}

/// The `same_*` flag bits.
const SAME_BITS: [u64; 3] = [flag::SAME_LOOP, flag::SAME_DEPTH, flag::SAME_PATHS];

/// The fields of `metadata`'s packed form, in order.
fn fields(metadata: &Metadata) -> Vec<Field> {
    let mut out = vec![Field::Count(1)];
    let mut before = 0;
    let runs = common::runs(metadata);
    for (i, (l, executions)) in runs.iter().enumerate() {
        let same = |bit| i > 0 && common::repeats_value(bit, &runs[i - 1].0, l);
        out.push(Field::Flag(before));
        if !same(flag::SAME_LOOP) {
            out.extend([Field::U32, Field::U32]);
        }
        if !same(flag::SAME_DEPTH) {
            out.push(Field::Wide);
        }
        if !same(flag::SAME_PATHS) {
            out.push(Field::Count(2));
            out.extend(l.paths.iter().map(|_| Field::U32));
        }
        out.extend(l.paths.iter().map(|_| Field::Wide));
        if !l.indirect_targets.is_empty() {
            out.push(Field::Count(2));
            for _ in &l.indirect_targets {
                out.extend([Field::U32, Field::U32]);
            }
        }
        before += executions;
    }
    out
}

/// The byte ranges of the varints in a packed blob: each ends at the first
/// byte without its top bit.
fn varints(blob: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &byte) in blob.iter().enumerate() {
        if byte & 0x80 == 0 {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out
}

/// The encoded evidence envelope for `report`, with its packed metadata
/// replaced by `blob` and both length fields that cover it fixed up.
fn evidence_with_blob(report: &AttestationReport, blob: &[u8]) -> Vec<u8> {
    let envelope =
        Envelope::new(SessionId(1), Message::Evidence(EvidenceMsg { report: report.clone() }));
    common::splice_metadata(&envelope.encode().expect("encode"), blob)
}

/// Packed `L` whose one run claims `executions` loop executions of an empty
/// record.
fn one_run(executions: u64) -> Vec<u8> {
    [&[1][..], &leb128((executions - 1) << 5), &[0, 0, 1, 0]].concat()
}

fn body_error(bytes: &[u8]) -> serde::Error {
    match Envelope::decode(bytes) {
        Err(WireError::Body(e)) => e,
        other => panic!("expected a body error, got {other:?}"),
    }
}

fn sample_report() -> AttestationReport {
    AttestationReport {
        program_id: "fig4-loop".into(),
        authenticator: Digest::from_bytes(vec![7; 64]),
        metadata: Metadata::new().pack(),
        nonce: Nonce::from_counter(1),
        signature: Signature::from_bytes(vec![9; 64]),
    }
}

/// One malformed blob of each kind, spliced into a real evidence envelope,
/// is refused with its own typed error.
#[test]
fn packed_metadata_rejections_carry_their_typed_errors() {
    let report = sample_report();
    let decode = |blob: &[u8]| body_error(&evidence_with_blob(&report, blob));
    assert_eq!(decode(&[0x80, 0x00]), serde::Error::NonCanonicalVarint);
    assert_eq!(
        decode(&[1, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 1, 0]),
        serde::Error::IntegerOverflow { value: 1 << 32 }
    );
    // A flag that misstates its record: each `same_*` bit on the first
    // record; each clear although the record restates the entry and exit,
    // the depth or the (empty) path list of the record before (loop (0, 0)
    // at depth 1, with no paths); and `has_targets` before a target count
    // of 0.
    let two = |second: &[u8]| [&[2, 0, 0, 0, 1, 0][..], second].concat();
    for first in [&[1, 0b100, 1, 0][..], &[1, 0b1000, 0, 0], &[1, 0b10000, 0, 0, 1]] {
        assert_eq!(decode(first), serde::Error::NonCanonicalRecord, "{first:?}");
    }
    for second in [&[0b11001, 0, 0][..], &[0b10101, 1], &[0b01101, 0]] {
        assert_eq!(decode(&two(second)), serde::Error::NonCanonicalRecord, "{second:?}");
    }
    assert_eq!(decode(&[1, 0b010, 0, 0, 1, 0, 0]), serde::Error::NonCanonicalRecord);
    // With every bit stated, the second record differs in its overflow
    // flag alone.  A bit set although the value differs drops the value:
    // the second record reads the first's, and a record at depth 2 becomes
    // the record before it.
    assert!(Envelope::decode(&evidence_with_blob(&report, &two(&[0b11101]))).is_ok());
    assert!(Envelope::decode(&evidence_with_blob(&report, &two(&[0b10100, 2]))).is_ok());
    assert_eq!(decode(&two(&[0b11100])), serde::Error::NonMaximalRun);
    // A stored record equal to the one before it, and runs over `u32::MAX`
    // loop executions.
    assert_eq!(decode(&two(&[(1 << 5) | 0b11100])), serde::Error::NonMaximalRun);
    let over = u64::from(u32::MAX) + 1;
    assert_eq!(decode(&one_run(over)), serde::Error::IntegerOverflow { value: over });
    // A flag of 32 is a run of two.
    assert!(Envelope::decode(&evidence_with_blob(&report, &[1, 32, 0, 0, 1, 0])).is_ok());
    assert_eq!(decode(&[5, 0, 0, 0, 0]), serde::Error::UnexpectedEof { needed: 5, remaining: 4 });
    // One loop with one path and targets, cut before its target count.
    assert_eq!(
        decode(&[1, 0b010, 0, 0, 1, 1, 5, 9]),
        serde::Error::UnexpectedEof { needed: 1, remaining: 0 }
    );
    assert_eq!(decode(&[0, 0, 0]), serde::Error::TrailingBytes { extra: 2 });
}

/// A count of `u32::MAX` loops, or of `u32::MAX` paths inside one loop, is
/// refused before anything is reserved for it: decoding allocates a small
/// multiple of the frame's length.  A run that claims `u32::MAX` loop
/// executions in a few bytes is accepted, and no verifier path expands it: a
/// service decodes it, MACs it and answers with a stable code, unsigned
/// (check 3) and signed (check 5) alike, within the same bound.
#[test]
fn hostile_counts_allocate_nothing_in_proportion() {
    let allocated = |work: &mut dyn FnMut()| {
        let before = ALLOCATED.with(Cell::get);
        work();
        ALLOCATED.with(Cell::get) - before
    };
    let report = sample_report();
    let count = leb128(u32::MAX.into());
    for blob in [count.clone(), [&[1, 0, 0, 0, 1][..], &count, &[0]].concat()] {
        let frame = evidence_with_blob(&report, &blob);
        let mut error = None;
        let bytes = allocated(&mut || error = Some(body_error(&frame)));
        let error = error.unwrap();
        assert!(matches!(error, serde::Error::UnexpectedEof { .. }), "{error:?}");
        assert!(bytes <= 8 * frame.len(), "{bytes} B allocated for a {} B frame", frame.len());
    }

    let hostile = one_run(u32::MAX.into());
    assert!(hostile.len() <= 64);
    let packed = PackedMetadata::from_packed(&hostile).expect("a run of u32::MAX executions");
    assert_eq!((packed.run_count(), packed.loop_count()), (1, u32::MAX as usize));
    let (_, service, mut prover) =
        common::workload_service("fig4-loop", "hostile-runs", &[vec![4]], ServiceConfig::default());
    let mut signer = HmacSigner::new(DeviceKey::from_seed("hostile-runs"));
    // An honest round first, so the service's first verdict falls outside
    // the measured windows.
    let id = service.open_session(vec![4]).expect("capacity");
    let challenge = service.challenge_envelope(id).expect("live session").encode().unwrap();
    let evidence = ProverSession::new(&mut prover).handle_bytes(&challenge).expect("responds");
    assert!(common::decode_verdict(&service.handle_bytes(&evidence).unwrap()).accepted);
    for (signed, want) in [(false, code::BAD_SIGNATURE), (true, code::METADATA_MISMATCH)] {
        let id = service.open_session(vec![4]).expect("capacity");
        let challenge = service.challenge_envelope(id).expect("live session");
        let (evidence, _) = ProverSession::new(&mut prover).respond(&challenge).expect("responds");
        let Message::Evidence(EvidenceMsg { mut report }) = evidence.message else {
            panic!("evidence")
        };
        report.metadata = packed.clone();
        if signed {
            report.signature = signer.sign(&report.payload()).expect("HMAC signs");
        }
        let frame = Envelope::new(id, Message::Evidence(EvidenceMsg { report })).encode().unwrap();
        let mut reply = Vec::new();
        let bytes = allocated(&mut || reply = service.handle_bytes(&frame).expect("encodes"));
        let verdict = common::decode_verdict(&reply);
        assert_eq!(verdict.reason_code, want, "{verdict:?}");
        assert!(bytes <= 8 * frame.len(), "{bytes} B allocated for a {} B frame", frame.len());
    }
    common::assert_stats_conserved(&service.stats(), service.live_sessions());
}

/// Every byte a signature covers matters: flipping any byte of an honest
/// syringe-pump evidence frame's signed range, which holds three runs of
/// loop records, never gets it accepted.  A flip that still decodes is
/// refused by check 1 (program id), 2 (nonce) or, for `A` and `L`, 3
/// (signature); any other flip is malformed.  None spends the session.
#[test]
fn flipping_any_signed_byte_refuses_the_evidence() {
    let (_, service, mut prover) = common::workload_service(
        "syringe-pump",
        "signed-range",
        &[vec![200]],
        ServiceConfig::default(),
    );
    let id = service.open_session(vec![200]).expect("capacity");
    let challenge = service.challenge_envelope(id).expect("live session");
    let (evidence, _) = ProverSession::new(&mut prover).respond(&challenge).expect("responds");
    let Message::Evidence(EvidenceMsg { report }) = &evidence.message else { panic!("evidence") };
    assert_eq!(report.metadata.run_count(), 3);
    let honest = evidence.encode().expect("encodes");
    // The report follows the envelope header and the message's variant index.
    let signed = HEADER_BYTES + 4..HEADER_BYTES + 4 + report.payload().len();
    let mut bad_signatures = 0;
    for at in signed {
        for flip in [0x01, 0x80, 0xff] {
            let mut frame = honest.clone();
            frame[at] ^= flip;
            let verdict = common::decode_verdict(&service.handle_bytes(&frame).expect("encodes"));
            let expected = match Envelope::decode(&frame).map(|envelope| envelope.message) {
                Ok(Message::Evidence(EvidenceMsg { report: flipped })) => {
                    if flipped.program_id != report.program_id {
                        code::PROGRAM_ID_MISMATCH
                    } else if flipped.nonce != report.nonce {
                        code::NONCE_MISMATCH
                    } else {
                        bad_signatures += 1;
                        code::BAD_SIGNATURE
                    }
                }
                _ => code::MALFORMED,
            };
            assert_eq!(verdict.reason_code, expected, "byte {at} ^ {flip:#04x}: {verdict:?}");
        }
    }
    // Every flip of `A` at least, and of `L`'s bytes where it still decodes.
    assert!(bad_signatures >= 3 * report.authenticator.len(), "{bad_signatures}");
    let verdict = common::decode_verdict(&service.handle_bytes(&honest).expect("encodes"));
    assert!(verdict.accepted, "{verdict:?}");
    common::assert_stats_conserved(&service.stats(), service.live_sessions());
}

/// Where the evidence fixtures live.
const EVIDENCE_FIXTURES: &str = "tests/fixtures/evidence";

/// The key the evidence fixtures are signed under.
fn golden_key() -> DeviceKey {
    DeviceKey::from_seed("golden-evidence")
}

/// `workload`'s default input attested under [`golden_key`] and nonce 7:
/// the report, and its evidence envelope for session 7 encoded.
fn golden_evidence(workload: &catalog::Workload) -> (AttestationReport, Vec<u8>) {
    let program = workload.program().expect("assemble");
    let mut prover = Prover::new(program, workload.name, golden_key());
    let run = prover.attest(&workload.default_input, Nonce::from_counter(7)).expect("attest");
    let message = Message::Evidence(EvidenceMsg { report: run.report.clone() });
    (run.report, Envelope::new(SessionId(7), message).encode().expect("encode"))
}

/// Each catalogue workload's default input, attested under a fixed key and
/// nonce.  `*.v6.payload.bin` pins the signed bytes and `*.v6.envelope.bin`
/// the encoded evidence, which decodes and re-encodes to itself; the
/// envelope's report begins with the signed bytes, and the verifier
/// rebuilds them from the decoded report.  Version 6 changed the MAC, not
/// what it covers: each payload is the version-5 build's
/// (`*.v5.payload.bin`) byte for byte.  The version-5 envelopes
/// (`*.v5.envelope.bin`) are refused by version, and the 64-byte
/// HMAC-SHA3-512 tag one carries, moved into a version-6 envelope, is
/// refused by check 3 and leaves its session open.
#[test]
fn evidence_matches_the_golden_fixtures() {
    let key = golden_key();
    for workload in catalog::all() {
        let fixture = |kind: &str| {
            let path = format!("{EVIDENCE_FIXTURES}/{}.{kind}.bin", workload.name);
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
        };
        let (report, bytes) = golden_evidence(&workload);
        let payload = fixture("v6.payload");
        assert_eq!(report.payload(), payload, "{}: signed bytes", workload.name);
        assert_eq!(payload, fixture("v5.payload"), "{}: the signed bytes moved", workload.name);
        assert_eq!(report.signature.len(), 32, "{}: a 32-byte tag", workload.name);
        let wire = report.to_wire_bytes().expect("encode");
        assert_eq!(wire[..payload.len()], payload, "{}: wire bytes start signed", workload.name);

        assert_eq!(bytes, fixture("v6.envelope"), "{}: envelope bytes", workload.name);
        assert_eq!(bytes[HEADER_BYTES + 4..], wire, "{}", workload.name);
        let decoded = Envelope::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode().expect("re-encode"), bytes, "{}", workload.name);
        let Message::Evidence(evidence) = decoded.message else { panic!("not evidence") };
        assert_eq!(evidence.report.payload(), payload, "{}: rebuilt signed bytes", workload.name);
        assert_eq!(
            evidence.report.wire_size(),
            bytes.len() - HEADER_BYTES - 4,
            "{}",
            workload.name
        );

        let v5 = fixture("v5.envelope");
        let refused = Envelope::decode(&v5).unwrap_err();
        assert_eq!(refused, WireError::UnsupportedVersion { found: 5 }, "{}", workload.name);
        assert_eq!(refused.code(), code::UNSUPPORTED_VERSION);

        // A fresh service's session 7 carries nonce 7, as the fixtures do.
        let program = workload.program().expect("assemble");
        let verifier = Verifier::new(program, workload.name, key.verification_key()).unwrap();
        let input = workload.default_input.clone();
        let db =
            MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![input.clone()])
                .expect("reference measurement");
        let service = VerifierService::new(db, key.verification_key(), ServiceConfig::default());
        for _ in 0..7 {
            service.open_session(input.clone()).expect("capacity");
        }
        let mut carried = v5;
        carried[4..6].copy_from_slice(&lofat::WIRE_VERSION.to_le_bytes());
        let verdict = common::decode_verdict(&service.handle_bytes(&carried).expect("encodes"));
        assert_eq!(verdict.reason_code, code::BAD_SIGNATURE, "{}: {verdict:?}", workload.name);
        assert_eq!(service.live_sessions(), 7, "{}: the refusal spent a session", workload.name);
        let verdict = common::decode_verdict(&service.handle_bytes(&bytes).expect("encodes"));
        assert!(verdict.accepted, "{}: {verdict:?}", workload.name);
    }
}

/// Writes this build's evidence fixtures, `*.v{WIRE_VERSION}.payload.bin`
/// and `*.v{WIRE_VERSION}.envelope.bin`, for every catalogue workload.
#[test]
#[ignore = "writes tests/fixtures/evidence/*.v{WIRE_VERSION}.{payload,envelope}.bin"]
fn regenerate_the_evidence_fixtures() {
    let version = lofat::WIRE_VERSION;
    for workload in catalog::all() {
        let (report, envelope) = golden_evidence(&workload);
        let path =
            |kind: &str| format!("{EVIDENCE_FIXTURES}/{}.v{version}.{kind}.bin", workload.name);
        std::fs::write(path("payload"), report.payload()).expect("write the payload");
        std::fs::write(path("envelope"), envelope).expect("write the envelope");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// encode → decode is the identity.
    #[test]
    fn envelope_round_trips(envelope in envelope_strategy()) {
        let bytes = envelope.encode().expect("encode");
        let decoded = Envelope::decode(&bytes).expect("decode");
        prop_assert_eq!(decoded, envelope);
    }

    /// Truncation at any cut point is a typed error, never a panic and never
    /// a silent acceptance.
    #[test]
    fn truncated_envelopes_are_rejected(envelope in envelope_strategy(), cut in any::<usize>()) {
        let bytes = envelope.encode().expect("encode");
        let cut = cut % bytes.len().max(1);
        prop_assert!(Envelope::decode(&bytes[..cut]).is_err());
    }

    /// A non-current version field is refused before the body is touched.
    #[test]
    fn bad_versions_are_rejected(envelope in envelope_strategy(), version in 0u16..u16::MAX) {
        let mut bytes = envelope.encode().expect("encode");
        if version == lofat::WIRE_VERSION {
            return Ok(());
        }
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            Envelope::decode(&bytes),
            Err(lofat::WireError::UnsupportedVersion { found }) if found == version
        ));
    }

    /// Trailing bytes after the declared body length are refused.
    #[test]
    fn trailing_bytes_are_rejected(envelope in envelope_strategy(), extra in 1usize..16) {
        let mut bytes = envelope.encode().expect("encode");
        bytes.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(matches!(
            Envelope::decode(&bytes),
            Err(lofat::WireError::TrailingBytes { extra: found }) if found == extra
        ));
    }

    /// Arbitrary single-byte corruption never panics the decoder (it may
    /// still decode to a different valid envelope, e.g. a flipped digest
    /// byte — the signature check exists for that), and whatever it accepts
    /// re-encodes to the corrupted bytes: no two byte strings decode to one
    /// envelope.
    #[test]
    fn corrupted_envelopes_never_panic(
        envelope in envelope_strategy(),
        index in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = envelope.encode().expect("encode");
        let index = index % bytes.len();
        bytes[index] ^= flip;
        if let Ok(decoded) = Envelope::decode(&bytes) {
            prop_assert_eq!(decoded.encode().expect("re-encode"), bytes.clone());
        }
        // Corrupting the magic must always be caught.
        if index < 4 {
            prop_assert!(Envelope::decode(&bytes).is_err());
        }
    }

}

proptest! {
    // The strict reader of packed metadata is cheap to drive: many cases.
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// The packed form round-trips arbitrary metadata, is the version-5
    /// grammar's bytes for its runs, and is the codec form behind its `u32`
    /// length.
    #[test]
    fn packed_metadata_round_trips(metadata in metadata_strategy()) {
        let packed = metadata.pack();
        prop_assert_eq!(packed.as_bytes(), &common::pack_runs(&common::runs(&metadata))[..]);
        prop_assert_eq!(Metadata::from_packed(packed.as_bytes()), Ok(metadata.clone()));
        prop_assert_eq!(packed.decode(), metadata);
        let wire = serde::to_bytes(&packed).expect("encode");
        prop_assert_eq!(&wire[..4], &(packed.packed_len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(&wire[4..], packed.as_bytes());
    }

    /// A blob the reader accepts is the writer's output for what it read:
    /// one byte of an honest blob replaced, dropped or inserted either fails
    /// or re-encodes to the edited blob.
    #[test]
    fn accepted_packed_blobs_re_encode_to_themselves(
        metadata in metadata_strategy(),
        edit in 0..3u8,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut blob = metadata.pack().as_bytes().to_vec();
        let at = at % (blob.len() + 1);
        match edit {
            0 if at < blob.len() => blob[at] = byte,
            1 if at < blob.len() => {
                blob.remove(at);
            }
            _ => blob.insert(at, byte),
        }
        // A one-byte edit may leave a run that claims billions of loop
        // executions: decode only what is small enough to expand.
        let accepted = PackedMetadata::from_packed(&blob);
        if let Some(packed) = accepted.ok().filter(|packed| packed.loop_count() <= 1 << 12) {
            prop_assert_eq!(packed.decode().pack().as_bytes().to_vec(), blob);
        }
    }

    /// Each kind of malformation, made at an arbitrary field or run of an
    /// honest blob inside a real evidence envelope, gets its typed error: an
    /// overlong varint, a `u32` field above `u32::MAX`, a run that takes the
    /// loop executions above `u32::MAX`, a count the bytes left cannot hold,
    /// truncation, trailing bytes, a stored record repeated instead of
    /// counted in its run, a `same_*` bit set on the first record, one
    /// cleared on a record that restates the value before it, and
    /// `has_targets` set before a target count of 0.  A `same_*` bit set on
    /// a record whose value differs drops the value: the blob is refused,
    /// or reads as another `L`.
    #[test]
    fn packed_rejections_are_typed_wherever_they_land(
        metadata in metadata_strategy(),
        kind in 0..11u8,
        pick in any::<usize>(),
        wide in any::<u32>(),
    ) {
        let blob = metadata.pack().as_bytes().to_vec();
        let spans = varints(&blob);
        let kinds = fields(&metadata);
        prop_assert_eq!(spans.len(), kinds.len());
        let replace = |at: usize, with: &[u8]| {
            let span = spans[at].clone();
            [&blob[..span.start], with, &blob[span.end..]].concat()
        };
        let pick_of = |wanted: &dyn Fn(Field) -> bool| {
            let matching: Vec<usize> = (0..kinds.len()).filter(|&i| wanted(kinds[i])).collect();
            (!matching.is_empty()).then(|| matching[pick % matching.len()])
        };
        let (edited, expected) = match kind {
            0 => {
                // The same value with a redundant zero group appended.
                let Some(at) = pick_of(&|_| true) else { return Ok(()) };
                let mut longer = blob[spans[at].clone()].to_vec();
                *longer.last_mut().unwrap() |= 0x80;
                longer.push(0);
                (replace(at, &longer), serde::Error::NonCanonicalVarint)
            }
            1 => {
                let Some(at) = pick_of(&|f| matches!(f, Field::U32 | Field::Count(_))) else {
                    return Ok(());
                };
                let value = (1u64 << 32) + u64::from(wide);
                (replace(at, &leb128(value)), serde::Error::IntegerOverflow { value })
            }
            2 => {
                let Some(at) = pick_of(&|f| matches!(f, Field::Flag(_))) else { return Ok(()) };
                let Field::Flag(before) = kinds[at] else { unreachable!() };
                // Enough repeats to end `wide + 1` executions past the limit.
                let value = u64::from(u32::MAX) + 1 + u64::from(wide);
                let flag = ((value - before - 1) << 5) | u64::from(blob[spans[at].start] & 0b11111);
                (replace(at, &leb128(flag)), serde::Error::IntegerOverflow { value })
            }
            3 => {
                let Some(at) = pick_of(&|f| matches!(f, Field::Count(_))) else {
                    return Ok(());
                };
                let Field::Count(min) = kinds[at] else { unreachable!() };
                let remaining = blob.len() - spans[at].end;
                let count = remaining / min + 1 + (wide % 1000) as usize;
                let needed = count * min;
                (replace(at, &leb128(count as u64)), serde::Error::UnexpectedEof { needed, remaining })
            }
            4 => {
                let cut = pick % blob.len();
                let edited = blob[..cut].to_vec();
                let error = body_error(&evidence_with_blob(&sample_report(), &edited));
                prop_assert!(matches!(error, serde::Error::UnexpectedEof { .. }), "cut {}: {:?}", cut, error);
                return Ok(());
            }
            5 => {
                let extra = 1 + pick % 8;
                let edited = [&blob[..], &vec![wide as u8; extra]].concat();
                (edited, serde::Error::TrailingBytes { extra })
            }
            6 => {
                // One run's record stored twice in a row.
                let mut runs = common::runs(&metadata);
                if runs.is_empty() {
                    return Ok(());
                }
                let at = pick % runs.len();
                runs.insert(at, runs[at].clone());
                (common::pack_runs(&runs), serde::Error::NonMaximalRun)
            }
            _ => {
                // A flag bit flipped on one run, and the fields it governs
                // written to match: a `same_*` bit on the first run (7),
                // cleared where the value repeats (8) or set where it
                // differs (10), or `has_targets` set on a run without
                // targets (9).
                let runs = common::runs(&metadata);
                let repeats = |k: usize, bit| k > 0 && common::repeats_value(bit, &runs[k - 1].0, &runs[k].0);
                let wanted: Vec<(usize, u64)> = (0..runs.len())
                    .flat_map(|k| SAME_BITS.map(|bit| (k, bit)))
                    .filter(|&(k, bit)| match kind {
                        7 => k == 0,
                        8 => repeats(k, bit),
                        9 => bit == flag::SAME_LOOP && runs[k].0.indirect_targets.is_empty(),
                        _ => k > 0 && !repeats(k, bit),
                    })
                    .collect();
                if wanted.is_empty() {
                    return Ok(());
                }
                let (k, bit) = wanted[pick % wanted.len()];
                let bit = if kind == 9 { flag::HAS_TARGETS } else { bit };
                let edited =
                    common::pack_runs_flagged(&runs, |at, flag| if at == k { flag ^ bit } else { flag });
                if kind == 10 {
                    let mut report = sample_report();
                    report.metadata = metadata.pack();
                    let frame = evidence_with_blob(&report, &edited);
                    match Envelope::decode(&frame).map(|envelope| envelope.message) {
                        Err(WireError::Body(_)) => {}
                        Ok(Message::Evidence(EvidenceMsg { report: read })) => {
                            prop_assert_ne!(read.metadata, report.metadata);
                        }
                        other => prop_assert!(false, "run {} bit {}: {:?}", k, bit, other),
                    }
                    return Ok(());
                }
                (edited, serde::Error::NonCanonicalRecord)
            }
        };
        let mut report = sample_report();
        report.metadata = metadata.pack();
        prop_assert_eq!(body_error(&evidence_with_blob(&report, &edited)), expected);
    }
}
