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
//! * the packed metadata inside evidence is read strictly: every accepted
//!   blob re-encodes to itself, each way a blob can be malformed has its own
//!   typed `serde::Error`, and a hostile count allocates nothing in
//!   proportion to it;
//! * golden fixtures pin both byte forms of each catalogue workload's
//!   evidence: the signed payload, as the wire-version-1 build wrote it, and
//!   the encoded envelope.
//!
//! Case counts honour the vendored proptest's `PROPTEST_CASES` cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lofat::metadata::IndirectTargetRecord;
use lofat::wire::{
    ChallengeMsg, Envelope, EvidenceMsg, Message, SessionId, VerdictMsg, HEADER_BYTES,
};
use lofat::{AttestationReport, LoopRecord, Metadata, PathRecord, Prover, WireError};
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
    (value(u32::MAX.into()), value(u64::MAX), value(u64::MAX)).prop_map(|(id, first, n)| {
        PathRecord { path_id: id as u32, first_occurrence: first as usize, iterations: n }
    })
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

fn metadata_strategy() -> impl Strategy<Value = Metadata> {
    proptest::collection::vec(loop_strategy(), 0..3).prop_map(|loops| Metadata { loops })
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
    /// A value the signed form holds as a `u32`.
    U32,
    /// A `usize` or `u64` value.
    Wide,
    /// The overflow flag.
    Flag,
    /// A count of records, each at least this many bytes.
    Count(usize),
}

/// The fields of `metadata`'s packed form, in order.
fn fields(metadata: &Metadata) -> Vec<Field> {
    let mut out = vec![Field::Count(6)];
    for l in &metadata.loops {
        out.extend([Field::U32, Field::U32, Field::Wide, Field::Flag, Field::Count(3)]);
        for _ in &l.paths {
            out.extend([Field::U32, Field::Wide, Field::Wide]);
        }
        out.push(Field::Count(2));
        for _ in &l.indirect_targets {
            out.extend([Field::U32, Field::U32]);
        }
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

fn leb128(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
    out
}

/// The encoded evidence envelope for `report`, with its packed metadata
/// replaced by `blob` and both length fields that cover it fixed up.
fn evidence_with_blob(report: &AttestationReport, blob: &[u8]) -> Vec<u8> {
    let envelope =
        Envelope::new(SessionId(1), Message::Evidence(EvidenceMsg { report: report.clone() }));
    let mut bytes = envelope.encode().expect("encode");
    // Variant index, program id and authenticator precede `L`'s length.
    let at = HEADER_BYTES + 4 + 4 + report.program_id.len() + 4 + report.authenticator.len();
    let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    bytes.splice(at + 4..at + 4 + old, blob.iter().copied());
    bytes[at..at + 4].copy_from_slice(&(blob.len() as u32).to_le_bytes());
    let body = (bytes.len() - HEADER_BYTES) as u32;
    bytes[14..18].copy_from_slice(&body.to_le_bytes());
    bytes
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
        decode(&[1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 1, 0, 0, 0]),
        serde::Error::IntegerOverflow { value: 1 << 32 }
    );
    assert_eq!(decode(&[1, 0, 0, 1, 2, 0, 0]), serde::Error::InvalidBool(2));
    assert_eq!(
        decode(&[5, 0, 0, 0, 0, 0, 0]),
        serde::Error::UnexpectedEof { needed: 30, remaining: 6 }
    );
    // One loop with one path, cut before its target count.
    assert_eq!(
        decode(&[1, 0, 0, 1, 0, 1, 5, 0, 9]),
        serde::Error::UnexpectedEof { needed: 1, remaining: 0 }
    );
    assert_eq!(decode(&[0, 0, 0]), serde::Error::TrailingBytes { extra: 2 });
}

/// A count of `u32::MAX` loops, or of `u32::MAX` paths inside one loop, is
/// refused before anything is reserved for it: decoding allocates a small
/// multiple of the frame's length.
#[test]
fn hostile_counts_allocate_nothing_in_proportion() {
    let report = sample_report();
    let count = leb128(u32::MAX.into());
    for blob in [count.clone(), [&[1, 0, 0, 1, 0][..], &count, &[0]].concat()] {
        let frame = evidence_with_blob(&report, &blob);
        let before = ALLOCATED.with(Cell::get);
        let error = body_error(&frame);
        let allocated = ALLOCATED.with(Cell::get) - before;
        assert!(matches!(error, serde::Error::UnexpectedEof { .. }), "{error:?}");
        assert!(
            allocated <= 8 * frame.len(),
            "{allocated} B allocated for a {} B frame",
            frame.len()
        );
    }
}

/// Each catalogue workload's default input, attested under a fixed key and
/// nonce.  `*.payload.bin` was written by the wire-version-1 build: the
/// signed bytes, and so what the signature covers, did not change when the
/// wire started to carry `L` packed.  `*.envelope.bin` pins the encoded
/// evidence, which decodes and re-encodes to itself, and the verifier
/// rebuilds the signed bytes from the decoded report.
#[test]
fn evidence_matches_the_golden_fixtures() {
    let key = DeviceKey::from_seed("golden-evidence");
    for workload in catalog::all() {
        let fixture = |kind: &str| {
            let path = format!("tests/fixtures/evidence/{}.{kind}.bin", workload.name);
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
        };
        let program = workload.program().expect("assemble");
        let mut prover = Prover::new(program, workload.name, key.clone());
        let run = prover.attest(&workload.default_input, Nonce::from_counter(7)).expect("attest");
        let payload = fixture("payload");
        assert_eq!(run.report.payload(), payload, "{}: signed bytes", workload.name);

        let envelope =
            Envelope::new(SessionId(7), Message::Evidence(EvidenceMsg { report: run.report }));
        let bytes = envelope.encode().expect("encode");
        assert_eq!(bytes, fixture("envelope"), "{}: envelope bytes", workload.name);
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

    /// The packed form round-trips arbitrary metadata, and is the codec form
    /// behind its `u32` length.
    #[test]
    fn packed_metadata_round_trips(metadata in metadata_strategy()) {
        let packed = metadata.pack();
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
        if let Ok(decoded) = Metadata::from_packed(&blob) {
            prop_assert_eq!(decoded.pack().as_bytes().to_vec(), blob);
        }
    }

    /// Each kind of malformation, made at an arbitrary field of an honest
    /// blob inside a real evidence envelope, gets its typed error: an
    /// overlong varint, a `u32` field above `u32::MAX`, a flag other than 0
    /// or 1, a count the bytes left cannot hold, truncation, and trailing
    /// bytes.
    #[test]
    fn packed_rejections_are_typed_wherever_they_land(
        metadata in metadata_strategy(),
        kind in 0..6u8,
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
                // The same value with a redundant zero group appended (the
                // flag is one byte, not a varint: case 2 covers it).
                let Some(at) = pick_of(&|f| f != Field::Flag) else { return Ok(()) };
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
                let Some(at) = pick_of(&|f| f == Field::Flag) else { return Ok(()) };
                let flag = 2 + (wide % 254) as u8;
                (replace(at, &[flag]), serde::Error::InvalidBool(flag))
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
            _ => {
                let extra = 1 + pick % 8;
                let edited = [&blob[..], &vec![wide as u8; extra]].concat();
                (edited, serde::Error::TrailingBytes { extra })
            }
        };
        let mut report = sample_report();
        report.metadata = metadata.pack();
        prop_assert_eq!(body_error(&evidence_with_blob(&report, &edited)), expected);
    }
}
