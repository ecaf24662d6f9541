//! Measurement database: precomputed reference measurements per input.
//!
//! The golden-replay verifier (see [`crate::verifier::Verifier::verify`]) recomputes
//! the expected measurement at verification time.  Embedded deployments — and the
//! C-FLAT scheme LO-FAT builds on — typically precompute the expected measurements
//! for the (small) set of inputs/commands a device accepts and then verify reports by
//! a lookup.  [`MeasurementDatabase`] provides that mode: it is built once offline
//! from the program binary and a list of anticipated inputs, keeps its entries in an
//! ordered map (so a lookup is logarithmic in the number of inputs), and can be
//! serialised and shipped to lightweight verifier front-ends that do not carry the
//! simulator at all.  Beside the entries it holds the verifier's valid-path table,
//! so the judge's loop-path check ([`crate::judge`]) needs no CFG either.
//!
//! Each entry is held as a [`PackedReference`]: `A` and `L` in one heap block of
//! LEB128 varints, about a fifth of the bytes `L` takes signed.  The comparison
//! walks that record field by field, and the wire codec still speaks the
//! [`ReferenceMeasurement`] layout.

use crate::config::EngineConfig;
use crate::error::LofatError;
use crate::metadata::{IndirectTargetRecord, LoopRecord, Metadata, PathRecord};
use crate::report::AttestationReport;
use crate::verifier::Verifier;
use lofat_crypto::Digest;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// [`MeasurementDatabase::build`] replays on the calling thread alone until
/// the work left, projected from the instructions its replays retired so
/// far, reaches this many instructions per thread.  Below it a helper thread
/// would not pay for itself: spawning and joining a scoped thread costs
/// about a 50th to a 100th of this much replay (~40 µs against ~2.3 ms on a
/// 2-vCPU Xeon).
const PARALLEL_FLOOR_INSTRUCTIONS: u64 = 64 * 1024;

/// One precomputed reference measurement, decoded.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReferenceMeasurement {
    /// The expected authenticator `A` for this input.
    pub authenticator: Digest,
    /// The expected loop metadata `L` for this input.
    pub metadata: Metadata,
    /// The expected program result (`a0` at exit) — useful for device health checks.
    pub expected_result: u32,
}

/// One reference measurement as the database holds it: `A` and `L` packed
/// into a single heap block.
///
/// The record is `A`'s length as a LEB128 varint and its bytes, then every
/// integer [`Metadata::to_bytes`] signs, in the same order (loop count, then
/// per loop its entry, exit, depth, overflow flag, path count, paths and
/// target count, targets), each as a LEB128 varint.  The encoding is
/// canonical, so two records are equal exactly when the measurements are.
/// On the wire it is a [`ReferenceMeasurement`], byte for byte.
/// [`MeasurementDatabase::check`] returns the entry a report matched, and
/// [`MeasurementDatabase::reference`] decodes one.  The judge compares a
/// report with a record in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedReference {
    /// The expected program result (`a0` at exit) — useful for device health checks.
    pub expected_result: u32,
    record: Box<[u8]>,
}

impl PackedReference {
    /// Packs a measurement and its program result into a record of exactly
    /// the bytes it needs.
    pub(crate) fn new(authenticator: &Digest, metadata: &Metadata, expected_result: u32) -> Self {
        let digest = authenticator.as_bytes();
        let mut len = varint_len(digest.len() as u64) + digest.len();
        for_each_field(metadata, |value| {
            len += varint_len(value);
            true
        });
        let mut record = Vec::with_capacity(len);
        put_varint(&mut record, digest.len() as u64);
        record.extend_from_slice(digest);
        for_each_field(metadata, |value| {
            put_varint(&mut record, value);
            true
        });
        debug_assert_eq!(record.len(), len);
        Self { expected_result, record: record.into_boxed_slice() }
    }

    fn pack(reference: &ReferenceMeasurement) -> Self {
        Self::new(&reference.authenticator, &reference.metadata, reference.expected_result)
    }

    /// Decodes the record back into the measurement it packs.
    fn unpack(&self) -> ReferenceMeasurement {
        let mut fields = Fields(&self.record);
        let authenticator = Digest::from_bytes(fields.digest().expect(PACKED).to_vec());
        let mut next = || fields.next().expect(PACKED);
        let loops = (0..next())
            .map(|_| {
                let (entry, exit, nesting_depth) = (next() as u32, next() as u32, next() as usize);
                let encoder_overflowed = next() != 0;
                let paths = (0..next())
                    .map(|_| {
                        let (path_id, first_occurrence) = (next() as u32, next() as usize);
                        PathRecord { path_id, first_occurrence, iterations: next() }
                    })
                    .collect();
                let indirect_targets = (0..next())
                    .map(|_| IndirectTargetRecord { target: next() as u32, code: next() as u32 })
                    .collect();
                LoopRecord {
                    entry,
                    exit,
                    nesting_depth,
                    paths,
                    indirect_targets,
                    encoder_overflowed,
                }
            })
            .collect();
        ReferenceMeasurement {
            authenticator,
            metadata: Metadata { loops },
            expected_result: self.expected_result,
        }
    }

    /// The expected authenticator's bytes, read in place.
    pub(crate) fn authenticator(&self) -> &[u8] {
        Fields(&self.record).digest().expect(PACKED)
    }

    /// Whether `metadata` is the expected metadata, compared field by field
    /// in place without decoding the record or allocating.
    pub(crate) fn metadata_matches(&self, metadata: &Metadata) -> bool {
        let mut fields = Fields(&self.record);
        fields.digest().expect(PACKED);
        // Counts are fields too, so a walk that matches every field has read
        // the whole record.
        for_each_field(metadata, |value| fields.next() == Some(value))
    }
}

/// The wire form is the decoded [`ReferenceMeasurement`]'s, so packing
/// changes no database or snapshot byte.
impl serde::Serialize for PackedReference {
    fn serialize(&self, serializer: &mut serde::Serializer) -> Result<(), serde::Error> {
        self.unpack().serialize(serializer)
    }
}

impl serde::Deserialize for PackedReference {
    fn deserialize(deserializer: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        ReferenceMeasurement::deserialize(deserializer).map(|reference| Self::pack(&reference))
    }
}

/// Why decoding a record cannot fail: only [`PackedReference::pack`] writes one.
const PACKED: &str = "records are written by `PackedReference::pack` alone";

/// Hands `f` every integer of `metadata` in the order [`Metadata::to_bytes`]
/// signs them, stopping at (and returning `false` on) the first `false`.
/// Packing and comparing both walk this one sequence.
fn for_each_field(metadata: &Metadata, mut f: impl FnMut(u64) -> bool) -> bool {
    f(metadata.loops.len() as u64)
        && metadata.loops.iter().all(|l| {
            f(l.entry.into())
                && f(l.exit.into())
                && f(l.nesting_depth as u64)
                && f(l.encoder_overflowed.into())
                && f(l.paths.len() as u64)
                && l.paths
                    .iter()
                    .all(|p| f(p.path_id.into()) && f(p.first_occurrence as u64) && f(p.iterations))
                && f(l.indirect_targets.len() as u64)
                && l.indirect_targets.iter().all(|t| f(t.target.into()) && f(t.code.into()))
        })
}

/// Bytes `value` takes as a LEB128 varint.
fn varint_len(value: u64) -> usize {
    (u64::BITS - (value | 1).leading_zeros()).div_ceil(7) as usize
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads a packed record front to back.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The next LEB128 varint, or `None` past the end.
    fn next(&mut self) -> Option<u64> {
        let mut value = 0;
        for shift in (0..64).step_by(7) {
            let (&byte, rest) = self.0.split_first()?;
            self.0 = rest;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }

    /// The length-prefixed authenticator bytes.
    fn digest(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.next()?).ok()?;
        let bytes = self.0.get(..len)?;
        self.0 = &self.0[len..];
        Some(bytes)
    }
}

/// A database of reference measurements keyed by program input.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MeasurementDatabase {
    program_id: String,
    entries: BTreeMap<Vec<u32>, PackedReference>,
    /// The engine configuration the references were computed with (prover reports
    /// produced under a different configuration will not match).
    config: EngineConfig,
    /// The valid path ids per statically enumerated loop entry, copied from
    /// [`Verifier::valid_loop_paths`].  Last, so the wire form is the
    /// snapshot-version-1 form followed by the table.
    valid_paths: BTreeMap<u32, Vec<u32>>,
}

impl MeasurementDatabase {
    /// Builds a database by golden-replaying `verifier`'s program, under
    /// `config`, on every input, and copies `verifier`'s valid-path table.
    ///
    /// The calling thread replays the inputs in order.  Once the work left
    /// clears a floor of 64 Ki instructions (projected from the instructions
    /// replayed so far) and the host has more than one CPU, the rest is
    /// shared with scoped helper threads; small builds never start a thread
    /// or ask how many CPUs there are.  Either way the database is the one a
    /// one-at-a-time replay builds, and every entry it keeps is allocated by
    /// the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the replay failure of the first failing input (e.g. an input
    /// that makes the program exceed its cycle budget).
    pub fn build(
        verifier: &Verifier,
        config: EngineConfig,
        inputs: impl IntoIterator<Item = Vec<u32>>,
    ) -> Result<Self, LofatError> {
        Self::build_counting_threads(verifier, config, inputs).map(|(db, _)| db)
    }

    /// [`MeasurementDatabase::build`], also returning how many threads
    /// replayed: 1 below the floor or on a one-CPU host.
    ///
    /// # Errors
    ///
    /// As [`MeasurementDatabase::build`].
    pub fn build_counting_threads(
        verifier: &Verifier,
        config: EngineConfig,
        inputs: impl IntoIterator<Item = Vec<u32>>,
    ) -> Result<(Self, usize), LofatError> {
        let mut inputs = inputs.into_iter().collect::<Vec<_>>().into_iter();
        let mut entries = BTreeMap::new();
        let (mut replayed, mut retired) = (0u64, 0u64);
        let mut threads = None;
        while let Some(input) = inputs.next() {
            let (reference, instructions) = measure(verifier, config, &input)?;
            entries.insert(input, reference);
            replayed += 1;
            retired += instructions;
            let projected = retired.saturating_mul(inputs.len() as u64) / replayed;
            if threads.is_none() && projected >= PARALLEL_FLOOR_INSTRUCTIONS {
                // At most one thread per floor's worth of work left, so that
                // every helper pays for itself however many CPUs there are.
                let worth = usize::try_from(projected / PARALLEL_FLOOR_INSTRUCTIONS);
                let cpus = std::thread::available_parallelism().map_or(1, usize::from);
                let shared = cpus.min(inputs.len()).min(worth.unwrap_or(usize::MAX));
                threads = Some(shared);
                if shared > 1 {
                    let rest = replay_shared(verifier, config, inputs.as_slice(), shared - 1);
                    for (input, reference) in inputs.by_ref().zip(rest) {
                        entries.insert(input, reference?);
                    }
                }
            }
        }
        let db = Self {
            program_id: verifier.program_id().to_string(),
            entries,
            config,
            valid_paths: verifier.valid_loop_paths().clone(),
        };
        Ok((db, threads.unwrap_or(1)))
    }

    /// The program this database describes.
    pub fn program_id(&self) -> &str {
        &self.program_id
    }

    /// Number of reference entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The engine configuration the references were computed under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Returns `true` if a reference measurement exists for `input`.
    pub fn contains(&self, input: &[u32]) -> bool {
        self.entries.contains_key(input)
    }

    /// The reference measurement for `input`, decoded from its packed record.
    pub fn reference(&self, input: &[u32]) -> Option<ReferenceMeasurement> {
        self.entries.get(input).map(PackedReference::unpack)
    }

    /// The valid path ids per statically enumerated loop entry, as
    /// [`Verifier::valid_loop_paths`] enumerated them.
    pub fn valid_loop_paths(&self) -> &BTreeMap<u32, Vec<u32>> {
        &self.valid_paths
    }

    /// Heap bytes the database holds: every key and packed record, every
    /// valid-path list, plus one key and value slot per entry of either map
    /// in its nodes (node headers and spare slots aside).
    pub fn heap_bytes(&self) -> usize {
        let words = |v: &Vec<u32>| v.capacity() * std::mem::size_of::<u32>();
        let slot = std::mem::size_of::<(Vec<u32>, PackedReference)>();
        let entries = self
            .entries
            .iter()
            .map(|(input, reference)| slot + words(input) + reference.record.len());
        let slot = std::mem::size_of::<(u32, Vec<u32>)>();
        let paths = self.valid_paths.values().map(|ids| slot + words(ids));
        self.program_id.capacity() + entries.sum::<usize>() + paths.sum::<usize>()
    }

    /// Serialises the database with the deterministic wire codec, for shipping
    /// to lightweight verifier front-ends (e.g. a
    /// [`crate::service::VerifierService`] on another host).
    ///
    /// # Errors
    ///
    /// Fails only if a contained collection overflows the codec's `u32`
    /// length prefix.
    pub fn to_wire_bytes(&self) -> Result<Vec<u8>, serde::Error> {
        serde::to_bytes(self)
    }

    /// Decodes a database previously encoded with
    /// [`MeasurementDatabase::to_wire_bytes`].
    ///
    /// # Errors
    ///
    /// Returns the decode error for malformed input.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, serde::Error> {
        serde::from_bytes(bytes)
    }

    /// Runs the checks of [`crate::judge`] that follow the signature on a
    /// report for `input`: loop-path plausibility against the valid-path
    /// table (check 4), then the comparison with the stored reference,
    /// authenticator before metadata (check 5).  The program id, nonce and
    /// signature checks come first and are the caller's;
    /// [`crate::service::VerifierService`] runs all five.  Allocates nothing
    /// unless a check fails.
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::Rejected`] with the
    /// [`RejectionReason`](crate::verifier::RejectionReason) of the first
    /// failing check, or [`LofatError::InvalidConfig`] when the input was
    /// never precomputed (which [`crate::service::VerifierService`] answers
    /// with [`crate::wire::code::UNKNOWN_INPUT`]).
    pub fn check(
        &self,
        input: &[u32],
        report: &AttestationReport,
    ) -> Result<&PackedReference, LofatError> {
        let Some(reference) = self.entries.get(input) else {
            return Err(LofatError::InvalidConfig {
                message: format!("no reference measurement precomputed for input {input:?}"),
            });
        };
        crate::judge::measurement(report, &self.valid_paths, reference)
            .map_err(LofatError::Rejected)?;
        Ok(reference)
    }
}

/// Replays one input: its packed reference measurement and the instructions
/// retired.
fn measure(
    verifier: &Verifier,
    config: EngineConfig,
    input: &[u32],
) -> Result<(PackedReference, u64), LofatError> {
    let (measurement, exit) = verifier.replay(config, input)?;
    let reference =
        PackedReference::new(&measurement.authenticator, &measurement.metadata, exit.register_a0);
    Ok((reference, exit.instructions))
}

/// Replays `inputs` on the calling thread and `helpers` scoped threads, which
/// claim input indices from one atomic counter; returns the results in input
/// order.  Only inputs after the first failure may be missing.
///
/// Helpers send each result over a channel.  Between its own replays the
/// calling thread takes them in and copies each record, dropping the
/// helper's block, so that no long-lived entry sits in a helper thread's
/// malloc arena.  After a failure no thread claims a later index; every
/// earlier index was claimed before it and still completes, so the first
/// failure in input order is the one a one-at-a-time replay meets.
fn replay_shared(
    verifier: &Verifier,
    config: EngineConfig,
    inputs: &[Vec<u32>],
    helpers: usize,
) -> impl Iterator<Item = Result<PackedReference, LofatError>> {
    let next = AtomicUsize::new(0);
    let first_failure = AtomicUsize::new(usize::MAX);
    // Relaxed suffices: the counter's read-modify-writes alone make claims
    // unique, and neither atomic publishes other data (results travel over
    // the channel or stay on the thread that computed them).
    let claim = || {
        let index = next.fetch_add(1, Ordering::Relaxed);
        (index < inputs.len() && index < first_failure.load(Ordering::Relaxed)).then_some(index)
    };
    let run = |index: usize| {
        let result = measure(verifier, config, &inputs[index]).map(|(reference, _)| reference);
        if result.is_err() {
            first_failure.fetch_min(index, Ordering::Relaxed);
        }
        result
    };
    let mut slots: Vec<Option<Result<PackedReference, LofatError>>> =
        std::iter::repeat_with(|| None).take(inputs.len()).collect();
    std::thread::scope(|scope| {
        let (results, received) = mpsc::channel();
        for _ in 0..helpers {
            let results = results.clone();
            scope.spawn(move || {
                while let Some(index) = claim() {
                    if results.send((index, run(index))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(results);
        let rehome = |helpers_copy: PackedReference| {
            let own = helpers_copy.clone();
            drop(helpers_copy);
            own
        };
        while let Some(index) = claim() {
            slots[index] = Some(run(index));
            for (index, result) in received.try_iter() {
                slots[index] = Some(result.map(rehome));
            }
        }
        for (index, result) in received {
            slots[index] = Some(result.map(rehome));
        }
    });
    // An unclaimed slot only ever follows a failure, where the caller stops,
    // so skipping it never misaligns a result the caller keeps.
    slots.into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::Prover;
    use crate::verifier::RejectionReason;
    use lofat_crypto::{DeviceKey, Nonce, Signature};
    use lofat_rv32::asm::assemble;
    use proptest::prelude::*;

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
            addi a0, a0, 3
            addi t1, t1, -1
            bnez t1, loop
        done:
            ecall
    "#;

    fn setup() -> (Prover, Verifier) {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("db-device");
        let prover = Prover::new(program.clone(), "triple", key.clone());
        let verifier = Verifier::new(program, "triple", key.verification_key()).unwrap();
        (prover, verifier)
    }

    #[test]
    fn database_accepts_honest_reports_without_replay() {
        let (mut prover, verifier) = setup();
        let inputs: Vec<Vec<u32>> = (0..8u32).map(|n| vec![n]).collect();
        let db =
            MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone()).unwrap();
        assert_eq!(db.len(), 8);
        assert_eq!(db.program_id(), "triple");

        for input in &inputs {
            let run = prover.attest(input, Nonce::from_counter(1)).unwrap();
            let reference = db.check(input, &run.report).unwrap();
            assert_eq!(reference.expected_result, run.exit.register_a0);
        }
    }

    #[test]
    fn database_rejects_mismatching_reports() {
        let (mut prover, verifier) = setup();
        let db = MeasurementDatabase::build(
            &verifier,
            EngineConfig::default(),
            vec![vec![3u32], vec![4u32]],
        )
        .unwrap();
        // A report produced for input 4 does not match the reference for input 3.
        let run = prover.attest(&[4], Nonce::from_counter(1)).unwrap();
        let err = db.check(&[3], &run.report).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(_)));
    }

    #[test]
    fn unknown_inputs_are_reported() {
        let (mut prover, verifier) = setup();
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![1u32]])
            .unwrap();
        let run = prover.attest(&[9], Nonce::from_counter(1)).unwrap();
        let err = db.check(&[9], &run.report).unwrap_err();
        assert!(matches!(err, LofatError::InvalidConfig { .. }));
        assert!(db.reference(&[9]).is_none());
        assert!(!db.is_empty());
    }

    #[test]
    fn check_runs_the_checks_that_follow_the_signature() {
        let (mut prover, verifier) = setup();
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![2u32]])
            .unwrap();
        assert_eq!(db.valid_loop_paths(), verifier.valid_loop_paths());
        let run = prover.attest(&[2], Nonce::from_counter(1)).unwrap();
        // The program id is the judge's first check, not one of these.
        let mut renamed = run.report.clone();
        renamed.program_id = "other".into();
        assert!(db.check(&[2], &renamed).is_ok());
        // A path outside the CFG is found before the metadata comparison.
        let mut invalid = run.report;
        let path = PathRecord { path_id: 0b1_1111, first_occurrence: 1, iterations: 1 };
        invalid.metadata.loops[0].paths.push(path);
        let err = db.check(&[2], &invalid).unwrap_err();
        assert!(matches!(
            err,
            LofatError::Rejected(RejectionReason::InvalidLoopPath { path_id: 0b1_1111, .. })
        ));
    }

    #[test]
    fn build_replays_under_the_config_it_records() {
        let (prover, verifier) = setup();
        let uncompressed = EngineConfig::builder().loop_compression(false).build().unwrap();
        let db = MeasurementDatabase::build(&verifier, uncompressed, vec![vec![5u32]]).unwrap();
        assert_eq!(db.config(), &uncompressed);

        let run = prover.clone().with_config(uncompressed).attest(&[5], Nonce::from_counter(1));
        db.check(&[5], &run.unwrap().report).expect("same config: accepted");
        let run = prover.clone().attest(&[5], Nonce::from_counter(1)).unwrap();
        let err = db.check(&[5], &run.report).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(_)), "default config: rejected, got {err:?}");
    }

    /// Spins `input[0]` times, then loads from address `input[1]`: a
    /// replay's length and its fault address are both chosen by the input.
    const SPIN_THEN_LOAD: &str = r#"
        .data
        input:
            .space 8
        .text
        main:
            la   t0, input
            lw   t1, 0(t0)
            lw   t2, 4(t0)
        spin:
            addi t1, t1, -1
            bnez t1, spin
            lw   a0, 0(t2)
            ecall
    "#;

    #[test]
    fn shared_build_returns_the_first_failing_inputs_error() {
        let program = assemble(SPIN_THEN_LOAD).unwrap();
        let valid = program.symbol("input").unwrap();
        let key = DeviceKey::from_seed("db-device");
        let verifier = Verifier::new(program, "spin-load", key.verification_key()).unwrap();
        // 64 inputs of ~4000 instructions each clear the floor after the first.
        let mut inputs: Vec<Vec<u32>> = (0..64).map(|_| vec![2_000, valid]).collect();
        // Input 20 faults late and input 40 early, so with helpers running
        // the later failure is usually found first; either way the error must
        // be input 20's, as a one-at-a-time replay reports it.
        inputs[20] = vec![200_000, 0xdead_0000];
        inputs[40] = vec![1, 0xbeef_0000];
        for _ in 0..8 {
            let err =
                MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone())
                    .unwrap_err();
            assert!(
                matches!(
                    err,
                    LofatError::Execution(lofat_rv32::Rv32Error::MemoryUnmapped {
                        addr: 0xdead_0000,
                        ..
                    })
                ),
                "expected input 20's fault, got {err:?}"
            );
        }
    }

    /// Mostly small values, with zero, the type's maximum and arbitrary
    /// (mostly many-byte) values mixed in.
    fn value(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), 0..300u64, Just(max), any::<u64>().prop_map(move |v| v & max)]
    }

    fn reference() -> impl Strategy<Value = ReferenceMeasurement> {
        let u32_max = u64::from(u32::MAX);
        let path = (value(u32_max), value(u64::MAX), value(u64::MAX)).prop_map(|(id, first, n)| {
            PathRecord { path_id: id as u32, first_occurrence: first as usize, iterations: n }
        });
        let target = (value(u32_max), value(u32_max)).prop_map(|(target, code)| {
            IndirectTargetRecord { target: target as u32, code: code as u32 }
        });
        let one_loop = (
            (value(u32_max), value(u32_max), value(u64::MAX)),
            proptest::collection::vec(path, 0..4),
            proptest::collection::vec(target, 0..3),
            any::<bool>(),
        )
            .prop_map(
                |((entry, exit, depth), paths, indirect_targets, encoder_overflowed)| LoopRecord {
                    entry: entry as u32,
                    exit: exit as u32,
                    nesting_depth: depth as usize,
                    paths,
                    indirect_targets,
                    encoder_overflowed,
                },
            );
        (
            proptest::collection::vec(any::<u8>(), 0..140),
            proptest::collection::vec(one_loop, 0..4),
            any::<u32>(),
        )
            .prop_map(|(digest, loops, expected_result)| ReferenceMeasurement {
                authenticator: Digest::from_bytes(digest),
                metadata: Metadata { loops },
                expected_result,
            })
    }

    /// The comparison `check` made before references were packed, less the
    /// program id (the judge's first check): struct equality, field group by
    /// field group.
    fn compare_structs(
        reference: &ReferenceMeasurement,
        report: &AttestationReport,
    ) -> Result<u32, RejectionReason> {
        if reference.authenticator != report.authenticator {
            Err(RejectionReason::AuthenticatorMismatch)
        } else if reference.metadata != report.metadata {
            Err(RejectionReason::MetadataMismatch)
        } else {
            Ok(reference.expected_result)
        }
    }

    /// Every report that differs from `report` in one field: each integer
    /// with all its bits or its lowest bit flipped, each flag negated, each
    /// authenticator byte changed, and each string or list one element
    /// longer or shorter.
    fn single_field_mutations(report: &AttestationReport) -> Vec<AttestationReport> {
        let mut out = Vec::new();
        let mut push = |edit: &dyn Fn(&mut AttestationReport)| {
            let mut mutated = report.clone();
            edit(&mut mutated);
            out.push(mutated);
        };
        push(&|r| r.program_id.push('!'));
        let digest = report.authenticator.as_bytes();
        for i in 0..digest.len() {
            let mut bytes = digest.to_vec();
            bytes[i] ^= 0x81;
            push(&|r| r.authenticator = Digest::from_bytes(bytes.clone()));
        }
        push(&|r| r.authenticator = Digest::from_bytes([digest, &[0]].concat()));
        if let Some((_, shorter)) = digest.split_last() {
            push(&|r| r.authenticator = Digest::from_bytes(shorter.to_vec()));
        }
        let new_loop = LoopRecord {
            entry: 0,
            exit: 0,
            nesting_depth: 1,
            paths: Vec::new(),
            indirect_targets: Vec::new(),
            encoder_overflowed: false,
        };
        push(&|r| r.metadata.loops.push(new_loop.clone()));
        push(&|r| {
            r.metadata.loops.pop();
        });
        for (i, l) in report.metadata.loops.iter().enumerate() {
            for v in [!l.entry, l.entry ^ 1] {
                push(&|r| r.metadata.loops[i].entry = v);
            }
            for v in [!l.exit, l.exit ^ 1] {
                push(&|r| r.metadata.loops[i].exit = v);
            }
            for v in [!l.nesting_depth, l.nesting_depth ^ 1] {
                push(&|r| r.metadata.loops[i].nesting_depth = v);
            }
            push(&|r| r.metadata.loops[i].encoder_overflowed = !l.encoder_overflowed);
            let new_path = PathRecord { path_id: 1, first_occurrence: 0, iterations: 1 };
            push(&|r| r.metadata.loops[i].paths.push(new_path));
            push(&|r| {
                r.metadata.loops[i].paths.pop();
            });
            for (j, p) in l.paths.iter().enumerate() {
                for v in [!p.path_id, p.path_id ^ 1] {
                    push(&|r| r.metadata.loops[i].paths[j].path_id = v);
                }
                for v in [!p.first_occurrence, p.first_occurrence ^ 1] {
                    push(&|r| r.metadata.loops[i].paths[j].first_occurrence = v);
                }
                for v in [!p.iterations, p.iterations ^ 1] {
                    push(&|r| r.metadata.loops[i].paths[j].iterations = v);
                }
            }
            let new_target = IndirectTargetRecord { target: 4, code: 1 };
            push(&|r| r.metadata.loops[i].indirect_targets.push(new_target));
            push(&|r| {
                r.metadata.loops[i].indirect_targets.pop();
            });
            for (j, t) in l.indirect_targets.iter().enumerate() {
                for v in [!t.target, t.target ^ 1] {
                    push(&|r| r.metadata.loops[i].indirect_targets[j].target = v);
                }
                for v in [!t.code, t.code ^ 1] {
                    push(&|r| r.metadata.loops[i].indirect_targets[j].code = v);
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        #[test]
        fn packed_references_round_trip_and_compare_like_the_structs(reference in reference()) {
            let packed = PackedReference::pack(&reference);
            prop_assert_eq!(packed.unpack(), reference.clone());
            prop_assert_eq!(serde::to_bytes(&packed), serde::to_bytes(&reference));

            let input = vec![7u32];
            let db = MeasurementDatabase {
                program_id: "packed".into(),
                entries: BTreeMap::from([(input.clone(), packed)]),
                config: EngineConfig::default(),
                valid_paths: BTreeMap::new(),
            };
            let honest = AttestationReport {
                program_id: "packed".into(),
                authenticator: reference.authenticator.clone(),
                metadata: reference.metadata.clone(),
                nonce: Nonce::from_counter(1),
                signature: Signature::from_bytes(Vec::new()),
            };
            let mutations = single_field_mutations(&honest);
            for report in std::iter::once(&honest).chain(&mutations) {
                let packed = match db.check(&input, report) {
                    Ok(matched) => Ok(matched.expected_result),
                    Err(LofatError::Rejected(reason)) => Err(reason),
                    Err(other) => panic!("a stored input came back as {other:?}"),
                };
                prop_assert_eq!(packed, compare_structs(&reference, report));
            }
        }
    }
}
