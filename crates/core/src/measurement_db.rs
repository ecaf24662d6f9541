//! Measurement database: precomputed reference measurements per input.
//!
//! The golden-replay verifier (see [`crate::verifier::Verifier::verify`]) recomputes
//! the expected measurement at verification time.  Embedded deployments — and the
//! C-FLAT scheme LO-FAT builds on — typically precompute the expected measurements
//! for the (small) set of inputs/commands a device accepts and then verify reports by
//! a lookup.  [`MeasurementDatabase`] provides that mode: it is built once offline
//! from the program binary and a list of anticipated inputs, keeps its entries in one
//! array sorted by input (so a lookup is a binary search, logarithmic in the number
//! of inputs, and an entry has a fixed index a live session can keep instead of its
//! input), and can be serialised and shipped to lightweight verifier front-ends that
//! do not carry the simulator at all.  Beside the entries it holds the verifier's
//! valid-path table, so the judge's loop-path check ([`crate::judge`]) needs no CFG
//! either.
//!
//! Each entry is held as a [`PackedReference`]: `A` and `L` in one heap block.
//! The record ends in `L`'s packed form — LEB128 varints, one stored record
//! per run of identical consecutive loop records — which is also its codec
//! form and what the signature covers.  So the judge compares a report's
//! packed `L` with the record's tail byte for byte, no run is ever
//! expanded, and the database's wire bytes and snapshots copy records rather
//! than re-encode them.

use crate::config::EngineConfig;
use crate::error::LofatError;
use crate::metadata::{put_varint, validate, varint_len, Fields, PackedMetadata};
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
/// about a 20th to a 40th of this much replay (~40-90 µs against ~1.6 ms of
/// crc32 and ~2.0 ms of syringe-pump replay on a 2-vCPU Xeon).
const PARALLEL_FLOOR_INSTRUCTIONS: u64 = 64 * 1024;

/// One precomputed reference measurement, decoded.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReferenceMeasurement {
    /// The expected authenticator `A` for this input.
    pub authenticator: Digest,
    /// The expected loop metadata `L` for this input.
    pub metadata: PackedMetadata,
    /// The expected program result (`a0` at exit) — useful for device health checks.
    pub expected_result: u32,
}

/// One reference measurement as the database holds it: `A` and `L` packed
/// into a single heap block.
///
/// The record is `A`'s length as a LEB128 varint and its bytes, then `L` in
/// its packed form ([`PackedMetadata`]).  The encoding is canonical, so
/// two records are equal exactly when the measurements are.  The codec form
/// is a [`ReferenceMeasurement`]'s, byte for byte: `A` and the packed `L`,
/// each behind its length, then the expected result.  The record already
/// holds both, so the codec writes it as it is and, once the strict reader
/// has accepted the packed `L`, keeps what it read.
/// [`MeasurementDatabase::check`] returns the entry a report matched, and
/// [`MeasurementDatabase::reference`] decodes one.  The judge compares a
/// report with a record in place, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedReference {
    /// The expected program result (`a0` at exit) — useful for device health checks.
    pub expected_result: u32,
    record: Box<[u8]>,
}

impl PackedReference {
    /// Copies a measurement's `A` and packed `L`, and its program result,
    /// into a record of exactly the bytes it needs.
    pub(crate) fn new(
        authenticator: &Digest,
        metadata: &PackedMetadata,
        expected_result: u32,
    ) -> Self {
        Self::from_parts(authenticator.as_bytes(), metadata.as_bytes(), expected_result)
    }

    /// The record of a digest and packed metadata the caller vouches for.
    fn from_parts(digest: &[u8], metadata: &[u8], expected_result: u32) -> Self {
        let len = varint_len(digest.len() as u64) + digest.len() + metadata.len();
        let mut record = Vec::with_capacity(len);
        put_varint(&mut record, digest.len() as u64);
        record.extend_from_slice(digest);
        record.extend_from_slice(metadata);
        Self { expected_result, record: record.into_boxed_slice() }
    }

    /// The record's two parts: the expected authenticator's bytes and the
    /// packed expected metadata.
    fn parts(&self) -> (&[u8], &[u8]) {
        let mut fields = Fields::new(&self.record);
        let len = fields.varint().expect(PACKED);
        let digest = fields.take(len as usize).expect(PACKED);
        (digest, fields.rest())
    }

    /// Copies the record back out into the measurement it packs.
    fn unpack(&self) -> ReferenceMeasurement {
        let (digest, metadata) = self.parts();
        ReferenceMeasurement {
            authenticator: Digest::from_bytes(digest.to_vec()),
            metadata: PackedMetadata::from_packed(metadata).expect(PACKED),
            expected_result: self.expected_result,
        }
    }

    /// The expected authenticator's bytes, read in place.
    pub(crate) fn authenticator(&self) -> &[u8] {
        self.parts().0
    }

    /// The expected metadata's packed bytes, read in place.
    pub(crate) fn metadata(&self) -> &[u8] {
        self.parts().1
    }
}

impl serde::Serialize for PackedReference {
    fn serialize(&self, serializer: &mut serde::Serializer) -> Result<(), serde::Error> {
        let (digest, metadata) = self.parts();
        for part in [digest, metadata] {
            serializer.write_len(part.len())?;
            serializer.write_bytes(part);
        }
        self.expected_result.serialize(serializer)
    }
}

impl serde::Deserialize for PackedReference {
    fn deserialize(deserializer: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let len = deserializer.read_len()?;
        let digest = deserializer.read_bytes(len)?;
        let len = deserializer.read_len()?;
        let metadata = deserializer.read_bytes(len)?;
        validate(metadata)?;
        let expected_result = u32::deserialize(deserializer)?;
        Ok(Self::from_parts(digest, metadata, expected_result))
    }
}

/// Why reading a record cannot fail: [`PackedReference::new`] copies packed
/// metadata, and the codec keeps only packed metadata the strict reader
/// accepts.
const PACKED: &str = "records hold a digest and canonical packed metadata";

/// The database's entries, sorted by input: a lookup is a binary search, and
/// an entry's position is the index a live session keeps.  The codec form is
/// a `BTreeMap<Vec<u32>, PackedReference>`'s, byte for byte, and decoding
/// goes through that map's strict reader, so entries that are not strictly
/// ascending are refused with [`serde::Error::NonCanonicalMap`].
#[derive(Debug, Clone, Default, PartialEq)]
struct Entries(Box<[(Vec<u32>, PackedReference)]>);

impl From<Vec<(Vec<u32>, PackedReference)>> for Entries {
    /// Sorts `entries` by input and keeps one entry per input (replays are
    /// deterministic, so the entries of one input agree).
    fn from(mut entries: Vec<(Vec<u32>, PackedReference)>) -> Self {
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        entries.dedup_by(|(a, _), (b, _)| a == b);
        Self(entries.into_boxed_slice())
    }
}

impl serde::Serialize for Entries {
    fn serialize(&self, serializer: &mut serde::Serializer) -> Result<(), serde::Error> {
        serializer.write_len(self.0.len())?;
        for (input, reference) in &self.0 {
            input.serialize(serializer)?;
            reference.serialize(serializer)?;
        }
        Ok(())
    }
}

impl serde::Deserialize for Entries {
    fn deserialize(deserializer: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let map: BTreeMap<Vec<u32>, PackedReference> = BTreeMap::deserialize(deserializer)?;
        Ok(Self(map.into_iter().collect()))
    }
}

/// A database of reference measurements keyed by program input.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MeasurementDatabase {
    program_id: String,
    entries: Entries,
    /// The engine configuration the references were computed with (prover reports
    /// produced under a different configuration will not match).
    config: EngineConfig,
    /// The valid path ids per statically enumerated loop entry, copied from
    /// [`Verifier::valid_loop_paths`].  Last, where snapshot version 2
    /// appended it.
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
        let mut entries = Vec::with_capacity(inputs.len());
        let (mut replayed, mut retired) = (0u64, 0u64);
        let mut threads = None;
        while let Some(input) = inputs.next() {
            let (reference, instructions) = measure(verifier, config, &input)?;
            entries.push((input, reference));
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
                        entries.push((input, reference?));
                    }
                }
            }
        }
        let db = Self {
            program_id: verifier.program_id().to_string(),
            entries: entries.into(),
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
        self.entries.0.len()
    }

    /// Returns `true` if the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.0.is_empty()
    }

    /// The engine configuration the references were computed under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Returns `true` if a reference measurement exists for `input`.
    pub fn contains(&self, input: &[u32]) -> bool {
        self.index_of(input).is_some()
    }

    /// The reference measurement for `input`, decoded from its packed record.
    pub fn reference(&self, input: &[u32]) -> Option<ReferenceMeasurement> {
        self.index_of(input).map(|index| self.entry(index).1.unpack())
    }

    /// The index of `input`'s entry, by binary search.
    pub(crate) fn index_of(&self, input: &[u32]) -> Option<u32> {
        let index = self.entries.0.binary_search_by(|(key, _)| key.as_slice().cmp(input)).ok()?;
        Some(u32::try_from(index).expect("the codec's u32 length prefix bounds the entry count"))
    }

    /// The input and the packed reference of entry `index`, as
    /// [`MeasurementDatabase::index_of`] numbered it.
    pub(crate) fn entry(&self, index: u32) -> (&[u32], &PackedReference) {
        let (input, reference) = &self.entries.0[index as usize];
        (input, reference)
    }

    /// The valid path ids per statically enumerated loop entry, as
    /// [`Verifier::valid_loop_paths`] enumerated them.
    pub fn valid_loop_paths(&self) -> &BTreeMap<u32, Vec<u32>> {
        &self.valid_paths
    }

    /// Heap bytes the database holds: every key and packed record and its
    /// slot in the entry array, and every valid-path list plus one key and
    /// value slot per list in the table's nodes (node headers and spare
    /// slots aside).
    pub fn heap_bytes(&self) -> usize {
        let words = |v: &Vec<u32>| v.capacity() * std::mem::size_of::<u32>();
        let slot = std::mem::size_of::<(Vec<u32>, PackedReference)>();
        let entries = self
            .entries
            .0
            .iter()
            .map(|(input, reference)| slot + words(input) + reference.record.len());
        let slot = std::mem::size_of::<(u32, Vec<u32>)>();
        let paths = self.valid_paths.values().map(|ids| slot + words(ids));
        self.program_id.capacity() + entries.sum::<usize>() + paths.sum::<usize>()
    }

    /// Runs the checks of [`crate::judge`] that follow the signature on a
    /// report for `input`: loop-path plausibility against the valid-path
    /// table (check 4), then the comparison with the stored reference,
    /// authenticator before metadata (check 5).  The program id, nonce and
    /// signature checks come first and are the caller's;
    /// [`crate::service::VerifierService`] runs all five, the last two
    /// against the entry its session keeps the index of.  Allocates nothing
    /// unless a check fails.
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::Rejected`] with the
    /// [`RejectionReason`](crate::verifier::RejectionReason) of the first
    /// failing check, or [`LofatError::InvalidConfig`] when the input was
    /// never precomputed.
    pub fn check(
        &self,
        input: &[u32],
        report: &AttestationReport,
    ) -> Result<&PackedReference, LofatError> {
        let Some(index) = self.index_of(input) else {
            return Err(LofatError::InvalidConfig {
                message: format!("no reference measurement precomputed for input {input:?}"),
            });
        };
        let (_, reference) = self.entry(index);
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
    use crate::metadata::tests::{decodable, mutated};
    use crate::metadata::{IndirectTargetRecord, LoopRecord, Metadata, PathRecord};
    use crate::prover::Prover;
    use crate::report::tests::edit_metadata;
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
    fn entries_encode_as_a_map_and_out_of_order_entries_are_refused() {
        let (_, verifier) = setup();
        let inputs = vec![vec![3u32], vec![1u32], vec![2u32], vec![1u32]];
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs).unwrap();
        assert_eq!(db.len(), 3, "one entry per input");
        let map: BTreeMap<Vec<u32>, PackedReference> = db.entries.0.iter().cloned().collect();
        assert_eq!(serde::to_bytes(&db.entries), serde::to_bytes(&map));
        let decode = |bytes: &[u8]| serde::from_bytes::<MeasurementDatabase>(bytes);
        assert_eq!(decode(&serde::to_bytes(&db).unwrap()), Ok(db.clone()));
        let mut swapped = db;
        swapped.entries.0.swap(0, 1);
        let refused = decode(&serde::to_bytes(&swapped).unwrap());
        assert_eq!(refused, Err(serde::Error::NonCanonicalMap));
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
        let path = PathRecord { path_id: 0b1_1111, iterations: 1 };
        edit_metadata(&mut invalid, |m| m.loops[0].paths.push(path));
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

    /// A decoded reference: `A`, `L` and the expected result.
    fn reference() -> impl Strategy<Value = (Digest, Metadata, u32)> {
        (
            proptest::collection::vec(any::<u8>(), 0..140),
            crate::metadata::tests::arbitrary(),
            any::<u32>(),
        )
            .prop_map(|(digest, metadata, expected_result)| {
                (Digest::from_bytes(digest), metadata, expected_result)
            })
    }

    /// A valid-path table for `metadata` that `seed` picks: each loop's entry
    /// listed or not, with some of its path ids left out and an unused one
    /// added, plus an entry no loop has.
    fn valid_paths_for(metadata: &Metadata, seed: u64) -> BTreeMap<u32, Vec<u32>> {
        let mut bits = (0..).map(|i: u32| seed.rotate_right(i % 64) & 1 == 1);
        let mut table = BTreeMap::from([(0x7777_7770, vec![3])]);
        for l in &metadata.loops {
            if bits.next().unwrap_or(false) {
                let ids = l.paths.iter().map(|p| p.path_id).filter(|_| bits.next() != Some(false));
                table.insert(l.entry, ids.chain([0b1_0101]).collect());
            }
        }
        table
    }

    /// Check 4 as the judge ran it on decoded records: the first record,
    /// in exit order, that neither overflowed its encoder nor took an
    /// indirect branch, whose entry the table lists and which reports a path
    /// id outside it, with the first such id.
    fn struct_loop_path_check(
        metadata: &Metadata,
        valid_paths: &BTreeMap<u32, Vec<u32>>,
    ) -> Result<(), RejectionReason> {
        for record in &metadata.loops {
            if record.encoder_overflowed || !record.indirect_targets.is_empty() {
                continue;
            }
            let Some(valid) = valid_paths.get(&record.entry) else { continue };
            if let Some(path) = record.paths.iter().find(|path| !valid.contains(&path.path_id)) {
                return Err(RejectionReason::InvalidLoopPath {
                    loop_entry: record.entry,
                    path_id: path.path_id,
                });
            }
        }
        Ok(())
    }

    /// The checks `check` runs, on decoded structs, less the program id (the
    /// judge's first check): check 4 on the records, then struct equality,
    /// field group by field group.
    fn compare_structs(
        (authenticator, metadata, expected_result): &(Digest, Metadata, u32),
        valid_paths: &BTreeMap<u32, Vec<u32>>,
        report: &AttestationReport,
    ) -> Result<u32, RejectionReason> {
        let reported = report.metadata.decode();
        struct_loop_path_check(&reported, valid_paths)?;
        if *authenticator != report.authenticator {
            Err(RejectionReason::AuthenticatorMismatch)
        } else if *metadata != reported {
            Err(RejectionReason::MetadataMismatch)
        } else {
            Ok(*expected_result)
        }
    }

    /// Every report that differs from `report` in one field: each integer
    /// with all its bits or its lowest bit flipped, each flag negated, each
    /// authenticator byte changed, each string or list one element longer or
    /// shorter, and each two neighbouring paths of a loop swapped.
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
        push(&|r| edit_metadata(r, |m| m.loops.push(new_loop.clone())));
        push(&|r| {
            edit_metadata(r, |m| {
                m.loops.pop();
            })
        });
        for (i, l) in report.metadata.decode().loops.iter().enumerate() {
            for v in [!l.entry, l.entry ^ 1] {
                push(&|r| edit_metadata(r, |m| m.loops[i].entry = v));
            }
            for v in [!l.exit, l.exit ^ 1] {
                push(&|r| edit_metadata(r, |m| m.loops[i].exit = v));
            }
            for v in [!l.nesting_depth, l.nesting_depth ^ 1] {
                push(&|r| edit_metadata(r, |m| m.loops[i].nesting_depth = v));
            }
            push(&|r| edit_metadata(r, |m| m.loops[i].encoder_overflowed = !l.encoder_overflowed));
            let new_path = PathRecord { path_id: 1, iterations: 1 };
            push(&|r| edit_metadata(r, |m| m.loops[i].paths.push(new_path)));
            push(&|r| {
                edit_metadata(r, |m| {
                    m.loops[i].paths.pop();
                })
            });
            for (j, p) in l.paths.iter().enumerate() {
                for v in [!p.path_id, p.path_id ^ 1] {
                    push(&|r| edit_metadata(r, |m| m.loops[i].paths[j].path_id = v));
                }
                for v in [!p.iterations, p.iterations ^ 1] {
                    push(&|r| edit_metadata(r, |m| m.loops[i].paths[j].iterations = v));
                }
            }
            for j in 1..l.paths.len() {
                push(&|r| edit_metadata(r, |m| m.loops[i].paths.swap(j - 1, j)));
            }
            let new_target = IndirectTargetRecord { target: 4, code: 1 };
            push(&|r| edit_metadata(r, |m| m.loops[i].indirect_targets.push(new_target)));
            push(&|r| {
                edit_metadata(r, |m| {
                    m.loops[i].indirect_targets.pop();
                })
            });
            for (j, t) in l.indirect_targets.iter().enumerate() {
                for v in [!t.target, t.target ^ 1] {
                    push(&|r| edit_metadata(r, |m| m.loops[i].indirect_targets[j].target = v));
                }
                for v in [!t.code, t.code ^ 1] {
                    push(&|r| edit_metadata(r, |m| m.loops[i].indirect_targets[j].code = v));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Checks 4 and 5 on packed bytes give the rejection the struct
        /// walk gives: with no valid-path table and with one `seed` picks,
        /// on the honest report, every single-field mutation of it and the
        /// one-byte edit of its packed `L` that `edit`, `at` and `byte`
        /// pick, when the reader accepts it.
        #[test]
        fn packed_references_round_trip_and_compare_like_the_structs(
            reference in reference(),
            seed in any::<u64>(),
            edit in 0..3u8,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let (authenticator, metadata, expected_result) = &reference;
            let metadata = metadata.pack();
            let packed = PackedReference::new(authenticator, &metadata, *expected_result);
            let decoded = ReferenceMeasurement {
                authenticator: authenticator.clone(),
                metadata: metadata.clone(),
                expected_result: *expected_result,
            };
            prop_assert_eq!(packed.unpack(), decoded.clone());
            prop_assert_eq!(serde::to_bytes(&packed), serde::to_bytes(&decoded));

            let input = vec![7u32];
            let honest = AttestationReport {
                program_id: "packed".into(),
                authenticator: authenticator.clone(),
                metadata: metadata.clone(),
                nonce: Nonce::from_counter(1),
                signature: Signature::from_bytes(Vec::new()),
            };
            let mut reports = single_field_mutations(&honest);
            if let Some(edited) = decodable(&mutated(metadata.as_bytes(), edit, at, byte)) {
                reports.push(AttestationReport { metadata: edited, ..honest.clone() });
            }
            reports.push(honest);
            for valid_paths in [BTreeMap::new(), valid_paths_for(&reference.1, seed)] {
                let db = MeasurementDatabase {
                    program_id: "packed".into(),
                    entries: vec![(input.clone(), packed.clone())].into(),
                    config: EngineConfig::default(),
                    valid_paths: valid_paths.clone(),
                };
                for report in &reports {
                    let packed = match db.check(&input, report) {
                        Ok(matched) => Ok(matched.expected_result),
                        Err(LofatError::Rejected(reason)) => Err(reason),
                        Err(other) => panic!("a stored input came back as {other:?}"),
                    };
                    prop_assert_eq!(packed, compare_structs(&reference, &valid_paths, report));
                }
            }
        }
    }
}
