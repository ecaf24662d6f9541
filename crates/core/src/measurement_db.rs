//! Measurement database: precomputed reference measurements per input.
//!
//! The golden-replay verifier (see [`crate::verifier::Verifier::verify`]) recomputes
//! the expected measurement at verification time.  Embedded deployments — and the
//! C-FLAT scheme LO-FAT builds on — typically precompute the expected measurements
//! for the (small) set of inputs/commands a device accepts and then verify reports by
//! a constant-time lookup.  [`MeasurementDatabase`] provides that mode: it is built
//! once offline from the program binary and a list of anticipated inputs, and can be
//! serialised and shipped to lightweight verifier front-ends that do not carry the
//! simulator at all.

use crate::config::EngineConfig;
use crate::error::LofatError;
use crate::metadata::Metadata;
use crate::report::AttestationReport;
use crate::verifier::{RejectionReason, Verifier};
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

/// One precomputed reference measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReferenceMeasurement {
    /// The expected authenticator `A` for this input.
    pub authenticator: Digest,
    /// The expected loop metadata `L` for this input.
    pub metadata: Metadata,
    /// The expected program result (`a0` at exit) — useful for device health checks.
    pub expected_result: u32,
}

/// A database of reference measurements keyed by program input.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MeasurementDatabase {
    program_id: String,
    entries: BTreeMap<Vec<u32>, ReferenceMeasurement>,
    /// The engine configuration the references were computed with (prover reports
    /// produced under a different configuration will not match).
    config: EngineConfig,
}

impl MeasurementDatabase {
    /// Builds a database by golden-replaying `verifier`'s program, under
    /// `config`, on every input.
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
        let db = Self { program_id: verifier.program_id().to_string(), entries, config };
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

    /// Looks up the reference measurement for `input`.
    pub fn reference(&self, input: &[u32]) -> Option<&ReferenceMeasurement> {
        self.entries.get(input)
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

    /// Checks a report against the stored reference for `input` (signature and nonce
    /// checks are the caller's/`Verifier`'s responsibility — this is the measurement
    /// comparison only).
    ///
    /// # Errors
    ///
    /// Returns the [`RejectionReason`] describing the first mismatch, or
    /// [`LofatError::MissingSymbol`]-style lookup failure when the input was never
    /// precomputed (reported as `MetadataMismatch` to avoid a new variant leaking
    /// database internals).
    pub fn check(
        &self,
        input: &[u32],
        report: &AttestationReport,
    ) -> Result<&ReferenceMeasurement, LofatError> {
        let Some(reference) = self.reference(input) else {
            return Err(LofatError::InvalidConfig {
                message: format!("no reference measurement precomputed for input {input:?}"),
            });
        };
        if report.program_id != self.program_id {
            return Err(LofatError::Rejected(RejectionReason::ProgramIdMismatch {
                expected: self.program_id.clone(),
                found: report.program_id.clone(),
            }));
        }
        if reference.authenticator != report.authenticator {
            return Err(LofatError::Rejected(RejectionReason::AuthenticatorMismatch));
        }
        if reference.metadata != report.metadata {
            return Err(LofatError::Rejected(RejectionReason::MetadataMismatch));
        }
        Ok(reference)
    }
}

/// Replays one input: its reference measurement and the instructions retired.
fn measure(
    verifier: &Verifier,
    config: EngineConfig,
    input: &[u32],
) -> Result<(ReferenceMeasurement, u64), LofatError> {
    let (measurement, exit) = verifier.replay(config, input)?;
    let reference = ReferenceMeasurement {
        authenticator: measurement.authenticator,
        metadata: measurement.metadata,
        expected_result: exit.register_a0,
    };
    Ok((reference, exit.instructions))
}

/// Replays `inputs` on the calling thread and `helpers` scoped threads, which
/// claim input indices from one atomic counter; returns the results in input
/// order.  Only inputs after the first failure may be missing.
///
/// Helpers send each result over a channel.  Between its own replays the
/// calling thread takes them in and deep-clones each, dropping the helper's
/// copy, so that no long-lived entry sits in a helper thread's malloc arena.
/// After a failure no thread claims a later index; every earlier index was
/// claimed before it and still completes, so the first failure in input
/// order is the one a one-at-a-time replay meets.
fn replay_shared(
    verifier: &Verifier,
    config: EngineConfig,
    inputs: &[Vec<u32>],
    helpers: usize,
) -> impl Iterator<Item = Result<ReferenceMeasurement, LofatError>> {
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
    let mut slots: Vec<Option<Result<ReferenceMeasurement, LofatError>>> =
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
        let rehome = |helpers_copy: ReferenceMeasurement| {
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
    use lofat_crypto::{DeviceKey, Nonce};
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
    fn wrong_program_id_is_rejected() {
        let (mut prover, verifier) = setup();
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![2u32]])
            .unwrap();
        let mut run = prover.attest(&[2], Nonce::from_counter(1)).unwrap();
        run.report.program_id = "other".into();
        let err = db.check(&[2], &run.report).unwrap_err();
        assert!(matches!(err, LofatError::Rejected(RejectionReason::ProgramIdMismatch { .. })));
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
}
