//! Shared helpers for the LO-FAT benchmark harness.
//!
//! Each bench target under `benches/` regenerates one experiment of the paper's
//! evaluation (E1–E9, each paired with its integration suite under `tests/`):
//! it first prints the table or series the experiment reports, then uses
//! Criterion to time the relevant operation.  `e10_throughput` times the
//! simulator's own hot paths instead, and [`throughput`] measures the rates
//! `lofat bench-json` writes.  The helpers here mirror the workload
//! conventions used by the integration tests.

use lofat::{EngineConfig, LofatEngine, Measurement};
use lofat_rv32::{Cpu, ExitInfo, Program};
use lofat_workloads::Workload;

/// Cycle budget for benchmark runs.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Loads `input` into a fresh CPU for `program` (workload convention: `input` buffer
/// plus optional `input_len`).
pub fn cpu_with_input(program: &Program, input: &[u32]) -> Cpu {
    let mut cpu = Cpu::new(program).expect("load program");
    if !input.is_empty() {
        let addr = program.symbol("input").expect("workload defines `input`");
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        cpu.memory_mut().poke_bytes(addr, &bytes).expect("poke input");
        if let Some(len) = program.symbol("input_len") {
            cpu.memory_mut()
                .poke_bytes(len, &(input.len() as u32).to_le_bytes())
                .expect("poke input_len");
        }
    }
    cpu
}

/// Runs `program` on `input` without attestation.
pub fn run_plain(program: &Program, input: &[u32]) -> ExitInfo {
    let mut cpu = cpu_with_input(program, input);
    cpu.run(MAX_CYCLES).expect("plain run")
}

/// Runs `program` on `input` with a LO-FAT engine attached.
pub fn run_attested(
    program: &Program,
    input: &[u32],
    config: EngineConfig,
) -> (Measurement, ExitInfo) {
    let mut engine = LofatEngine::for_program(program, config).expect("engine");
    let mut cpu = cpu_with_input(program, input);
    let exit = cpu.run_traced(MAX_CYCLES, &mut engine).expect("attested run");
    (engine.finalize().expect("finalize"), exit)
}

/// Convenience: attest a catalogue workload with the default configuration.
pub fn attest_workload(workload: &Workload, input: &[u32]) -> (Measurement, ExitInfo) {
    let program = workload.program().expect("assemble workload");
    run_attested(&program, input, EngineConfig::default())
}

pub mod throughput {
    //! E10 — the in-process hot-path rates `lofat bench-json` writes.
    //!
    //! Five numbers summarise the simulator's hot paths: attested and plain
    //! instructions per second on the syringe-pump workload (the attested run
    //! adds the trace port and the engine to the CPU), hashed bytes per
    //! second of the software SHA-3-512 (sponge absorb path) scalar and
    //! through the 4-lane batch, and nanoseconds per Keccak-f\[1600\]
    //! permutation.  One more times the verifier: evidence sessions per
    //! second through a service.  [`measure`] samples them all with a
    //! best-of-N harness of 1 s wall-clock windows (the host's clock is
    //! noisy; the *best* window is the least-perturbed one), and [`to_json`]
    //! renders the document.  The rates follow the host's speed, so they
    //! mean something only next to another build's rates measured on the
    //! same host at the same time, which is how `scripts/bench_pair.py`
    //! reads them.

    use super::{run_attested, run_plain};
    use lofat::json::JsonWriter;
    use lofat::{
        EngineConfig, MeasurementDatabase, Prover, ServiceConfig, ServiceStats, Verifier,
        VerifierService,
    };
    use lofat_crypto::keccak::KeccakState;
    use lofat_crypto::{DeviceKey, Sha3_512};
    use lofat_fleet::SlotBehaviour;
    use lofat_workloads::catalog;
    use std::time::Instant;

    /// Syringe-pump units used by the throughput workload (≈ 62k instructions
    /// per run, enough for the steady-state loop path to dominate setup).
    pub const SYRINGE_UNITS: u32 = 2000;

    /// Wall-clock seconds per measurement window.
    const WINDOW_SECS: f64 = 1.0;

    /// Windows per rate; the best one wins.  The attested rate, the headline,
    /// gets two more.
    const REPS: u32 = 4;

    /// Syringe-pump units per verified session: the service is the subject,
    /// so prover runs are setup, not the measurement.
    const VERIFY_UNITS: u32 = 200;

    /// Evidence envelopes per verify pass, every one timed.  A pass takes a
    /// few milliseconds, so a window times hundreds of them.
    const VERIFY_SESSIONS: usize = 768;

    /// One set of hot-path throughput numbers.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ThroughputSample {
        /// Attested instructions per second (syringe-pump, [`SYRINGE_UNITS`]).
        pub attested_instructions_per_sec: f64,
        /// Un-attested instructions per second on the same workload.
        pub plain_instructions_per_sec: f64,
        /// Software SHA-3-512 bytes per second over a 1 MiB buffer.
        pub hashed_bytes_per_sec: f64,
        /// Bytes per second hashing four independent 1 MiB buffers through the
        /// 4-way packed permutation (`Sha3_512::digest_many`).
        pub hashed_bytes_per_sec_x4: f64,
        /// Nanoseconds per Keccak-f\[1600\] permutation.
        pub ns_per_permutation: f64,
        /// Verified sessions per second, single-threaded through a one-shard
        /// service: every envelope pays the signed-payload MAC, the
        /// measurement check and the spend.
        pub verify_sessions_per_sec: f64,
    }

    /// Runs `f` repeatedly for [`WINDOW_SECS`] and returns the achieved rate
    /// in `units_per_call / elapsed` terms, taking the best of `reps` windows.
    fn best_rate(reps: u32, units_per_call: f64, mut f: impl FnMut()) -> f64 {
        let mut best = 0.0f64;
        for _ in 0..reps {
            let mut calls = 0u64;
            let start = Instant::now();
            loop {
                f();
                calls += 1;
                if start.elapsed().as_secs_f64() >= WINDOW_SECS {
                    break;
                }
            }
            let rate = calls as f64 * units_per_call / start.elapsed().as_secs_f64();
            best = best.max(rate);
        }
        best
    }

    /// Measures every rate of a [`ThroughputSample`], each the best of its
    /// windows.
    pub fn measure() -> ThroughputSample {
        let workload = catalog::by_name("syringe-pump").expect("workload in catalogue");
        let program = workload.program().expect("assemble");
        let input = [SYRINGE_UNITS];
        // One warm-up run also yields the per-run instruction count.
        let (_, exit) = run_attested(&program, &input, EngineConfig::default());
        let instructions = exit.instructions as f64;

        // Plain first (it warms the CPU-model path the attested run shares);
        // the attested headline metric gets two extra windows.
        let plain = best_rate(REPS, instructions, || {
            std::hint::black_box(run_plain(&program, &input));
        });
        let attested = best_rate(REPS + 2, instructions, || {
            std::hint::black_box(run_attested(&program, &input, EngineConfig::default()));
        });

        let buf = vec![0xA5u8; 1 << 20];
        let hashed = best_rate(REPS, buf.len() as f64, || {
            std::hint::black_box(Sha3_512::digest(&buf));
        });

        // Four independent 1 MiB buffers through the packed 4-way permutation —
        // the batch shape the verifier uses to drain concurrent sessions.
        let bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA5 ^ i; 1 << 20]).collect();
        let hashed_x4 = best_rate(REPS, (4 << 20) as f64, || {
            std::hint::black_box(Sha3_512::digest_many(&bufs));
        });

        // Chain permutations through one state so the measurement reflects the
        // dependent-latency figure the hash engine actually experiences.
        let mut state = KeccakState::new();
        let per_call = 64u32;
        let perms_per_sec = best_rate(REPS, f64::from(per_call), || {
            for _ in 0..per_call {
                state.permute();
            }
        });
        std::hint::black_box(&state);

        // The first window doubles as the warm-up: it pays the first-touch
        // costs (page faults, allocator arenas) the others skip.
        let verify = VerifyPass::new(VERIFY_SESSIONS);
        let verify_sessions_per_sec = (0..REPS).map(|_| verify.window()).fold(0.0, f64::max);

        ThroughputSample {
            attested_instructions_per_sec: attested,
            plain_instructions_per_sec: plain,
            hashed_bytes_per_sec: hashed,
            hashed_bytes_per_sec_x4: hashed_x4,
            ns_per_permutation: 1e9 / perms_per_sec,
            verify_sessions_per_sec,
        }
    }

    /// The verifier's evidence path: honest evidence replayed single-threaded
    /// through `handle_bytes` into a fresh one-shard service.  Every envelope
    /// attests the same workload and input, and each one is decoded, MACs its
    /// signed payload, is checked against the database and spends its
    /// session.
    struct VerifyPass {
        db: MeasurementDatabase,
        key: DeviceKey,
        input: Vec<u32>,
        /// Answers to a fresh service's first nonces, in order: a fresh
        /// service issues the same nonce sequence, so these bytes answer
        /// every pass.
        evidence: Vec<Vec<u8>>,
    }

    impl VerifyPass {
        /// Pre-generates `sessions` (at least 1) honest syringe-pump envelopes
        /// of [`VERIFY_UNITS`] units through the shared `lofat-fleet` session
        /// driver.
        fn new(sessions: usize) -> Self {
            assert!(sessions >= 1, "a verify pass needs an envelope to time");
            let workload = catalog::by_name("syringe-pump").expect("workload in catalogue");
            let program = workload.program().expect("assemble");
            let key = DeviceKey::from_seed("e10-verify");
            let mut prover = Prover::new(program.clone(), "syringe-pump", key.clone());
            let verifier = Verifier::new(program, "syringe-pump", key.verification_key())
                .expect("construct verifier");
            let input = vec![VERIFY_UNITS];
            let db =
                MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![input.clone()])
                    .expect("reference measurement");
            let template =
                VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::default());
            let slots = (0..sessions).map(|_| (input.clone(), SlotBehaviour::Honest));
            let evidence = lofat_fleet::generate_traffic(&template, &mut prover, slots)
                .expect("pre-generate honest evidence")
                .into_iter()
                .map(|slot| slot.evidence)
                .collect();
            Self { db, key, input, evidence }
        }

        /// Envelopes verified per second over one window: passes, each on a
        /// fresh service, run until at least [`WINDOW_SECS`] of them were
        /// timed.
        fn window(&self) -> f64 {
            let (mut passes, mut timed) = (0u32, 0.0);
            while timed < WINDOW_SECS {
                timed += self.run().0;
                passes += 1;
            }
            f64::from(passes) * self.evidence.len() as f64 / timed
        }

        /// One pass through a fresh one-shard service (the pass is
        /// sequential, and its sessions are opened before the timer starts):
        /// the seconds its envelopes took, and the service's books after the
        /// last envelope.
        fn run(&self) -> (f64, ServiceStats) {
            let config = ServiceConfig::sharded(1);
            let service =
                VerifierService::new(self.db.clone(), self.key.verification_key(), config);
            for _ in 0..self.evidence.len() {
                service.open_session(self.input.clone()).expect("open verify-pass session");
            }
            let start = Instant::now();
            for bytes in &self.evidence {
                std::hint::black_box(service.handle_bytes(bytes).expect("verdict encodes"));
            }
            (start.elapsed().as_secs_f64(), service.stats())
        }
    }

    /// Renders the document `lofat bench-json` writes: the bench name, the
    /// packed-Keccak kernel the 4-lane rate ran on, and the sample under
    /// `current`.
    pub fn to_json(sample: &ThroughputSample) -> String {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("bench", "e10_throughput");
        w.field_str("simd_tier", lofat_crypto::simd_tier());
        w.begin_object(Some("current"));
        w.field_f64("attested_instructions_per_sec", sample.attested_instructions_per_sec, 1);
        w.field_f64("plain_instructions_per_sec", sample.plain_instructions_per_sec, 1);
        w.field_f64("hashed_bytes_per_sec", sample.hashed_bytes_per_sec, 1);
        w.field_f64("hashed_bytes_per_sec_x4", sample.hashed_bytes_per_sec_x4, 1);
        w.field_f64("ns_per_permutation", sample.ns_per_permutation, 1);
        w.field_f64("verify_sessions_per_sec", sample.verify_sessions_per_sec, 1);
        w.end_object();
        w.end_object();
        w.finish()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn a_verify_pass_accepts_every_envelope() {
            let (seconds, stats) = VerifyPass::new(6).run();
            assert_eq!(stats.accepted, 6, "the honest pass accepts everything");
            assert_eq!(stats.rejected, 0);
            assert!(seconds > 0.0);
        }
    }
}
