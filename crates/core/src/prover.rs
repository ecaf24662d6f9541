//! The prover `P` (Fig. 2): the embedded device running the attested program with the
//! LO-FAT hardware attached.
//!
//! The prover loads the verifier-supplied input `i` into the program's input buffer,
//! executes the program while the [`crate::engine::LofatEngine`] observes the trace
//! port, and signs the resulting measurement together with the verifier's nonce using
//! the device key held in the hardware-protected key register.
//!
//! The adversary of the paper controls data memory through memory-corruption
//! vulnerabilities; [`Adversary`] models that capability as a fault-injection hook
//! that may rewrite writable memory between instructions (but can never touch the
//! `rx` code segment or the engine's own state).

use crate::config::EngineConfig;
use crate::engine::{EngineStats, LofatEngine};
use crate::error::LofatError;
use crate::report::AttestationReport;
use lofat_crypto::{DeviceKey, HmacSigner, Nonce, Signer};
use lofat_rv32::{Cpu, ExitInfo, Program};

/// Default cycle budget for an attested run.
pub const DEFAULT_MAX_CYCLES: u64 = 10_000_000;

/// Name of the data-segment symbol the prover writes the verifier input to.
pub const INPUT_SYMBOL: &str = "input";
/// Name of the optional symbol receiving the number of input words.
pub const INPUT_LEN_SYMBOL: &str = "input_len";

/// A run-time adversary with full control over writable data memory (§3).
pub trait Adversary {
    /// Called before every executed instruction with the number of instructions
    /// retired so far; may corrupt any writable memory through the CPU handle.
    fn tamper(&mut self, cpu: &mut Cpu, instructions_retired: u64);
}

/// The benign case: nobody tampers with memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdversary;

impl Adversary for NoAdversary {
    fn tamper(&mut self, _cpu: &mut Cpu, _instructions_retired: u64) {}
}

impl<F: FnMut(&mut Cpu, u64)> Adversary for F {
    fn tamper(&mut self, cpu: &mut Cpu, instructions_retired: u64) {
        self(cpu, instructions_retired)
    }
}

/// Outcome of one attested execution on the prover.
#[derive(Debug, Clone)]
pub struct ProverRun {
    /// The signed attestation report to send to the verifier.
    pub report: AttestationReport,
    /// CPU exit information (cycles, instructions, result register).
    pub exit: ExitInfo,
    /// Engine statistics of this run.
    pub stats: EngineStats,
}

/// The prover device.
#[derive(Debug, Clone)]
pub struct Prover {
    program: Program,
    program_id: String,
    config: EngineConfig,
    signer: HmacSigner,
    max_cycles: u64,
}

impl Prover {
    /// Creates a prover for `program`, identified as `program_id`, holding
    /// `device_key` in its protected key register.
    pub fn new(program: Program, program_id: impl Into<String>, device_key: DeviceKey) -> Self {
        Self {
            program,
            program_id: program_id.into(),
            config: EngineConfig::default(),
            signer: HmacSigner::new(device_key),
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }

    /// Replaces the engine configuration (default: the paper prototype).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the cycle budget for attested runs.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The attested program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The program identifier (`id_S`).
    pub fn program_id(&self) -> &str {
        &self.program_id
    }

    /// Wraps this prover in a sans-I/O [`crate::session::ProverSession`] that
    /// answers challenge envelopes with evidence envelopes.
    pub fn session(&mut self) -> crate::session::ProverSession<'_> {
        crate::session::ProverSession::new(self)
    }

    /// Runs the attested program on input `input` and produces a signed report bound
    /// to `nonce`.
    ///
    /// # Errors
    ///
    /// Fails if the program needs an input buffer it does not define, if execution
    /// faults or exceeds the cycle budget, or if the engine cannot be finalized.
    pub fn attest(&mut self, input: &[u32], nonce: Nonce) -> Result<ProverRun, LofatError> {
        self.attest_with_adversary(input, nonce, &mut NoAdversary)
    }

    /// Like [`Prover::attest`], but with a run-time adversary corrupting data memory.
    ///
    /// # Errors
    ///
    /// Same as [`Prover::attest`].
    pub fn attest_with_adversary<A: Adversary + ?Sized>(
        &mut self,
        input: &[u32],
        nonce: Nonce,
        adversary: &mut A,
    ) -> Result<ProverRun, LofatError> {
        let mut engine = LofatEngine::for_program(&self.program, self.config)?;
        let mut cpu = Cpu::new(&self.program)?;
        load_input(&self.program, &mut cpu, input)?;

        let exit = loop {
            let retired = cpu.instructions();
            adversary.tamper(&mut cpu, retired);
            if let Some(exit) = cpu.step(&mut engine)? {
                break exit;
            }
            if cpu.cycles() > self.max_cycles {
                return Err(LofatError::Execution(lofat_rv32::Rv32Error::CycleLimitExceeded {
                    limit: self.max_cycles,
                }));
            }
        };

        let measurement = engine.finalize()?;
        let payload = AttestationReport::signed_bytes(
            &self.program_id,
            &measurement.authenticator,
            &measurement.metadata,
            &nonce,
        );
        let signature = self.signer.sign(&payload).map_err(LofatError::Signature)?;
        Ok(ProverRun {
            report: AttestationReport {
                program_id: self.program_id.clone(),
                authenticator: measurement.authenticator,
                metadata: measurement.metadata,
                nonce,
                signature,
            },
            exit,
            stats: measurement.stats,
        })
    }
}

/// Writes the verifier input into `program`'s input buffer, and its length
/// into `input_len` if the program defines one; an empty input needs neither.
/// Data pokes leave the CPU's predecode table fresh, so a run decodes its
/// program once.
pub(crate) fn load_input(
    program: &Program,
    cpu: &mut Cpu,
    input: &[u32],
) -> Result<(), LofatError> {
    if input.is_empty() {
        return Ok(());
    }
    let addr = program
        .symbol(INPUT_SYMBOL)
        .ok_or_else(|| LofatError::MissingSymbol { name: INPUT_SYMBOL.into() })?;
    let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
    cpu.poke_data(addr, &bytes)?;
    if let Some(len_addr) = program.symbol(INPUT_LEN_SYMBOL) {
        cpu.poke_data(len_addr, &(input.len() as u32).to_le_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_rv32::asm::assemble;

    const SUM_INPUT_PROGRAM: &str = r#"
        .data
        input:
            .space 64
        input_len:
            .word 0
        .text
        main:
            la   t0, input
            la   t1, input_len
            lw   t1, 0(t1)
            li   a0, 0
            beqz t1, done
        loop:
            lw   t2, 0(t0)
            add  a0, a0, t2
            addi t0, t0, 4
            addi t1, t1, -1
            bnez t1, loop
        done:
            ecall
    "#;

    fn prover() -> Prover {
        let program = assemble(SUM_INPUT_PROGRAM).unwrap();
        Prover::new(program, "sum", DeviceKey::from_seed("test-device"))
    }

    #[test]
    fn attest_produces_signed_report_and_result() {
        let mut prover = prover();
        let run = prover.attest(&[5, 7, 11], Nonce::from_counter(1)).unwrap();
        assert_eq!(run.exit.register_a0, 23);
        assert_eq!(run.report.program_id, "sum");
        assert_eq!(run.report.nonce, Nonce::from_counter(1));
        // The signature verifies under the matching verification key.
        let vk = DeviceKey::from_seed("test-device").verification_key();
        let verifier = lofat_crypto::sign::HmacVerifier::new(vk);
        use lofat_crypto::SignatureVerifier;
        assert!(verifier.verify(&run.report.payload(), &run.report.signature).is_ok());
    }

    #[test]
    fn different_inputs_produce_different_reports() {
        let mut prover = prover();
        let a = prover.attest(&[1, 2, 3], Nonce::from_counter(1)).unwrap();
        let b = prover.attest(&[1, 2, 3, 4], Nonce::from_counter(1)).unwrap();
        // One extra loop iteration shows up in the metadata.
        assert_ne!(a.report.metadata, b.report.metadata);
    }

    #[test]
    fn missing_input_symbol_is_reported() {
        let program = assemble(".text\nmain:\n    ecall\n").unwrap();
        let mut prover = Prover::new(program, "noinput", DeviceKey::from_seed("k"));
        let err = prover.attest(&[1], Nonce::from_counter(0)).unwrap_err();
        assert!(matches!(err, LofatError::MissingSymbol { .. }));
        // No input is fine.
        assert!(prover.attest(&[], Nonce::from_counter(0)).is_ok());
    }

    #[test]
    fn adversary_hook_runs_and_can_corrupt_data() {
        let mut prover = prover();
        let honest = prover.attest(&[1, 1, 1, 1], Nonce::from_counter(3)).unwrap();
        // The adversary rewrites the loop bound in memory after the input is loaded
        // but before the program reads it (a non-control-data attack).
        let input_len = prover.program().symbol("input_len").unwrap();
        let mut attack = |cpu: &mut Cpu, retired: u64| {
            if retired == 2 {
                cpu.memory_mut().poke_bytes(input_len, &2u32.to_le_bytes()).unwrap();
            }
        };
        let tampered = prover
            .attest_with_adversary(&[1, 1, 1, 1], Nonce::from_counter(3), &mut attack)
            .unwrap();
        assert_eq!(tampered.exit.register_a0, 2, "the attack shortened the loop");
        assert_ne!(
            honest.report.metadata, tampered.report.metadata,
            "the loop-counter manipulation is visible in the attested metadata"
        );
    }

    #[test]
    fn cycle_budget_is_enforced() {
        let program = assemble(".text\nmain:\nspin:\n    j spin\n").unwrap();
        let mut prover =
            Prover::new(program, "spin", DeviceKey::from_seed("k")).with_max_cycles(1_000);
        let err = prover.attest(&[], Nonce::from_counter(0)).unwrap_err();
        assert!(matches!(err, LofatError::Execution(_)));
    }
}
