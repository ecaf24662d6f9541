//! The LO-FAT engine: the composition of all Fig. 3 units into a trace-port sink.
//!
//! The engine implements [`lofat_rv32::trace::TraceSink`], so attaching it to a CPU
//! run is a one-liner; crucially it is a *pure observer* — it never influences the
//! CPU's cycle count, which is exactly the paper's "no processor stalls" property
//! (experiment E2 checks it by construction and by measurement).
//!
//! Internally the engine does incur latency (2 cycles per branch event and 5 cycles
//! per loop exit, §6.1), which it accounts in [`EngineStats`] without ever blocking
//! the trace stream (experiment E3).
//!
//! Per retired instruction the engine does a region test, an exit-window test
//! on the loop monitor's cached stack top and a branch test; everything else
//! is driven by events.  The loop monitor bumps [`EngineStats`] in place and
//! appends the pairs to hash and the completed loop records, packed, to one
//! [`MonitorOutput`] that lives as long as the run.  The hash path is owed one
//! step per retired instruction and settles the debt only when a batch of
//! pairs arrives or the run ends (see [`crate::hash_ctrl`]).

use crate::branch_filter::BranchFilter;
use crate::config::{EngineConfig, BRANCH_EVENT_LATENCY};
use crate::error::LofatError;
use crate::hash_ctrl::HashController;
use crate::loop_monitor::{LoopMonitor, MonitorOutput};
use crate::metadata::PackedMetadata;
use lofat_crypto::Digest;
use lofat_rv32::trace::{BranchKind, RetiredInst, TraceSink};
use lofat_rv32::Program;

/// Statistics gathered by the engine during an attested run.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Retired instructions observed on the trace port.
    pub instructions_observed: u64,
    /// Control-flow events filtered in by the branch filter.
    pub branch_events: u64,
    /// Loops entered (tracked activations).
    pub loops_entered: u64,
    /// Loops exited (records produced).
    pub loops_exited: u64,
    /// Loop entries that could not be tracked because the nesting capacity was full.
    pub untracked_loops: u64,
    /// Completed loop iterations counted by the loop counter memory.
    pub iterations_counted: u64,
    /// Newly observed loop paths (each hashed exactly once).
    pub new_paths: u64,
    /// `(Src, Dest)` pairs forwarded to the hash engine.
    pub pairs_hashed: u64,
    /// `(Src, Dest)` pairs whose hashing was avoided by loop compression.
    pub pairs_compressed: u64,
    /// CAM overflow events (indirect targets reported with the all-zero code).
    pub cam_overflows: u64,
    /// Deepest simultaneous loop nesting observed.
    pub max_nesting_observed: usize,
    /// Deepest call/recursion depth observed (linking branches minus returns); the
    /// paper's loop metadata covers recursive functions' iteration behaviour and this
    /// statistic exposes the recursion depth the engine had to follow.
    pub max_call_depth: usize,
    /// Internal engine latency in cycles (2 per branch event + 5 per loop exit);
    /// absorbed by buffering, never exposed to the processor.
    pub internal_latency_cycles: u64,
    /// Extra cycles the attested software had to spend because of attestation —
    /// always 0 for LO-FAT, reported for symmetry with the C-FLAT baseline.
    pub processor_overhead_cycles: u64,
}

impl EngineStats {
    /// Fraction of control-flow pairs that did not need hashing thanks to loop
    /// compression.
    pub fn compression_ratio(&self) -> f64 {
        let total = self.pairs_hashed + self.pairs_compressed;
        if total == 0 {
            0.0
        } else {
            self.pairs_compressed as f64 / total as f64
        }
    }
}

/// The result of an attested execution: the authenticator `A`, the loop metadata `L`
/// and the engine statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The cumulative SHA-3-512 authenticator over the executed `(Src, Dest)` pairs.
    pub authenticator: Digest,
    /// The loop auxiliary metadata.
    pub metadata: PackedMetadata,
    /// Engine statistics (not part of the signed report, but used by the evaluation).
    pub stats: EngineStats,
}

impl Measurement {
    /// The measurement's share of the bytes the prover signs: `A` and the
    /// packed `L`, each behind its `u32` length, as the report's wire
    /// encoding holds them between the program id and the nonce.
    pub fn signed_payload(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let fields = [self.authenticator.as_bytes(), self.metadata.as_bytes()];
        crate::report::framed_pieces(&fields, |piece| payload.extend_from_slice(piece));
        payload
    }
}

/// The LO-FAT engine.
#[derive(Debug, Clone)]
pub struct LofatEngine {
    config: EngineConfig,
    filter: BranchFilter,
    monitor: LoopMonitor,
    hash: HashController,
    stats: EngineStats,
    /// The monitor's hand-off: the pairs of the current event, drained into
    /// the hash path as one batch, and the loop records completed so far,
    /// packed, the metadata `L` at the end of the run.  Its buffers keep
    /// their capacity across events, which is what makes the steady-state
    /// trace path allocation-free.
    out: MonitorOutput,
    /// Current call depth (linking branches minus returns), for the recursion stat.
    call_depth: usize,
    finalized: bool,
}

impl LofatEngine {
    /// Creates an engine attesting the code region given in `config` (the whole
    /// address space if no region is configured).
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: EngineConfig) -> Result<Self, LofatError> {
        config.validate()?;
        let start = config.attest_start.unwrap_or(0);
        let end = config.attest_end.unwrap_or(u32::MAX);
        Ok(Self {
            filter: BranchFilter::new(start, end),
            monitor: LoopMonitor::new(config),
            hash: HashController::new(config.hash_engine),
            stats: EngineStats::default(),
            out: MonitorOutput::new(),
            call_depth: 0,
            finalized: false,
            config,
        })
    }

    /// Creates an engine attesting the whole code segment of `program`.
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::InvalidConfig`] if the configuration is invalid.
    pub fn for_program(program: &Program, mut config: EngineConfig) -> Result<Self, LofatError> {
        config.attest_start = Some(config.attest_start.unwrap_or(program.text_base));
        config.attest_end = Some(config.attest_end.unwrap_or(program.text_end()));
        Self::new(config)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Processes one retired instruction (the [`TraceSink`] entry point).
    #[inline]
    pub fn observe(&mut self, retired: &RetiredInst) {
        if self.finalized {
            return;
        }
        let pc = retired.pc;
        if self.filter.in_region(pc) {
            // 1. Loop-exit detection runs for every retired instruction in the
            //    region; the common "no loop exits here" case is one window
            //    test on the monitor's cached stack top.
            if self.monitor.needs_exit_check(pc) {
                self.monitor.check_exits(pc, &mut self.stats, &mut self.out);
                self.hash_pairs();
            }

            // 2. Control-flow instructions are filtered in and forwarded (the
            //    region test above is shared with the filter).
            if let Some(event) = self.filter.filter_in_region(retired) {
                self.stats.branch_events += 1;
                self.stats.internal_latency_cycles += BRANCH_EVENT_LATENCY;
                match event.kind {
                    BranchKind::DirectCall | BranchKind::IndirectCall => {
                        self.call_depth += 1;
                        self.stats.max_call_depth = self.stats.max_call_depth.max(self.call_depth);
                    }
                    BranchKind::Return => self.call_depth = self.call_depth.saturating_sub(1),
                    _ => {}
                }
                self.monitor.on_branch(&event, &mut self.stats, &mut self.out);
                if !self.out.hash_now.is_empty() {
                    self.hash_pairs();
                }
            }
        }

        // 3. The hash path advances one step per retired instruction (it runs
        //    in parallel with the pipeline).  The step is owed, not taken: the
        //    controller settles it at the next batch or at finalization.
        self.stats.instructions_observed += 1;
    }

    /// Hands the monitor's pending pairs to the hash path as one batch, after
    /// settling the steps owed for the instructions retired before this one.
    #[inline(never)]
    fn hash_pairs(&mut self) {
        let pairs = &mut self.out.hash_now;
        if pairs.is_empty() {
            return;
        }
        self.stats.pairs_hashed += pairs.len() as u64;
        self.hash.advance_to(self.stats.instructions_observed);
        self.hash.submit_batch(pairs);
    }

    /// Ends the attested execution: flushes active loops, drains the hash engine and
    /// returns the [`Measurement`].
    ///
    /// # Errors
    ///
    /// Returns [`LofatError::EngineFinalized`] if called twice.
    pub fn finalize(&mut self) -> Result<Measurement, LofatError> {
        if self.finalized {
            return Err(LofatError::EngineFinalized);
        }
        self.monitor.finalize(&mut self.stats, &mut self.out);
        self.hash_pairs();
        self.hash.advance_to(self.stats.instructions_observed);
        let authenticator = self.hash.finalize()?;
        self.finalized = true;
        Ok(Measurement {
            authenticator,
            metadata: std::mem::take(&mut self.out.metadata).finish(),
            stats: self.stats,
        })
    }
}

impl TraceSink for LofatEngine {
    #[inline]
    fn retire(&mut self, inst: &RetiredInst) {
        self.observe(inst);
    }
}

/// Convenience: runs `program` to completion with a LO-FAT engine attached and
/// returns the measurement together with the CPU exit information.
///
/// # Errors
///
/// Propagates configuration, execution and finalization errors.
///
/// # Example
///
/// ```
/// use lofat::{attest_program, EngineConfig};
/// use lofat_rv32::asm::assemble;
///
/// let program = assemble(
///     ".text\nmain:\n    li t0, 5\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
/// )?;
/// let (measurement, exit) = attest_program(&program, EngineConfig::default(), 100_000)?;
/// assert_eq!(measurement.metadata.loop_count(), 1);
/// assert_eq!(exit.reason, lofat_rv32::ExitReason::Ecall);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn attest_program(
    program: &Program,
    config: EngineConfig,
    max_cycles: u64,
) -> Result<(Measurement, lofat_rv32::ExitInfo), LofatError> {
    let mut engine = LofatEngine::for_program(program, config)?;
    let mut cpu = lofat_rv32::Cpu::new(program)?;
    let exit = cpu.run_traced(max_cycles, &mut engine)?;
    let measurement = engine.finalize()?;
    Ok((measurement, exit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LOOP_EXIT_LATENCY;
    use lofat_rv32::asm::assemble;
    use lofat_rv32::Cpu;

    fn assemble_or_panic(src: &str) -> Program {
        assemble(src).expect("assemble")
    }

    const LOOP_PROGRAM: &str = r#"
        .text
        main:
            li   a0, 0
            li   t0, 8
        loop:
            add  a0, a0, t0
            addi t0, t0, -1
            bnez t0, loop
            ecall
    "#;

    #[test]
    fn attestation_does_not_change_cpu_cycles() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        // Un-attested run.
        let mut plain_cpu = Cpu::new(&program).unwrap();
        let plain_exit = plain_cpu.run(100_000).unwrap();
        // Attested run.
        let (measurement, attested_exit) =
            attest_program(&program, EngineConfig::default(), 100_000).unwrap();
        assert_eq!(plain_exit.cycles, attested_exit.cycles, "LO-FAT adds zero CPU overhead");
        assert_eq!(plain_exit.register_a0, attested_exit.register_a0);
        assert_eq!(measurement.stats.processor_overhead_cycles, 0);
    }

    #[test]
    fn loop_is_compressed_into_counters() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        let (measurement, _) = attest_program(&program, EngineConfig::default(), 100_000).unwrap();
        let stats = measurement.stats;
        assert_eq!(measurement.metadata.loop_count(), 1);
        let record = &measurement.metadata.decode().loops[0];
        // The loop body runs 8 times: the back edge is taken 7 times, the first of
        // which creates the loop (hashed as a normal branch), so 6 completed
        // iterations of a single path are counted; the final not-taken exit pass is
        // hashed directly as a partial path.
        assert_eq!(record.distinct_paths(), 1);
        assert_eq!(record.total_iterations(), 6);
        assert!(stats.pairs_compressed > 0, "repeated iterations are not re-hashed");
        assert!(stats.compression_ratio() > 0.0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        let (a, _) = attest_program(&program, EngineConfig::default(), 100_000).unwrap();
        let (b, _) = attest_program(&program, EngineConfig::default(), 100_000).unwrap();
        assert_eq!(a.authenticator, b.authenticator);
        assert_eq!(a.metadata, b.metadata);
        assert_eq!(a.signed_payload(), b.signed_payload());
    }

    #[test]
    fn different_control_flow_changes_authenticator() {
        let program_a = assemble_or_panic(LOOP_PROGRAM);
        let program_b = assemble_or_panic(&LOOP_PROGRAM.replace("li   t0, 8", "li   t0, 9"));
        let (a, _) = attest_program(&program_a, EngineConfig::default(), 100_000).unwrap();
        let (b, _) = attest_program(&program_b, EngineConfig::default(), 100_000).unwrap();
        // Same hash (same unique paths) but different iteration counts in L.
        assert_eq!(a.authenticator, b.authenticator);
        assert_ne!(a.metadata, b.metadata);
        assert_ne!(a.signed_payload(), b.signed_payload());
    }

    #[test]
    fn latency_accounting_matches_paper_constants() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        let (measurement, _) = attest_program(&program, EngineConfig::default(), 100_000).unwrap();
        let stats = measurement.stats;
        assert_eq!(
            stats.internal_latency_cycles,
            BRANCH_EVENT_LATENCY * stats.branch_events + LOOP_EXIT_LATENCY * stats.loops_exited
        );
        assert!(stats.branch_events >= 8);
        assert_eq!(stats.loops_exited, 1);
    }

    #[test]
    fn disabling_compression_hashes_every_iteration() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        let compressed =
            attest_program(&program, EngineConfig::default(), 100_000).unwrap().0.stats;
        let uncompressed_cfg = EngineConfig::builder().loop_compression(false).build().unwrap();
        let uncompressed = attest_program(&program, uncompressed_cfg, 100_000).unwrap().0.stats;
        assert!(uncompressed.pairs_hashed > compressed.pairs_hashed);
        assert_eq!(uncompressed.pairs_compressed, 0);
    }

    #[test]
    fn finalize_twice_is_an_error() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        let mut engine = LofatEngine::for_program(&program, EngineConfig::default()).unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        cpu.run_traced(100_000, &mut engine).unwrap();
        engine.finalize().unwrap();
        assert!(matches!(engine.finalize(), Err(LofatError::EngineFinalized)));
    }

    #[test]
    fn attest_region_can_exclude_code() {
        let program = assemble_or_panic(LOOP_PROGRAM);
        // Restrict attestation to a region past the program: nothing is recorded.
        let config = EngineConfig::builder()
            .attest_region(program.text_end(), program.text_end() + 0x1000)
            .build()
            .unwrap();
        let mut engine = LofatEngine::new(config).unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        cpu.run_traced(100_000, &mut engine).unwrap();
        let measurement = engine.finalize().unwrap();
        assert_eq!(measurement.stats.branch_events, 0);
        assert_eq!(measurement.metadata.loop_count(), 0);
        assert_eq!(measurement.authenticator, lofat_crypto::Sha3_512::digest(b""));
    }

    /// Controller stats as `[pairs submitted, words absorbed, cycles, max
    /// queue depth]` and engine stats as `[cycles, words absorbed, busy
    /// cycles, permutations, max buffer occupancy, words dropped]`.
    type Stats = ([u64; 4], [u64; 6]);

    fn hash_path_stats(hash: &HashController) -> Stats {
        let c = hash.stats();
        let e = hash.engine_stats();
        (
            [c.pairs_submitted, c.words_absorbed, c.cycles, c.max_queue_depth as u64],
            [
                e.cycles,
                e.words_absorbed,
                e.busy_cycles,
                e.permutations,
                e.max_buffer_occupancy as u64,
                e.words_dropped,
            ],
        )
    }

    /// The hash path is modelled cycle for cycle, not only digest for digest:
    /// for every catalogue workload on its default input, with the default and
    /// a 1-word input buffer, the controller's and the engine's counters at
    /// the end of the run and after finalization are pinned to the values the
    /// per-instruction model (one pump per retired instruction, taken as it
    /// retired) produced.  No word is ever dropped.
    #[test]
    fn no_trace_data_is_ever_dropped() {
        // Workload, input buffer words, hash path at exit, after finalize.
        type Pin = (&'static str, usize, Stats, Stats);
        #[rustfmt::skip]
        let expected: &[Pin] = &[
            ("fig4-loop", 4, ([11, 11, 51, 4], [51, 11, 3, 1, 4, 0]), ([11, 11, 51, 4], [51, 11, 3, 1, 4, 0])),
            ("syringe-pump", 4, ([23, 23, 279, 2], [279, 23, 6, 2, 2, 0]), ([23, 23, 279, 2], [279, 23, 6, 2, 2, 0])),
            ("bubble-sort", 4, ([39, 39, 264, 3], [264, 36, 11, 4, 4, 0]), ([39, 39, 264, 3], [268, 39, 12, 4, 4, 0])),
            ("crc32", 4, ([28, 28, 578, 3], [578, 27, 7, 3, 3, 0]), ([28, 28, 578, 3], [581, 28, 9, 3, 3, 0])),
            ("fibonacci", 4, ([327, 327, 1361, 1], [1361, 327, 108, 36, 1, 0]), ([327, 327, 1361, 1], [1361, 327, 108, 36, 1, 0])),
            ("matrix-checksum", 4, ([58, 58, 497, 3], [497, 55, 18, 6, 4, 0]), ([58, 58, 497, 3], [500, 58, 18, 6, 4, 0])),
            ("dispatch", 4, ([21, 21, 116, 1], [116, 21, 6, 2, 1, 0]), ([21, 21, 116, 1], [116, 21, 6, 2, 1, 0])),
            ("nested-loops", 4, ([48, 48, 274, 3], [274, 45, 15, 5, 3, 0]), ([48, 48, 274, 3], [277, 48, 15, 5, 3, 0])),
            ("diamond-paths", 4, ([41, 41, 133, 4], [133, 39, 12, 4, 4, 0]), ([41, 41, 133, 4], [135, 41, 12, 4, 4, 0])),
            ("return-victim", 4, ([2, 2, 13, 1], [13, 2, 0, 0, 1, 0]), ([2, 2, 13, 1], [13, 2, 0, 0, 1, 0])),
            ("gcd", 4, ([5, 5, 25, 2], [25, 5, 0, 0, 2, 0]), ([5, 5, 25, 2], [25, 5, 0, 0, 2, 0])),
            ("binary-search", 4, ([3, 3, 24, 1], [24, 3, 0, 0, 1, 0]), ([3, 3, 24, 1], [24, 3, 0, 0, 1, 0])),
            ("fig4-loop", 1, ([11, 11, 51, 4], [51, 11, 3, 1, 1, 0]), ([11, 11, 51, 4], [51, 11, 3, 1, 1, 0])),
            ("syringe-pump", 1, ([23, 23, 279, 2], [279, 23, 6, 2, 1, 0]), ([23, 23, 279, 2], [279, 23, 6, 2, 1, 0])),
            ("bubble-sort", 1, ([39, 37, 264, 4], [264, 36, 11, 4, 1, 0]), ([39, 39, 268, 4], [268, 39, 12, 4, 1, 0])),
            ("crc32", 1, ([28, 28, 578, 3], [578, 27, 7, 3, 1, 0]), ([28, 28, 578, 3], [581, 28, 9, 3, 1, 0])),
            ("fibonacci", 1, ([327, 327, 1361, 1], [1361, 327, 108, 36, 1, 0]), ([327, 327, 1361, 1], [1361, 327, 108, 36, 1, 0])),
            ("matrix-checksum", 1, ([58, 55, 497, 3], [497, 55, 18, 6, 1, 0]), ([58, 58, 500, 3], [500, 58, 18, 6, 1, 0])),
            ("dispatch", 1, ([21, 21, 116, 1], [116, 21, 6, 2, 1, 0]), ([21, 21, 116, 1], [116, 21, 6, 2, 1, 0])),
            ("nested-loops", 1, ([48, 46, 274, 3], [274, 45, 15, 5, 1, 0]), ([48, 48, 277, 3], [277, 48, 15, 5, 1, 0])),
            ("diamond-paths", 1, ([41, 39, 133, 4], [133, 39, 12, 4, 1, 0]), ([41, 41, 135, 4], [135, 41, 12, 4, 1, 0])),
            ("return-victim", 1, ([2, 2, 13, 1], [13, 2, 0, 0, 1, 0]), ([2, 2, 13, 1], [13, 2, 0, 0, 1, 0])),
            ("gcd", 1, ([5, 5, 25, 2], [25, 5, 0, 0, 1, 0]), ([5, 5, 25, 2], [25, 5, 0, 0, 1, 0])),
            ("binary-search", 1, ([3, 3, 24, 1], [24, 3, 0, 0, 1, 0]), ([3, 3, 24, 1], [24, 3, 0, 0, 1, 0])),
        ];
        for &(name, input_buffer_words, at_exit_pin, finalized_pin) in expected {
            let workload = lofat_workloads::catalog::by_name(name).expect("catalogue workload");
            let program = workload.program().unwrap();
            let hash_engine =
                lofat_crypto::HashEngineConfig { input_buffer_words, ..Default::default() };
            let config = EngineConfig::builder().hash_engine(hash_engine).build().unwrap();
            let mut engine = LofatEngine::for_program(&program, config).unwrap();
            let mut cpu = Cpu::new(&program).unwrap();
            crate::prover::load_input(&program, &mut cpu, &workload.default_input).unwrap();
            cpu.run_traced(1_000_000, &mut engine).unwrap();
            engine.hash.advance_to(engine.stats.instructions_observed);
            let at_exit = hash_path_stats(&engine.hash);
            engine.finalize().unwrap();
            let finalized = hash_path_stats(&engine.hash);
            let context = format!("`{name}`, {input_buffer_words}-word input buffer");
            assert_eq!(at_exit, at_exit_pin, "{context}: hash path at exit");
            assert_eq!(finalized, finalized_pin, "{context}: after finalize");
            assert_eq!(finalized.1[5], 0, "{context}: words dropped");
        }
    }
}
