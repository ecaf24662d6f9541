//! In-order RV32IM core model with cycle accounting and a trace port.
//!
//! The model approximates the single-issue 4-stage Pulpino core the paper prototypes
//! on: one instruction retires per cycle, with extra cycles charged for taken
//! control-flow transfers (pipeline refill), loads (memory access) and division.  The
//! exact per-instruction costs are configurable through [`CpuConfig`]; the LO-FAT
//! claims only depend on the *relative* comparison between attested and un-attested
//! runs, which this model supports exactly (the trace port is pure observation and
//! never stalls the core).

use crate::error::Rv32Error;
use crate::isa::{AluImmOp, AluOp, Instruction, Reg};
use crate::mem::Memory;
use crate::program::Program;
use crate::trace::{BranchInfo, BranchKind, NullSink, RetiredInst, TraceSink};

/// Per-instruction-class cycle costs of the core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CpuConfig {
    /// Extra cycles for a taken conditional branch (pipeline flush).
    pub taken_branch_penalty: u64,
    /// Extra cycles for `jal`/`jalr` (always-taken transfers).
    pub jump_penalty: u64,
    /// Extra cycles for loads.
    pub load_penalty: u64,
    /// Extra cycles for multiplication.
    pub mul_penalty: u64,
    /// Extra cycles for division/remainder.
    pub div_penalty: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        // Approximation of the 4-stage RI5CY/Pulpino core: 1 cycle per instruction,
        // 2 extra cycles to refill the pipeline on taken branches, 1 for jumps and
        // loads, multi-cycle serial divider.
        Self {
            taken_branch_penalty: 2,
            jump_penalty: 1,
            load_penalty: 1,
            mul_penalty: 0,
            div_penalty: 31,
        }
    }
}

/// Why the program stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ExitReason {
    /// The program executed `ecall` (normal termination in this environment).
    Ecall,
    /// The program executed `ebreak`.
    Ebreak,
}

/// Information about a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExitInfo {
    /// Why the program stopped.
    pub reason: ExitReason,
    /// Value of `a0` at exit (the program's result / exit code).
    pub register_a0: u32,
    /// Total cycles consumed according to the timing model.
    pub cycles: u64,
    /// Number of retired instructions.
    pub instructions: u64,
}

/// The RV32IM core.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    memory: Memory,
    config: CpuConfig,
    cycles: u64,
    instructions: u64,
    /// Values printed via the `print` environment call (a7 = 1), for examples/tests.
    console: Vec<u32>,
    /// Base address of the predecoded text segment.
    text_base: u32,
    /// Text segment decoded once at load time, indexed by `(pc - text_base) / 4`.
    /// `None` marks words that do not decode (e.g. literal pools); those fall back
    /// to decode-on-fetch so the fault is reported exactly as before.  Empty
    /// while stale or disabled, so one table lookup is the whole fast path.
    predecoded: Vec<Option<Instruction>>,
    /// When `false`, every step fetches and decodes from memory (the verified
    /// fallback path; also used by the differential regression tests).
    predecode_enabled: bool,
    /// Set when the memory may have been mutated behind the cache's back (any
    /// `memory_mut` access); the next step re-decodes the text segment.
    predecode_stale: bool,
}

impl Cpu {
    /// Creates a core with the program loaded and registers initialised
    /// (`pc = entry`, `sp` at the top of the stack, `gp` at the data base).
    ///
    /// # Errors
    ///
    /// Fails if the program image cannot be loaded (see [`Program::build_memory`]).
    pub fn new(program: &Program) -> Result<Self, Rv32Error> {
        Self::with_config(program, CpuConfig::default())
    }

    /// Creates a core with an explicit timing configuration.
    ///
    /// # Errors
    ///
    /// Fails if the program image cannot be loaded (see [`Program::build_memory`]).
    pub fn with_config(program: &Program, config: CpuConfig) -> Result<Self, Rv32Error> {
        let memory = program.build_memory()?;
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = program.initial_sp();
        regs[Reg::GP.index()] = program.data_base;
        let mut cpu = Self {
            regs,
            pc: program.entry,
            memory,
            config,
            cycles: 0,
            instructions: 0,
            console: Vec::new(),
            text_base: program.text_base,
            predecoded: Vec::new(),
            predecode_enabled: true,
            predecode_stale: false,
        };
        cpu.rebuild_predecode()?;
        Ok(cpu)
    }

    /// Enables or disables the predecoded-execution fast path.
    ///
    /// With predecoding disabled every step performs the original
    /// fetch-from-memory + decode round trip; results are identical either way
    /// (the differential regression suite asserts this over the whole workload
    /// catalogue), only the simulation throughput differs.
    pub fn set_predecode(&mut self, enabled: bool) {
        if enabled != self.predecode_enabled {
            // Disabling drops the table; re-enabling rebuilds it on the next step.
            self.predecode_enabled = enabled;
            self.invalidate_predecode();
        }
    }

    /// Empties the predecode table and marks it for a rebuild.
    fn invalidate_predecode(&mut self) {
        self.predecoded.clear();
        self.predecode_stale = true;
    }

    /// Returns `true` while the predecoded fast path is enabled.
    pub fn predecode_enabled(&self) -> bool {
        self.predecode_enabled
    }

    /// (Re-)decodes the text segment into the dense predecode table.
    ///
    /// Runs once at construction and again after any `memory_mut` access (the
    /// only way the code bytes can change: direct stores into the `rx` text
    /// segment fault before they modify anything).
    fn rebuild_predecode(&mut self) -> Result<(), Rv32Error> {
        let text_len = self
            .memory
            .segments()
            .iter()
            .find(|s| s.base == self.text_base && s.perms.execute)
            .map(|s| s.bytes.len() / 4)
            .unwrap_or(0);
        self.predecoded.clear();
        self.predecoded.reserve(text_len);
        for index in 0..text_len {
            let pc = self.text_base + (index as u32) * 4;
            let word = self.memory.fetch(pc)?;
            self.predecoded.push(Instruction::decode(word, pc).ok());
        }
        self.predecode_stale = false;
        Ok(())
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes a register (writes to `zero` are ignored, as in hardware).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }

    /// Immutable view of the memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable view of the memory (used by the attack-injection utilities).
    ///
    /// Conservatively marks the predecode table stale: the caller may poke any
    /// byte, including the text segment, so the next step re-decodes the code
    /// from memory (self-modifying-memory safety for the fast path).
    pub fn memory_mut(&mut self) -> &mut Memory {
        self.invalidate_predecode();
        &mut self.memory
    }

    /// Writes `bytes` at `addr` in a data segment: the loader placing the
    /// program's input.
    ///
    /// Unlike a write through [`Cpu::memory_mut`] this keeps the predecode
    /// table, because it refuses executable segments: the code cannot have
    /// changed, so the program is still decoded once per run.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped, and with [`Rv32Error::MemoryPermission`]
    /// if it lies in an executable segment.
    pub fn poke_data(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Rv32Error> {
        self.memory.poke_data(addr, bytes)
    }

    /// Values emitted through the `print` environment call (`a7 = 1`).
    pub fn console(&self) -> &[u32] {
        &self.console
    }

    /// Runs until the program exits, without tracing.
    ///
    /// # Errors
    ///
    /// Propagates execution faults and returns [`Rv32Error::CycleLimitExceeded`] if
    /// the program does not exit within `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<ExitInfo, Rv32Error> {
        self.run_traced(max_cycles, &mut NullSink)
    }

    /// Runs until the program exits, reporting every retired instruction to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates execution faults and returns [`Rv32Error::CycleLimitExceeded`] if
    /// the program does not exit within `max_cycles`.
    pub fn run_traced<S: TraceSink>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<ExitInfo, Rv32Error> {
        loop {
            if let Some(exit) = self.step(sink)? {
                return Ok(exit);
            }
            if self.cycles > max_cycles {
                return Err(Rv32Error::CycleLimitExceeded { limit: max_cycles });
            }
        }
    }

    /// Returns the decoded instruction at `pc`: a predecode-table lookup on the
    /// fast path, [`Cpu::fetch_slow`] otherwise.
    #[inline]
    fn fetch_decoded(&mut self, pc: u32) -> Result<Instruction, Rv32Error> {
        match self.predecoded.get(self.predecode_index(pc)) {
            Some(Some(inst)) => Ok(*inst),
            _ => self.fetch_slow(pc),
        }
    }

    /// Table index of `pc`.  The rotation moves a misaligned PC's low bits to
    /// the top, so its index lies past the end of any table, like that of a PC
    /// outside the text.
    #[inline]
    fn predecode_index(&self, pc: u32) -> usize {
        pc.wrapping_sub(self.text_base).rotate_right(2) as usize
    }

    /// Everything the table does not serve: a stale table is rebuilt (when
    /// predecoding is enabled) and consulted again; out-of-text PCs,
    /// misaligned PCs and non-decodable words go through the memory model so
    /// faults are reported identically to the decode-on-fetch path.
    #[cold]
    #[inline(never)]
    fn fetch_slow(&mut self, pc: u32) -> Result<Instruction, Rv32Error> {
        if self.predecode_enabled && self.predecode_stale {
            self.rebuild_predecode()?;
            if let Some(Some(inst)) = self.predecoded.get(self.predecode_index(pc)) {
                return Ok(*inst);
            }
        }
        let word = self.memory.fetch(pc)?;
        Instruction::decode(word, pc)
    }

    /// Executes a single instruction, reporting it to `sink`.
    ///
    /// Returns `Some(exit)` when the program terminates.
    ///
    /// # Errors
    ///
    /// Propagates fetch/decode/memory faults.
    pub fn step<S: TraceSink>(&mut self, sink: &mut S) -> Result<Option<ExitInfo>, Rv32Error> {
        let pc = self.pc;
        let inst = self.fetch_decoded(pc)?;

        let mut next_pc = pc.wrapping_add(4);
        let mut branch: Option<BranchInfo> = None;
        let mut extra_cycles = 0u64;
        let mut exit: Option<ExitReason> = None;

        match inst {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let value = alu(op, a, b);
                self.set_reg(rd, value);
                extra_cycles += match op {
                    AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => {
                        self.config.mul_penalty
                    }
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => self.config.div_penalty,
                    _ => 0,
                };
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let value = alu_imm(op, a, imm);
                self.set_reg(rd, value);
            }
            Instruction::Load { width, rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let raw = self.memory.load(addr, width.bytes())?;
                let value = match width {
                    crate::isa::LoadWidth::Byte => (raw as u8) as i8 as i32 as u32,
                    crate::isa::LoadWidth::Half => (raw as u16) as i16 as i32 as u32,
                    _ => raw,
                };
                self.set_reg(rd, value);
                extra_cycles += self.config.load_penalty;
            }
            Instruction::Store { width, rs2, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.memory.store(addr, width.bytes(), self.reg(rs2))?;
            }
            Instruction::Branch { cond, rs1, rs2, offset } => {
                let taken = cond.evaluate(self.reg(rs1), self.reg(rs2));
                let target = pc.wrapping_add(offset as u32);
                if taken {
                    next_pc = target;
                    extra_cycles += self.config.taken_branch_penalty;
                }
                branch = Some(BranchInfo { kind: BranchKind::Conditional, taken, target });
            }
            Instruction::Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Instruction::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u32)),
            Instruction::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u32);
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                extra_cycles += self.config.jump_penalty;
                let kind =
                    if rd.is_link() { BranchKind::DirectCall } else { BranchKind::DirectJump };
                branch = Some(BranchInfo { kind, taken: true, target });
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                extra_cycles += self.config.jump_penalty;
                let kind = if inst.is_return() {
                    BranchKind::Return
                } else if rd.is_link() {
                    BranchKind::IndirectCall
                } else {
                    BranchKind::IndirectJump
                };
                branch = Some(BranchInfo { kind, taken: true, target });
            }
            Instruction::Ecall => {
                // a7 = 1 requests a host "print" of a0; anything else terminates.
                if self.reg(Reg::A7) == 1 {
                    let value = self.reg(Reg::A0);
                    self.console.push(value);
                } else {
                    exit = Some(ExitReason::Ecall);
                }
            }
            Instruction::Ebreak => exit = Some(ExitReason::Ebreak),
            Instruction::Fence => {}
        }

        self.cycles += 1 + extra_cycles;
        self.instructions += 1;

        let retired = RetiredInst { cycle: self.cycles, pc, inst, next_pc, branch };
        sink.retire(&retired);

        self.pc = next_pc;

        Ok(exit.map(|reason| ExitInfo {
            reason,
            register_a0: self.reg(Reg::A0),
            cycles: self.cycles,
            instructions: self.instructions,
        }))
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        AluOp::Mulhsu => (((a as i32 as i64) * (b as i64)) >> 32) as u32,
        AluOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if (a as i32) == i32::MIN && (b as i32) == -1 {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if (a as i32) == i32::MIN && (b as i32) == -1 {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        AluOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

fn alu_imm(op: AluImmOp, a: u32, imm: i32) -> u32 {
    match op {
        AluImmOp::Addi => a.wrapping_add(imm as u32),
        AluImmOp::Slti => u32::from((a as i32) < imm),
        AluImmOp::Sltiu => u32::from(a < imm as u32),
        AluImmOp::Xori => a ^ (imm as u32),
        AluImmOp::Ori => a | (imm as u32),
        AluImmOp::Andi => a & (imm as u32),
        AluImmOp::Slli => a.wrapping_shl(imm as u32 & 0x1f),
        AluImmOp::Srli => a.wrapping_shr(imm as u32 & 0x1f),
        AluImmOp::Srai => ((a as i32).wrapping_shr(imm as u32 & 0x1f)) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BranchCond, LoadWidth, StoreWidth};
    use crate::program::Program;
    use crate::trace::VecSink;

    fn build(instructions: &[Instruction]) -> Cpu {
        let program = Program::from_instructions(instructions);
        Cpu::new(&program).expect("load")
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instruction {
        Instruction::AluImm { op: AluImmOp::Addi, rd, rs1, imm }
    }

    #[test]
    fn arithmetic_loop_executes() {
        // a0 = 0; t0 = 5; loop { a0 += t0; t0 -= 1 } while t0 != 0; ecall
        let t1 = Reg::new(6);
        let insts = vec![
            addi(Reg::A0, Reg::ZERO, 0),
            addi(Reg::T0, Reg::ZERO, 5),
            Instruction::Alu { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::T0 },
            addi(Reg::T0, Reg::T0, -1),
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::T0, rs2: Reg::ZERO, offset: -8 },
            Instruction::Ecall,
        ];
        let _ = t1;
        let mut cpu = build(&insts);
        let exit = cpu.run(1_000).unwrap();
        assert_eq!(exit.reason, ExitReason::Ecall);
        assert_eq!(exit.register_a0, 15);
        assert_eq!(exit.instructions, 2 + 3 * 5 + 1);
    }

    #[test]
    fn zero_register_is_hardwired() {
        let insts = vec![addi(Reg::ZERO, Reg::ZERO, 123), Instruction::Ecall];
        let mut cpu = build(&insts);
        cpu.run(100).unwrap();
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores_hit_data_segment() {
        let data_base = crate::program::DEFAULT_DATA_BASE as i32;
        // gp points at the data base, store then load back.
        let insts = vec![
            addi(Reg::T0, Reg::ZERO, 77),
            Instruction::Store { width: StoreWidth::Word, rs2: Reg::T0, rs1: Reg::GP, offset: 8 },
            Instruction::Load { width: LoadWidth::Word, rd: Reg::A0, rs1: Reg::GP, offset: 8 },
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts);
        let exit = cpu.run(100).unwrap();
        assert_eq!(exit.register_a0, 77);
        let _ = data_base;
    }

    #[test]
    fn signed_byte_load_sign_extends() {
        let insts = vec![
            addi(Reg::T0, Reg::ZERO, -1),
            Instruction::Store { width: StoreWidth::Byte, rs2: Reg::T0, rs1: Reg::GP, offset: 0 },
            Instruction::Load { width: LoadWidth::Byte, rd: Reg::A0, rs1: Reg::GP, offset: 0 },
            Instruction::Load {
                width: LoadWidth::ByteUnsigned,
                rd: Reg::A1,
                rs1: Reg::GP,
                offset: 0,
            },
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts);
        cpu.run(100).unwrap();
        assert_eq!(cpu.reg(Reg::A0), u32::MAX);
        assert_eq!(cpu.reg(Reg::A1), 0xff);
    }

    #[test]
    fn call_and_return_trace_kinds() {
        // main: jal ra, func ; ecall        (func at +8)
        // func: jalr zero, ra, 0
        let insts = vec![
            Instruction::Jal { rd: Reg::RA, offset: 8 },
            Instruction::Ecall,
            Instruction::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
        ];
        let mut cpu = build(&insts);
        let mut sink = VecSink::new();
        cpu.run_traced(100, &mut sink).unwrap();
        let kinds: Vec<_> = sink.events.iter().filter_map(|e| e.branch.map(|b| b.kind)).collect();
        assert_eq!(kinds, vec![BranchKind::DirectCall, BranchKind::Return]);
        // The return's (Src, Dest) pair points back to the instruction after the call.
        let ret = sink.events.iter().find(|e| e.inst.is_return()).unwrap();
        assert_eq!(ret.src_dest().unwrap().1, crate::program::DEFAULT_TEXT_BASE + 4);
    }

    #[test]
    fn timing_model_charges_penalties() {
        let config = CpuConfig::default();
        // Not-taken branch: no penalty; taken branch: penalty.
        let insts_not_taken = vec![
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::ZERO, rs2: Reg::ZERO, offset: 8 },
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts_not_taken);
        let exit = cpu.run(100).unwrap();
        assert_eq!(exit.cycles, 2); // two instructions, no penalties

        let insts_taken = vec![
            Instruction::Branch { cond: BranchCond::Eq, rs1: Reg::ZERO, rs2: Reg::ZERO, offset: 8 },
            Instruction::Ecall, // skipped
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts_taken);
        let exit = cpu.run(100).unwrap();
        assert_eq!(exit.cycles, 1 + config.taken_branch_penalty + 1);
    }

    #[test]
    fn division_by_zero_follows_riscv_semantics() {
        let insts = vec![
            addi(Reg::T0, Reg::ZERO, 10),
            Instruction::Alu { op: AluOp::Div, rd: Reg::A0, rs1: Reg::T0, rs2: Reg::ZERO },
            Instruction::Alu { op: AluOp::Rem, rd: Reg::A1, rs1: Reg::T0, rs2: Reg::ZERO },
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts);
        cpu.run(200).unwrap();
        assert_eq!(cpu.reg(Reg::A0), u32::MAX);
        assert_eq!(cpu.reg(Reg::A1), 10);
    }

    #[test]
    fn cycle_limit_enforced() {
        // Infinite loop: j .
        let insts = vec![Instruction::Jal { rd: Reg::ZERO, offset: 0 }];
        let mut cpu = build(&insts);
        assert!(matches!(cpu.run(50), Err(Rv32Error::CycleLimitExceeded { limit: 50 })));
    }

    #[test]
    fn store_to_code_segment_faults() {
        let insts = vec![
            // t0 = text base (0x1000), then attempt to overwrite the first instruction.
            Instruction::Lui { rd: Reg::T0, imm: crate::program::DEFAULT_TEXT_BASE as i32 },
            Instruction::Store { width: StoreWidth::Word, rs2: Reg::ZERO, rs1: Reg::T0, offset: 0 },
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts);
        assert!(matches!(cpu.run(100), Err(Rv32Error::MemoryPermission { .. })));
    }

    #[test]
    fn print_ecall_appends_to_console_and_continues() {
        let insts = vec![
            addi(Reg::A0, Reg::ZERO, 42),
            addi(Reg::A7, Reg::ZERO, 1),
            Instruction::Ecall,
            addi(Reg::A7, Reg::ZERO, 0),
            Instruction::Ecall,
        ];
        let mut cpu = build(&insts);
        let exit = cpu.run(100).unwrap();
        assert_eq!(exit.reason, ExitReason::Ecall);
        assert_eq!(cpu.console(), &[42]);
    }

    #[test]
    fn ebreak_exits_with_reason() {
        let insts = vec![Instruction::Ebreak];
        let mut cpu = build(&insts);
        let exit = cpu.run(10).unwrap();
        assert_eq!(exit.reason, ExitReason::Ebreak);
    }

    #[test]
    fn predecode_and_fallback_agree() {
        let insts = vec![
            addi(Reg::A0, Reg::ZERO, 0),
            addi(Reg::T0, Reg::ZERO, 7),
            Instruction::Alu { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::T0 },
            addi(Reg::T0, Reg::T0, -1),
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::T0, rs2: Reg::ZERO, offset: -8 },
            Instruction::Ecall,
        ];
        let mut fast = build(&insts);
        assert!(fast.predecode_enabled());
        let mut slow = build(&insts);
        slow.set_predecode(false);
        let fast_exit = fast.run(1_000).unwrap();
        let slow_exit = slow.run(1_000).unwrap();
        assert_eq!(fast_exit, slow_exit);
        assert_eq!(fast.regs, slow.regs);
    }

    #[test]
    fn predecode_invalidated_by_memory_poke() {
        // Run `addi a0, zero, 1; ecall`, but poke the first instruction into
        // `addi a0, zero, 99` through the adversary/loader interface before
        // stepping: the predecode table must notice the self-modified code.
        let insts = vec![addi(Reg::A0, Reg::ZERO, 1), Instruction::Ecall];
        let mut cpu = build(&insts);
        let patched = addi(Reg::A0, Reg::ZERO, 99).encode();
        cpu.memory_mut()
            .poke_bytes(crate::program::DEFAULT_TEXT_BASE, &patched.to_le_bytes())
            .unwrap();
        let exit = cpu.run(10).unwrap();
        assert_eq!(exit.register_a0, 99, "stale predecode served the old instruction");
    }

    #[test]
    fn data_poke_keeps_the_predecode_table() {
        // `la t0, input; lw a0, 0(t0); ecall` reading a word the loader poked.
        let program = crate::asm::assemble(
            ".data\ninput:\n    .word 0\n.text\nmain:\n    la t0, input\n    lw a0, 0(t0)\n    ecall\n",
        )
        .unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        assert!(!cpu.predecode_stale);
        cpu.poke_data(program.symbol("input").unwrap(), &42u32.to_le_bytes()).unwrap();
        assert!(!cpu.predecode_stale, "a data poke cannot change the code");
        assert_eq!(cpu.run(100).unwrap().register_a0, 42);
    }

    #[test]
    fn text_poke_still_forces_a_redecode() {
        let insts = vec![addi(Reg::A0, Reg::ZERO, 1), Instruction::Ecall];
        let mut cpu = build(&insts);
        let patched = addi(Reg::A0, Reg::ZERO, 99).encode().to_le_bytes();
        let text = crate::program::DEFAULT_TEXT_BASE;
        let err = cpu.poke_data(text, &patched).unwrap_err();
        assert!(matches!(err, Rv32Error::MemoryPermission { .. }));
        assert!(!cpu.predecode_stale, "a refused poke changes nothing");
        cpu.memory_mut().poke_bytes(text, &patched).unwrap();
        assert!(cpu.predecode_stale, "a write that may touch code marks the table stale");
        assert_eq!(cpu.run(10).unwrap().register_a0, 99);
        assert!(!cpu.predecode_stale, "the first step re-decoded the text");
    }

    #[test]
    fn predecode_falls_back_outside_text() {
        // Jump into the data segment: the fallback path must report the same
        // permission fault the decode-on-fetch core raises.
        let insts = vec![
            Instruction::Lui { rd: Reg::T0, imm: crate::program::DEFAULT_DATA_BASE as i32 },
            Instruction::Jalr { rd: Reg::ZERO, rs1: Reg::T0, offset: 0 },
        ];
        let mut fast = build(&insts);
        let mut slow = build(&insts);
        slow.set_predecode(false);
        let fast_err = fast.run(10).unwrap_err();
        let slow_err = slow.run(10).unwrap_err();
        assert!(matches!(fast_err, Rv32Error::MemoryPermission { .. }));
        assert_eq!(format!("{fast_err:?}"), format!("{slow_err:?}"));
    }
}
