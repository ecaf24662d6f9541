//! Program images produced by the assembler and consumed by the CPU and the CFG
//! analysis.

use crate::error::Rv32Error;
use crate::isa::Instruction;
use crate::mem::{Memory, Permissions, Segment};
use std::collections::BTreeMap;

/// Default base address of the code segment.
pub const DEFAULT_TEXT_BASE: u32 = 0x0000_1000;
/// Default base address of the data segment.
pub const DEFAULT_DATA_BASE: u32 = 0x0001_0000;
/// Default base address of the stack segment (stack grows down from the end).
pub const DEFAULT_STACK_BASE: u32 = 0x0002_0000;
/// Default stack size in bytes.
pub const DEFAULT_STACK_SIZE: u32 = 0x8000;

/// An assembled program image: code, initialised data and symbols.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Program {
    /// Base address of the code segment.
    pub text_base: u32,
    /// Encoded instruction words, in address order.
    pub text: Vec<u32>,
    /// Base address of the data segment.
    pub data_base: u32,
    /// Initialised data bytes.
    pub data: Vec<u8>,
    /// Entry point (address of the first executed instruction).
    pub entry: u32,
    /// Label → address map (both code and data labels).
    pub symbols: BTreeMap<String, u32>,
    /// Size of the zero-initialised stack segment created by the loader.
    pub stack_size: u32,
}

impl Program {
    /// Creates a program from raw instruction words placed at [`DEFAULT_TEXT_BASE`].
    ///
    /// This constructor is mainly useful in unit tests; workloads normally come from
    /// [`crate::asm::assemble`].
    pub fn from_instructions(instructions: &[Instruction]) -> Self {
        Self {
            text_base: DEFAULT_TEXT_BASE,
            text: instructions.iter().map(Instruction::encode).collect(),
            data_base: DEFAULT_DATA_BASE,
            data: Vec::new(),
            entry: DEFAULT_TEXT_BASE,
            symbols: BTreeMap::new(),
            stack_size: DEFAULT_STACK_SIZE,
        }
    }

    /// End address (exclusive) of the code segment.
    pub fn text_end(&self) -> u32 {
        self.text_base + (self.text.len() as u32) * 4
    }

    /// Looks up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Returns the decoded instruction at `pc`, if `pc` lies in the code segment.
    ///
    /// # Errors
    ///
    /// Returns a decode error for invalid words; `None`-like out-of-range PCs are
    /// reported as [`Rv32Error::MemoryUnmapped`].
    pub fn instruction_at(&self, pc: u32) -> Result<Instruction, Rv32Error> {
        if pc < self.text_base || pc >= self.text_end() || !pc.is_multiple_of(4) {
            return Err(Rv32Error::MemoryUnmapped { addr: pc, size: 4 });
        }
        let index = ((pc - self.text_base) / 4) as usize;
        Instruction::decode(self.text[index], pc)
    }

    /// Iterates over `(pc, instruction)` pairs of the code segment, skipping words
    /// that fail to decode (e.g. literal pools).
    pub fn iter_instructions(&self) -> impl Iterator<Item = (u32, Instruction)> + '_ {
        self.text.iter().enumerate().filter_map(move |(i, &word)| {
            let pc = self.text_base + (i as u32) * 4;
            Instruction::decode(word, pc).ok().map(|inst| (pc, inst))
        })
    }

    /// Builds the loaded memory image: `rx` text, `rw` data and an `rw` stack.
    ///
    /// # Errors
    ///
    /// Returns [`Rv32Error::InvalidProgram`] if the program has no code or its
    /// segments overlap.
    pub fn build_memory(&self) -> Result<Memory, Rv32Error> {
        if self.text.is_empty() {
            return Err(Rv32Error::InvalidProgram { message: "empty code segment".into() });
        }
        let mut memory = Memory::new();
        let text_bytes: Vec<u8> = self.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        memory.add_segment(Segment::new(".text", self.text_base, text_bytes, Permissions::RX))?;
        // Always map a data segment so workloads can use globals even when the image
        // carries no initialised data.
        let mut data = self.data.clone();
        let min_data = 4096;
        if data.len() < min_data {
            data.resize(min_data, 0);
        }
        memory.add_segment(Segment::new(".data", self.data_base, data, Permissions::RW))?;
        memory.add_segment(Segment::new(
            "stack",
            DEFAULT_STACK_BASE,
            vec![0u8; self.stack_size as usize],
            Permissions::RW,
        ))?;
        Ok(memory)
    }

    /// Address the stack pointer is initialised to (top of the stack segment).
    pub fn initial_sp(&self) -> u32 {
        DEFAULT_STACK_BASE + self.stack_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluImmOp, Reg};

    fn nop() -> Instruction {
        Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 }
    }

    #[test]
    fn from_instructions_builds_image() {
        let program = Program::from_instructions(&[nop(), Instruction::Ecall]);
        assert_eq!(program.text.len(), 2);
        assert_eq!(program.entry, DEFAULT_TEXT_BASE);
        assert_eq!(program.text_end(), DEFAULT_TEXT_BASE + 8);
        assert_eq!(program.instruction_at(DEFAULT_TEXT_BASE).unwrap(), nop());
        assert!(program.instruction_at(DEFAULT_TEXT_BASE + 8).is_err());
        assert!(program.instruction_at(DEFAULT_TEXT_BASE + 1).is_err());
    }

    #[test]
    fn memory_layout_has_three_segments() {
        let program = Program::from_instructions(&[nop()]);
        let memory = program.build_memory().unwrap();
        let names: Vec<_> = memory.segments().iter().map(|s| s.name).collect();
        assert_eq!(names, vec![".text", ".data", "stack"]);
        assert!(program.initial_sp() > DEFAULT_STACK_BASE);
    }

    #[test]
    fn empty_program_rejected() {
        let program = Program {
            text_base: DEFAULT_TEXT_BASE,
            text: vec![],
            data_base: DEFAULT_DATA_BASE,
            data: vec![],
            entry: DEFAULT_TEXT_BASE,
            symbols: BTreeMap::new(),
            stack_size: DEFAULT_STACK_SIZE,
        };
        assert!(program.build_memory().is_err());
    }

    #[test]
    fn iter_instructions_yields_all_valid_words() {
        let program = Program::from_instructions(&[nop(), nop(), Instruction::Ecall]);
        assert_eq!(program.iter_instructions().count(), 3);
    }
}
