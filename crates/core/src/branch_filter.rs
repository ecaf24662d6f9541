//! Branch filter (① in Fig. 3).
//!
//! The branch filter is tightly coupled to the processor: per clock cycle it sees the
//! retired program counter and instruction, filters in every branch, jump and return
//! instruction, and emits a concise representation of the executed transfer — its
//! `(Src, Dest)` pair plus the classification bits the loop monitor needs (taken or
//! not, linking or not, backward or not).  Everything outside the attested code
//! region is ignored.

use crate::branches_mem::BranchPair;
use lofat_rv32::trace::{BranchKind, RetiredInst};

/// One filtered control-flow event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// `(Src, Dest)` pair: the branch address and the address execution continued at.
    pub pair: BranchPair,
    /// Classification of the control-flow instruction.
    pub kind: BranchKind,
    /// Whether the transfer was taken (always `true` for jumps).
    pub taken: bool,
    /// The (taken) target address of the instruction.
    pub target: u32,
}

impl BranchEvent {
    /// `true` for a taken, non-linking, backward transfer — the §5.1 heuristic
    /// that marks a loop entry at `target`.
    #[inline]
    pub fn loop_heuristic(&self) -> bool {
        self.taken
            && self.target <= self.pair.src
            && !self.kind.is_linking()
            && self.kind != BranchKind::Return
    }
}

/// The branch filter.
#[derive(Debug, Clone)]
pub struct BranchFilter {
    attest_start: u32,
    attest_end: u32,
}

impl BranchFilter {
    /// Creates a filter for the attested code region `[start, end)`.
    pub fn new(attest_start: u32, attest_end: u32) -> Self {
        Self { attest_start, attest_end }
    }

    /// Returns `true` if `pc` lies inside the attested region.
    #[inline]
    pub fn in_region(&self, pc: u32) -> bool {
        pc >= self.attest_start && pc < self.attest_end
    }

    /// Filters one retired instruction already known to lie inside the attested
    /// region (the caller performed the [`BranchFilter::in_region`] test):
    /// returns a [`BranchEvent`] for a control-flow instruction and `None`
    /// otherwise.
    #[inline]
    pub fn filter_in_region(&self, retired: &RetiredInst) -> Option<BranchEvent> {
        let info = retired.branch?;
        Some(BranchEvent {
            pair: BranchPair::new(retired.pc, retired.next_pc),
            kind: info.kind,
            taken: info.taken,
            target: info.target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_rv32::isa::{BranchCond, Instruction, Reg};
    use lofat_rv32::trace::BranchInfo;

    fn retired(pc: u32, kind: BranchKind, taken: bool, target: u32) -> RetiredInst {
        RetiredInst {
            cycle: 0,
            pc,
            inst: Instruction::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                offset: 0,
            },
            next_pc: if taken { target } else { pc + 4 },
            branch: Some(BranchInfo { kind, taken, target }),
        }
    }

    fn plain(pc: u32) -> RetiredInst {
        RetiredInst { cycle: 0, pc, inst: Instruction::Ecall, next_pc: pc + 4, branch: None }
    }

    #[test]
    fn non_branches_are_filtered_out() {
        let filter = BranchFilter::new(0x1000, 0x2000);
        assert!(filter.in_region(0x1000));
        assert!(filter.filter_in_region(&plain(0x1000)).is_none());
    }

    #[test]
    fn region_is_half_open() {
        let filter = BranchFilter::new(0x1000, 0x2000);
        assert!(!filter.in_region(0x0ffc));
        assert!(filter.in_region(0x1ffc));
        assert!(!filter.in_region(0x2000));
        assert!(!filter.in_region(0x3000));
    }

    #[test]
    fn loop_heuristic_fires_only_for_taken_nonlinking_backward() {
        let filter = BranchFilter::new(0x1000, 0x2000);
        let event = |kind, taken, target| {
            filter.filter_in_region(&retired(0x1100, kind, taken, target)).unwrap()
        };
        // Taken backward conditional branch → heuristic fires.
        assert!(event(BranchKind::Conditional, true, 0x1080).loop_heuristic());
        // Not-taken backward branch → no.
        assert!(!event(BranchKind::Conditional, false, 0x1080).loop_heuristic());
        // Backward call (linking) → no: subroutine calls are not loop entries (§5.1).
        assert!(!event(BranchKind::DirectCall, true, 0x1080).loop_heuristic());
        // Backward return → no.
        assert!(!event(BranchKind::Return, true, 0x1004).loop_heuristic());
        // Forward jump → no.
        assert!(!event(BranchKind::DirectJump, true, 0x1200).loop_heuristic());
    }

    #[test]
    fn pair_records_actual_destination() {
        let filter = BranchFilter::new(0x1000, 0x2000);
        let taken = filter
            .filter_in_region(&retired(0x1010, BranchKind::Conditional, true, 0x1004))
            .unwrap();
        assert_eq!(taken.pair, BranchPair::new(0x1010, 0x1004));
        let not_taken = filter
            .filter_in_region(&retired(0x1010, BranchKind::Conditional, false, 0x1004))
            .unwrap();
        assert_eq!(not_taken.pair, BranchPair::new(0x1010, 0x1014));
    }
}
