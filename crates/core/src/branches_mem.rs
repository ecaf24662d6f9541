//! Branches memory (② in Fig. 3).
//!
//! The branch filter writes a concise representation of every executed branch — its
//! `(Src, Dest)` address pair — into a dedicated on-chip memory.  For non-loop
//! branches the pair is forwarded to the hash engine immediately; for branches inside
//! a loop the pairs of the *current path* stay buffered until the path completes, at
//! which point they are either hashed (first occurrence of the path) or discarded
//! (repeated path — the iteration counter covers them).

/// A `(Src, Dest)` address pair of one executed control-flow transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct BranchPair {
    /// Address of the control-flow instruction.
    pub src: u32,
    /// Address execution continued at.
    pub dest: u32,
}

impl BranchPair {
    /// Creates a pair.
    pub fn new(src: u32, dest: u32) -> Self {
        Self { src, dest }
    }

    /// Packs the pair into the 64-bit word absorbed by the hash engine
    /// (`Src` in the upper half, `Dest` in the lower half).
    pub fn to_word(self) -> u64 {
        (u64::from(self.src) << 32) | u64::from(self.dest)
    }
}

/// Per-path buffer of `(Src, Dest)` pairs awaiting the hash decision.
#[derive(Debug, Clone, Default)]
pub struct BranchesMemory {
    pairs: Vec<BranchPair>,
}

impl BranchesMemory {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pair for the current path.
    #[inline]
    pub fn push(&mut self, pair: BranchPair) {
        self.pairs.push(pair);
    }

    /// Number of pairs currently buffered.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if no pair is buffered.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Moves all buffered pairs into `out`, keeping this buffer's capacity: the
    /// steady-state trace path re-uses both the buffer and the destination
    /// allocation, so a path completing inside a loop costs no heap traffic.
    #[inline]
    pub fn drain_into(&mut self, out: &mut Vec<BranchPair>) {
        out.append(&mut self.pairs);
    }

    /// Discards all buffered pairs (repeated path — already covered by the counter).
    #[inline]
    pub fn discard(&mut self) -> usize {
        let n = self.pairs.len();
        self.pairs.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_packing_places_src_high() {
        let pair = BranchPair::new(0x1000, 0x2004);
        assert_eq!(pair.to_word(), 0x0000_1000_0000_2004);
    }

    #[test]
    fn drain_and_discard() {
        let mut mem = BranchesMemory::new();
        mem.push(BranchPair::new(1, 2));
        mem.push(BranchPair::new(3, 4));
        assert_eq!(mem.len(), 2);
        let mut out = vec![BranchPair::new(0, 0)];
        mem.drain_into(&mut out);
        assert_eq!(out, [BranchPair::new(0, 0), BranchPair::new(1, 2), BranchPair::new(3, 4)]);
        assert!(mem.is_empty());

        mem.push(BranchPair::new(5, 6));
        assert_eq!(mem.discard(), 1);
        assert!(mem.is_empty());
    }
}
