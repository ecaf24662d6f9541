//! Indirect-branch target CAM (§5.2).
//!
//! Indirect branches inside loops can target addresses that cannot be enumerated
//! statically.  Including full 32-bit targets in the path encoding would blow up the
//! path-indexed memory, so LO-FAT re-encodes each distinct target seen in a loop
//! into a small n-bit code using a content-addressable memory (two interleaved CAMs
//! in the prototype, for single-cycle constant-time lookup).  When more than 2ⁿ − 1
//! distinct targets appear, the engine reports the **all-zero code** so the verifier
//! learns that the encoding overflowed.

use std::collections::BTreeMap;

/// The code reported when the CAM runs out of encodable entries.
pub const OVERFLOW_CODE: u32 = 0;

/// A constant-time (modelled) content-addressable memory mapping 32-bit indirect
/// branch targets to n-bit codes.
#[derive(Debug, Clone)]
pub struct IndirectTargetCam {
    bits: u32,
    /// Target address → assigned code, in assignment order starting at 1.
    entries: BTreeMap<u32, u32>,
    /// Number of lookups that could not be assigned a code.
    overflows: u64,
}

impl IndirectTargetCam {
    /// Creates an empty CAM with n-bit codes (capacity 2ⁿ − 1 targets).
    pub fn new(bits: u32) -> Self {
        Self { bits, entries: BTreeMap::new(), overflows: 0 }
    }

    /// Number of bits per code.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Maximum number of distinct targets the CAM can encode.
    pub fn capacity(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Number of targets currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no target has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up (and, if necessary and possible, inserts) `target`, returning its
    /// n-bit code.  Returns [`OVERFLOW_CODE`] if the CAM is full and the target is
    /// not already present.
    pub fn encode(&mut self, target: u32) -> u32 {
        if let Some(&code) = self.entries.get(&target) {
            return code;
        }
        if self.entries.len() as u32 >= self.capacity() {
            self.overflows += 1;
            return OVERFLOW_CODE;
        }
        let code = self.entries.len() as u32 + 1;
        self.entries.insert(target, code);
        code
    }

    /// The target → code table, in ascending target order (the metadata
    /// record for the verifier lists it so).
    pub fn table(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        self.entries.iter().map(|(&t, &c)| (t, c))
    }

    /// Number of lookups that returned the overflow code.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Clears the CAM for re-use by a subsequent loop execution (the hardware re-uses
    /// the memory after a loop exits).
    ///
    /// Resets the overflow counter too: it is reported per activation
    /// (added to [`crate::engine::EngineStats::cam_overflows`] at loop exit),
    /// so a recycled CAM must start from zero exactly like a freshly built one.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.overflows = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_start_at_one() {
        let mut cam = IndirectTargetCam::new(4);
        assert_eq!(cam.capacity(), 15);
        let a = cam.encode(0x2000);
        let b = cam.encode(0x3000);
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(cam.encode(0x2000), 1, "repeated target keeps its code");
        assert_eq!(cam.len(), 2);
    }

    #[test]
    fn overflow_reports_all_zero_code() {
        let mut cam = IndirectTargetCam::new(2); // capacity 3
        assert_eq!(cam.encode(0x10), 1);
        assert_eq!(cam.encode(0x20), 2);
        assert_eq!(cam.encode(0x30), 3);
        assert_eq!(cam.encode(0x40), OVERFLOW_CODE);
        assert_eq!(cam.overflows(), 1);
        // Known targets still resolve after an overflow.
        assert_eq!(cam.encode(0x20), 2);
    }

    #[test]
    fn clear_reuses_memory() {
        let mut cam = IndirectTargetCam::new(2);
        cam.encode(0x10);
        cam.encode(0x20);
        cam.clear();
        assert!(cam.is_empty());
        assert_eq!(cam.encode(0x99), 1);
    }

    #[test]
    fn clear_resets_the_overflow_counter() {
        // 1-bit codes: capacity 1, so the second distinct target overflows.
        let mut cam = IndirectTargetCam::new(1);
        cam.encode(0x10);
        cam.encode(0x20);
        assert_eq!(cam.overflows(), 1);
        cam.clear();
        assert_eq!(cam.overflows(), 0, "recycled CAM must not re-report old overflows");
    }

    #[test]
    fn table_is_deterministic() {
        let mut cam = IndirectTargetCam::new(4);
        cam.encode(0x300);
        cam.encode(0x100);
        cam.encode(0x200);
        assert_eq!(cam.table().collect::<Vec<_>>(), vec![(0x100, 2), (0x200, 3), (0x300, 1)]);
    }
}
