//! Loop path encoder (§5.1, Fig. 4).
//!
//! Inside a tracked loop, every control-flow decision appends bits to a shift
//! register: a conditional branch contributes its taken (`1`) / not-taken (`0`) bit,
//! an unconditional direct jump contributes a `1`, and an indirect branch contributes
//! the n-bit code assigned by the [`crate::cam::IndirectTargetCam`].  The resulting
//! *path ID* uniquely identifies the path taken through the loop body in this
//! iteration and indexes the loop counter memory.
//!
//! The register is initialised with a sentinel `1` so that encodings of different
//! lengths stay distinct, mirroring [`lofat_cfg::paths::encode_path_bits`] which the
//! verifier uses to enumerate the valid IDs.

/// Encoder state for the current loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEncoder {
    /// Shift register holding the sentinel and the decision bits.
    value: u64,
    /// Number of decision bits currently encoded (excluding the sentinel).
    bits_used: u32,
    /// ℓ — maximum decision bits per path.
    max_bits: u32,
    /// Set once more than `max_bits` bits were pushed; the path ID is then reported
    /// as the all-zero overflow code.
    overflowed: bool,
}

/// Path ID value reported when the encoder overflowed its configured capacity.
pub const OVERFLOW_PATH_ID: u32 = 0;

impl PathEncoder {
    /// Creates an empty encoder accepting up to `max_bits` decision bits.
    pub fn new(max_bits: u32) -> Self {
        Self { value: 1, bits_used: 0, max_bits, overflowed: false }
    }

    /// Appends a single taken/not-taken bit (conditional branches and direct jumps).
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Appends an n-bit indirect-target code from the CAM.
    #[inline]
    pub fn push_code(&mut self, code: u32, bits: u32) {
        self.push_bits(u64::from(code), bits);
    }

    #[inline]
    fn push_bits(&mut self, value: u64, bits: u32) {
        if self.bits_used + bits > self.max_bits {
            self.overflowed = true;
            return;
        }
        self.value = (self.value << bits) | (value & ((1 << bits) - 1));
        self.bits_used += bits;
    }

    /// Number of decision bits encoded so far.
    pub fn bits_used(&self) -> u32 {
        self.bits_used
    }

    /// Returns `true` if at least one decision bit was recorded.
    pub fn has_bits(&self) -> bool {
        self.bits_used > 0
    }

    /// Returns `true` if the encoder exceeded its capacity.
    #[inline]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The current path ID (all-zero [`OVERFLOW_PATH_ID`] if the encoder overflowed).
    #[inline]
    pub fn path_id(&self) -> u32 {
        if self.overflowed {
            OVERFLOW_PATH_ID
        } else {
            self.value as u32
        }
    }

    /// Resets the encoder for the next iteration of the loop.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 1;
        self.bits_used = 0;
        self.overflowed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two Fig. 4 paths: "011" and "0011" (sentinel-prefixed numeric IDs).
    #[test]
    fn fig4_paths_encode_to_paper_values() {
        let mut enc = PathEncoder::new(16);
        for bit in [false, true, true] {
            enc.push_bit(bit);
        }
        assert_eq!(enc.path_id(), 0b1_011);
        enc.reset();
        for bit in [false, false, true, true] {
            enc.push_bit(bit);
        }
        assert_eq!(enc.path_id(), 0b1_0011);
    }

    #[test]
    fn encoder_matches_verifier_encoding() {
        let bits = [true, false, true, true, false];
        let mut enc = PathEncoder::new(16);
        for &b in &bits {
            enc.push_bit(b);
        }
        assert_eq!(enc.path_id(), lofat_cfg::paths::encode_path_bits(&bits));
    }

    #[test]
    fn indirect_codes_take_n_bits() {
        let mut enc = PathEncoder::new(16);
        enc.push_bit(true);
        enc.push_code(0b0101, 4);
        assert_eq!(enc.bits_used(), 5);
        assert_eq!(enc.path_id(), 0b11_0101);
    }

    #[test]
    fn overflow_reports_all_zero_id() {
        let mut enc = PathEncoder::new(3);
        enc.push_bit(true);
        enc.push_bit(true);
        enc.push_bit(false);
        assert!(!enc.overflowed());
        enc.push_bit(true);
        assert!(enc.overflowed());
        assert_eq!(enc.path_id(), OVERFLOW_PATH_ID);
        // Reset clears the overflow condition.
        enc.reset();
        assert!(!enc.overflowed());
        assert_eq!(enc.path_id(), 1);
    }

    #[test]
    fn empty_path_id_is_sentinel_only() {
        let enc = PathEncoder::new(8);
        assert_eq!(enc.path_id(), 1);
        assert!(!enc.has_bits());
    }

    #[test]
    fn code_wider_than_remaining_capacity_overflows() {
        let mut enc = PathEncoder::new(4);
        enc.push_bit(true);
        enc.push_code(0xF, 4);
        assert!(enc.overflowed());
    }
}
