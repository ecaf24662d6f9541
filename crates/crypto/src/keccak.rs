//! The Keccak-f\[1600\] permutation.
//!
//! This is the core permutation underlying SHA-3 (FIPS 202).  LO-FAT's hash engine
//! is a hardware Keccak core; the software implementation here produces identical
//! digests and is shared by [`crate::sha3`] and [`crate::hash_engine`].

/// Number of 64-bit lanes in the Keccak-f\[1600\] state (5 × 5).
pub const STATE_LANES: usize = 25;

/// Number of rounds of Keccak-f\[1600\].
pub const ROUNDS: usize = 24;

/// Round constants for the ι (iota) step (shared with [`crate::keccak4`]).
pub(crate) const ROUND_CONSTANTS: [u64; ROUNDS] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the ρ (rho) step, indexed `[x + 5 * y]`.
///
/// The unrolled [`KeccakState::round`] bakes these constants into the code; the
/// table is kept as the authoritative FIPS 202 reference and is checked against
/// the unrolled constants by a test below.
#[cfg(test)]
const RHO_OFFSETS: [u32; STATE_LANES] = [
    0, 1, 62, 28, 27, //
    36, 44, 6, 55, 20, //
    3, 10, 43, 25, 39, //
    41, 45, 15, 21, 8, //
    18, 2, 61, 56, 14,
];

/// A Keccak-f\[1600\] state of 25 64-bit lanes.
///
/// The lane at coordinates `(x, y)` is stored at index `x + 5 * y`, matching the
/// FIPS 202 convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeccakState {
    lanes: [u64; STATE_LANES],
}

impl KeccakState {
    /// Creates an all-zero state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a state from raw lanes (index `x + 5 * y`, as returned by
    /// [`KeccakState::lanes`]).  Used by the multi-lane batch path
    /// ([`crate::keccak4`]) to hand states between the scalar and the 4-way
    /// representation.
    pub fn from_lanes(lanes: [u64; STATE_LANES]) -> Self {
        Self { lanes }
    }

    /// Returns the raw lanes of the state.
    pub fn lanes(&self) -> &[u64; STATE_LANES] {
        &self.lanes
    }

    /// XORs a 64-bit word into lane `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 25`.
    pub fn xor_lane(&mut self, index: usize, value: u64) {
        self.lanes[index] ^= value;
    }

    /// XORs a byte into the state at byte offset `offset` (little-endian lane order).
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 200`.
    pub fn xor_byte(&mut self, offset: usize, value: u8) {
        let lane = offset / 8;
        let shift = (offset % 8) * 8;
        self.lanes[lane] ^= u64::from(value) << shift;
    }

    /// Reads a byte of the state at byte offset `offset` (little-endian lane order).
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 200`.
    pub fn byte(&self, offset: usize) -> u8 {
        let lane = offset / 8;
        let shift = (offset % 8) * 8;
        (self.lanes[lane] >> shift) as u8
    }

    /// Applies the full 24-round Keccak-f\[1600\] permutation in place.
    ///
    /// The state is copied into a local array for the 24 rounds and written back
    /// once: rounds then chain through values the optimiser knows nothing else
    /// aliases, instead of loading and storing all 25 lanes through `&mut self`
    /// every round.  (The PR that unrolled the round function sped up the
    /// sponge absorb path but regressed this bare dependent-latency figure; the
    /// local copy recovers it.)
    pub fn permute(&mut self) {
        #[cfg(test)]
        PERMUTATIONS.with(|count| count.set(count.get() + 1));
        permute_lanes(&mut self.lanes);
    }

    /// One Keccak round applied directly to the stored lanes (test oracle entry
    /// point; the hot path goes through [`KeccakState::permute`]).
    #[cfg(test)]
    fn round(&mut self, rc: u64) {
        round_on(&mut self.lanes, rc);
    }
}

#[cfg(test)]
thread_local! {
    /// Scalar permutations run on this thread, in test builds only (the
    /// packed 4-way permutation is not counted).
    static PERMUTATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `f` and returns how many scalar Keccak-f permutations it ran on this
/// thread: the unit tests pin the MAC's and the signer's counts with it.
#[cfg(test)]
pub(crate) fn permutations_of(f: impl FnOnce()) -> u64 {
    let before = PERMUTATIONS.with(std::cell::Cell::get);
    f();
    PERMUTATIONS.with(std::cell::Cell::get) - before
}

/// The full 24-round permutation over a bare lane array (shared by
/// [`KeccakState::permute`] and the packed fallback in [`crate::keccak4`]).
pub(crate) fn permute_lanes(lanes: &mut [u64; STATE_LANES]) {
    let mut local = *lanes;
    for rc in ROUND_CONSTANTS {
        round_on(&mut local, rc);
    }
    *lanes = local;
}

/// One Keccak round: θ, ρ, π, χ, ι — fully unrolled.
///
/// All 25 lanes are held in locals, the ρ rotation amounts and π target
/// positions are baked in as constants and every array access uses a constant
/// index, so the compiler emits straight-line code with no bounds checks and
/// no `% 5` index arithmetic.  θ is fused into ρ/π (each lane picks up its
/// column parity `D[x]` as it is rotated into place).
#[inline]
fn round_on(lanes: &mut [u64; STATE_LANES], rc: u64) {
    let a: &[u64; STATE_LANES] = lanes;

    // θ (theta): column parities and the per-column mix values.
    let c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    let c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    let c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    let c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    let c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    let d0 = c4 ^ c1.rotate_left(1);
    let d1 = c0 ^ c2.rotate_left(1);
    let d2 = c1 ^ c3.rotate_left(1);
    let d3 = c2 ^ c4.rotate_left(1);
    let d4 = c3 ^ c0.rotate_left(1);

    // θ-apply + ρ (rotate) + π (permute): B[y, 2x+3y] = rot(A[x, y] ^ D[x]).
    // Locals are named after the *destination* index `nx + 5 * ny`.
    let b0 = a[0] ^ d0;
    let b10 = (a[1] ^ d1).rotate_left(1);
    let b20 = (a[2] ^ d2).rotate_left(62);
    let b5 = (a[3] ^ d3).rotate_left(28);
    let b15 = (a[4] ^ d4).rotate_left(27);
    let b16 = (a[5] ^ d0).rotate_left(36);
    let b1 = (a[6] ^ d1).rotate_left(44);
    let b11 = (a[7] ^ d2).rotate_left(6);
    let b21 = (a[8] ^ d3).rotate_left(55);
    let b6 = (a[9] ^ d4).rotate_left(20);
    let b7 = (a[10] ^ d0).rotate_left(3);
    let b17 = (a[11] ^ d1).rotate_left(10);
    let b2 = (a[12] ^ d2).rotate_left(43);
    let b12 = (a[13] ^ d3).rotate_left(25);
    let b22 = (a[14] ^ d4).rotate_left(39);
    let b23 = (a[15] ^ d0).rotate_left(41);
    let b8 = (a[16] ^ d1).rotate_left(45);
    let b18 = (a[17] ^ d2).rotate_left(15);
    let b3 = (a[18] ^ d3).rotate_left(21);
    let b13 = (a[19] ^ d4).rotate_left(8);
    let b14 = (a[20] ^ d0).rotate_left(18);
    let b24 = (a[21] ^ d1).rotate_left(2);
    let b9 = (a[22] ^ d2).rotate_left(61);
    let b19 = (a[23] ^ d3).rotate_left(56);
    let b4 = (a[24] ^ d4).rotate_left(14);

    // χ (chi) row by row, with ι (iota) folded into lane 0.
    let a = lanes;
    a[0] = b0 ^ (!b1 & b2) ^ rc;
    a[1] = b1 ^ (!b2 & b3);
    a[2] = b2 ^ (!b3 & b4);
    a[3] = b3 ^ (!b4 & b0);
    a[4] = b4 ^ (!b0 & b1);
    a[5] = b5 ^ (!b6 & b7);
    a[6] = b6 ^ (!b7 & b8);
    a[7] = b7 ^ (!b8 & b9);
    a[8] = b8 ^ (!b9 & b5);
    a[9] = b9 ^ (!b5 & b6);
    a[10] = b10 ^ (!b11 & b12);
    a[11] = b11 ^ (!b12 & b13);
    a[12] = b12 ^ (!b13 & b14);
    a[13] = b13 ^ (!b14 & b10);
    a[14] = b14 ^ (!b10 & b11);
    a[15] = b15 ^ (!b16 & b17);
    a[16] = b16 ^ (!b17 & b18);
    a[17] = b17 ^ (!b18 & b19);
    a[18] = b18 ^ (!b19 & b15);
    a[19] = b19 ^ (!b15 & b16);
    a[20] = b20 ^ (!b21 & b22);
    a[21] = b21 ^ (!b22 & b23);
    a[22] = b22 ^ (!b23 & b24);
    a[23] = b23 ^ (!b24 & b20);
    a[24] = b24 ^ (!b20 & b21);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: the first lane after permuting the all-zero state.
    ///
    /// The reference value `0xF1258F7940E1DDE7` comes from the Keccak team's
    /// `KeccakF-1600-IntermediateValues.txt`.
    #[test]
    fn permutation_of_zero_state_known_answer() {
        let mut st = KeccakState::new();
        st.permute();
        assert_eq!(st.lanes()[0], 0xF125_8F79_40E1_DDE7);
        // Permuting again must change the state (the permutation has no short cycles
        // reachable from the zero state).
        let once = *st.lanes();
        st.permute();
        assert_ne!(&once, st.lanes());
    }

    #[test]
    fn xor_byte_and_byte_roundtrip() {
        let mut st = KeccakState::new();
        st.xor_byte(0, 0xAB);
        st.xor_byte(7, 0x01);
        st.xor_byte(8, 0xFF);
        st.xor_byte(199, 0x7E);
        assert_eq!(st.byte(0), 0xAB);
        assert_eq!(st.byte(7), 0x01);
        assert_eq!(st.byte(8), 0xFF);
        assert_eq!(st.byte(199), 0x7E);
        assert_eq!(st.byte(100), 0x00);
    }

    #[test]
    fn xor_lane_matches_xor_bytes() {
        let mut a = KeccakState::new();
        let mut b = KeccakState::new();
        let word = 0x0123_4567_89AB_CDEFu64;
        a.xor_lane(3, word);
        for (i, byte) in word.to_le_bytes().iter().enumerate() {
            b.xor_byte(3 * 8 + i, *byte);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut a = KeccakState::new();
        a.xor_lane(0, 42);
        let mut b = a;
        a.permute();
        b.permute();
        assert_eq!(a, b);
    }

    /// Straightforward looped FIPS 202 round, kept as the oracle for the unrolled
    /// implementation (uses the authoritative `RHO_OFFSETS` table and the generic
    /// `% 5` index arithmetic the hot path avoids).
    fn reference_round(lanes: &mut [u64; STATE_LANES], rc: u64) {
        let a = lanes;
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for y in 0..5 {
            for x in 0..5 {
                a[x + 5 * y] ^= d[x];
            }
        }
        let mut b = [0u64; STATE_LANES];
        for y in 0..5 {
            for x in 0..5 {
                let idx = x + 5 * y;
                let rotated = a[idx].rotate_left(RHO_OFFSETS[idx]);
                let nx = y;
                let ny = (2 * x + 3 * y) % 5;
                b[nx + 5 * ny] = rotated;
            }
        }
        for y in 0..5 {
            for x in 0..5 {
                a[x + 5 * y] = b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }
        a[0] ^= rc;
    }

    /// The unrolled round must match the looped reference round on states that
    /// exercise every lane, for every round constant.
    #[test]
    fn unrolled_round_matches_reference_round() {
        let mut unrolled = KeccakState::new();
        // A state with all lanes distinct and asymmetric.
        for i in 0..STATE_LANES {
            unrolled.xor_lane(i, (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let mut reference = *unrolled.lanes();
        for (round, rc) in ROUND_CONSTANTS.iter().enumerate() {
            unrolled.round(*rc);
            reference_round(&mut reference, *rc);
            assert_eq!(unrolled.lanes(), &reference, "diverged at round {round}");
        }
    }
}
