//! Crate-internal batching layer between the sponges and the 4-way permutation.
//!
//! Two primitives cover every batch use in the workspace:
//!
//! * [`absorb4_from`] — absorb four messages in lockstep from a shared base
//!   sponge (fresh, or already keyed as in HMAC's inner hash).  Whole rate
//!   blocks are XORed into a packed [`KeccakState4`] and permuted four-at-once
//!   while *every* slot still has a full block left; the ragged remainders then
//!   finish through the scalar sponge, so unequal message lengths only cost
//!   scalar work for the unequal part.
//! * [`finalize4`] — pad-and-permute four sponges at arbitrary, unrelated
//!   absorb offsets with a single packed permutation.  This is what lets the
//!   verifier drain in-flight HMAC states (each mid-block after absorbing a
//!   different payload) as one batch.
//!
//! Both produce bit-identical results to the scalar path; the NIST-vector
//! suite pins this for every FIPS 202 golden vector in every lane position.

use crate::keccak4::{KeccakState4, LANES};
use crate::sha3::{Digest, Sponge, FINAL_PAD, SHA3_PAD};

/// Absorbs four messages in lockstep starting from copies of `base`.
///
/// `base.offset` must be 0 (a freshly permuted or block-aligned sponge); the
/// HMAC inner key block and the empty sponge both satisfy this.
pub(crate) fn absorb4_from(base: &Sponge, messages: [&[u8]; LANES]) -> [Sponge; LANES] {
    debug_assert_eq!(base.offset, 0, "lockstep absorb requires a block-aligned base");
    let rate = base.rate_bytes;
    // Whole rate blocks absorbable while every slot still has one.
    let blocks = messages.iter().map(|m| m.len() / rate).min().unwrap_or(0);

    let mut packed = KeccakState4::from_states(&[base.state; LANES]);
    for block in 0..blocks {
        for (slot, message) in messages.iter().enumerate() {
            let chunk = &message[block * rate..(block + 1) * rate];
            for (lane, lane_bytes) in chunk.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(lane_bytes.try_into().expect("8 bytes"));
                packed.xor_lane(slot, lane, word);
            }
        }
        packed.permute();
    }

    let states = packed.into_states();
    let mut slot = 0;
    states.map(|state| {
        let mut sponge =
            Sponge { state, rate_bytes: rate, output_bytes: base.output_bytes, offset: 0 };
        sponge.update(&messages[slot][blocks * rate..]);
        slot += 1;
        sponge
    })
}

/// Pads and finalizes four sponges with one packed permutation.
///
/// The sponges may be at arbitrary absorb offsets (padding is a per-slot XOR of
/// two bytes; only the final permutation is shared), but must agree on rate and
/// output length.  Output lengths above the rate would need extra squeeze
/// permutations; both SHA-3 variants in this crate squeeze a single block.
pub(crate) fn finalize4(mut sponges: [Sponge; LANES]) -> [Digest; LANES] {
    let rate = sponges[0].rate_bytes;
    let output = sponges[0].output_bytes;
    debug_assert!(output <= rate, "single-block squeeze only");
    for sponge in &mut sponges {
        debug_assert_eq!(sponge.rate_bytes, rate);
        debug_assert_eq!(sponge.output_bytes, output);
        sponge.state.xor_byte(sponge.offset, SHA3_PAD);
        sponge.state.xor_byte(rate - 1, FINAL_PAD);
    }
    let mut packed = KeccakState4::from_states(&[
        sponges[0].state,
        sponges[1].state,
        sponges[2].state,
        sponges[3].state,
    ]);
    packed.permute();
    std::array::from_fn(|slot| {
        let mut out = Vec::with_capacity(output);
        for i in 0..output {
            out.push(packed.byte(slot, i));
        }
        Digest::from_bytes(out)
    })
}

/// Hashes each message from copies of `base`: full groups of four via
/// [`absorb4_from`] + [`finalize4`], the tail via the scalar sponge.
pub(crate) fn digest_each<T: AsRef<[u8]>>(base: &Sponge, messages: &[T]) -> Vec<Digest> {
    let mut digests = Vec::with_capacity(messages.len());
    let mut chunks = messages.chunks_exact(LANES);
    for group in &mut chunks {
        let sponges = absorb4_from(
            base,
            [group[0].as_ref(), group[1].as_ref(), group[2].as_ref(), group[3].as_ref()],
        );
        digests.extend(finalize4(sponges));
    }
    for message in chunks.remainder() {
        let mut sponge = base.clone();
        sponge.update(message.as_ref());
        digests.push(sponge.finalize());
    }
    digests
}

/// Finalizes each sponge: full groups of four via [`finalize4`], scalar tail.
pub(crate) fn finalize_each(sponges: Vec<Sponge>) -> Vec<Digest> {
    let mut digests = Vec::with_capacity(sponges.len());
    let mut rest = sponges;
    while rest.len() >= LANES {
        let tail = rest.split_off(LANES);
        let group: [Sponge; LANES] = rest.try_into().expect("exactly four sponges");
        digests.extend(finalize4(group));
        rest = tail;
    }
    for sponge in rest {
        digests.push(sponge.finalize());
    }
    digests
}

#[cfg(test)]
mod tests {
    use crate::sha3::{Sha3_256, Sha3_512};

    #[test]
    fn digest_many_matches_scalar_for_all_batch_sizes() {
        let messages: Vec<Vec<u8>> =
            (0..9u32).map(|i| (0..(i * 37)).map(|j| (j * 13 + i) as u8).collect()).collect();
        for n in 0..=messages.len() {
            let batch = Sha3_512::digest_many(&messages[..n]);
            assert_eq!(batch.len(), n);
            for (msg, digest) in messages[..n].iter().zip(&batch) {
                assert_eq!(digest, &Sha3_512::digest(msg), "batch size {n}");
            }
        }
    }

    #[test]
    fn digest_many_sha3_256_matches_scalar() {
        let messages: Vec<Vec<u8>> = (0..6u32).map(|i| vec![i as u8; (i as usize) * 45]).collect();
        let batch = Sha3_256::digest_many(&messages);
        for (msg, digest) in messages.iter().zip(&batch) {
            assert_eq!(digest, &Sha3_256::digest(msg));
        }
    }

    #[test]
    fn finalize_many_handles_arbitrary_offsets() {
        // Hashers mid-block at different offsets, including block-aligned and
        // nearly-full at either rate (72 and 136 bytes), plus a ragged tail
        // of two.
        let lengths = [0usize, 1, 7, 8, 71, 72, 73, 135, 136, 137, 144, 145, 200, 291];
        let hashers: Vec<Sha3_512> = lengths
            .iter()
            .map(|&len| {
                let mut h = Sha3_512::new();
                h.update(vec![0xA5u8; len]);
                h
            })
            .collect();
        let batch = Sha3_512::finalize_many(hashers);
        for (&len, digest) in lengths.iter().zip(&batch) {
            assert_eq!(digest, &Sha3_512::digest(vec![0xA5u8; len]), "length {len}");
        }
        let hashers: Vec<Sha3_256> = lengths
            .iter()
            .map(|&len| {
                let mut h = Sha3_256::new();
                h.update(vec![0xA5u8; len]);
                h
            })
            .collect();
        let batch = Sha3_256::finalize_many(hashers);
        for (&len, digest) in lengths.iter().zip(&batch) {
            assert_eq!(digest, &Sha3_256::digest(vec![0xA5u8; len]), "SHA3-256, length {len}");
        }
    }

    #[test]
    fn lockstep_absorb_with_wildly_unequal_lengths() {
        let messages: Vec<Vec<u8>> = vec![vec![], vec![1u8; 10_000], vec![2u8; 71], vec![3u8; 500]];
        let batch = Sha3_512::digest_many(&messages);
        for (msg, digest) in messages.iter().zip(&batch) {
            assert_eq!(digest, &Sha3_512::digest(msg));
        }
    }
}
