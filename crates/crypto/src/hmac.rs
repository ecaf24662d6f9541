//! HMAC over SHA-3-256.
//!
//! The LO-FAT prover's attestation report is authenticated under a device key kept in
//! hardware-protected storage.  This reproduction uses HMAC-SHA3-256 (RFC 2104 over
//! FIPS 202 SHA3-256: a 136-byte block and a 32-byte tag) as the keyed primitive (the
//! crate docs say why the substitution is sound).  The 256-bit tag is as strong as
//! the 256-bit device key behind it, and SHA3-256's 136-byte rate absorbs a report in
//! fewer Keccak-f permutations than SHA3-512's 72-byte rate.  Note that SHA-3 does
//! not strictly need the HMAC construction (KMAC would suffice), but HMAC keeps the
//! verifier logic conventional and easy to audit.

use crate::sha3::{Digest, Sha3_256};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Incremental HMAC-SHA3-256.
///
/// # Example
///
/// ```
/// use lofat_crypto::Hmac;
///
/// let mut mac = Hmac::new(b"device-key");
/// mac.update(b"message");
/// let tag = mac.finalize();
/// assert!(Hmac::verify(b"device-key", b"message", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct Hmac {
    inner: Sha3_256,
    /// Outer hash with the `opad`-masked key block already absorbed.
    ///
    /// Keeping the keyed outer state (instead of the raw key block) makes every
    /// clone-and-finalize of a reused keyed instance one permutation cheaper,
    /// and leaves the outer pass as a fixed-shape single-block hash that
    /// [`Hmac::finalize_many`] can run through the 4-way permutation.
    outer: Sha3_256,
}

impl Hmac {
    /// Creates a new MAC instance keyed with `key`.
    ///
    /// Keys longer than the hash rate are first hashed, as prescribed by RFC 2104.
    /// Keying costs two permutations; cloning an already-keyed instance (the
    /// prover's [`crate::KeyRegister`], a verifier's per-fleet-key base MAC)
    /// skips both.
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; Sha3_256::RATE_BYTES];
        if key.len() > Sha3_256::RATE_BYTES {
            let digest = Sha3_256::digest(key);
            block[..digest.len()].copy_from_slice(digest.as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }

        let mut inner_key = [0u8; Sha3_256::RATE_BYTES];
        let mut outer_key = [0u8; Sha3_256::RATE_BYTES];
        for i in 0..Sha3_256::RATE_BYTES {
            inner_key[i] = block[i] ^ IPAD;
            outer_key[i] = block[i] ^ OPAD;
        }

        let mut inner = Sha3_256::new();
        inner.update(inner_key);
        let mut outer = Sha3_256::new();
        outer.update(outer_key);
        Self { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        self.inner.update(data);
    }

    /// Finalizes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// Finalizes many in-flight MACs at once through the 4-way permutation.
    ///
    /// Inner hashes finalize in packed groups of four regardless of how much
    /// each has absorbed; the outer passes (a 32-byte inner tag each, after
    /// the key block the keyed outer state already holds) then run in
    /// perfect lockstep — two packed permutations per four MACs where the
    /// scalar path needs eight.  Tags are bit-identical to
    /// [`Hmac::finalize`] per instance.
    pub fn finalize_many(macs: Vec<Hmac>) -> Vec<Digest> {
        let (inners, outers): (Vec<_>, Vec<_>) =
            macs.into_iter().map(|m| (m.inner, m.outer)).unzip();
        let inner_tags = Sha3_256::finalize_many(inners);
        let mut keyed = outers;
        for (outer, tag) in keyed.iter_mut().zip(&inner_tags) {
            outer.update(tag.as_bytes());
        }
        Sha3_256::finalize_many(keyed)
    }

    /// One-shot MAC computation.
    pub fn mac(key: &[u8], message: &[u8]) -> Digest {
        let mut h = Self::new(key);
        h.update(message);
        h.finalize()
    }

    /// MACs many messages under one key, batching both the message absorption
    /// (lockstep groups of four) and the finalization through the 4-way
    /// permutation.  Tags are bit-identical to [`Hmac::mac`] per message.
    pub fn mac_many<T: AsRef<[u8]>>(key: &[u8], messages: &[T]) -> Vec<Digest> {
        let base = Self::new(key);
        let mut macs = Vec::with_capacity(messages.len());
        let mut chunks = messages.chunks_exact(4);
        for group in &mut chunks {
            let inners = crate::multilane::absorb4_from(
                &base.inner.sponge,
                [group[0].as_ref(), group[1].as_ref(), group[2].as_ref(), group[3].as_ref()],
            );
            for sponge in inners {
                macs.push(Self { inner: Sha3_256 { sponge }, outer: base.outer.clone() });
            }
        }
        for message in chunks.remainder() {
            let mut mac = base.clone();
            mac.update(message.as_ref());
            macs.push(mac);
        }
        Self::finalize_many(macs)
    }

    /// Verifies that `tag` is the MAC of `message` under `key`.
    pub fn verify(key: &[u8], message: &[u8], tag: &Digest) -> bool {
        Self::mac(key, message).ct_eq(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_roundtrip() {
        let tag = Hmac::mac(b"key", b"hello world");
        assert!(Hmac::verify(b"key", b"hello world", &tag));
        assert!(!Hmac::verify(b"key", b"hello worlD", &tag));
        assert!(!Hmac::verify(b"kex", b"hello world", &tag));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut m = Hmac::new(b"k");
        m.update(b"ab");
        m.update(b"cdef");
        assert_eq!(m.finalize(), Hmac::mac(b"k", b"abcdef"));
    }

    #[test]
    fn long_keys_are_hashed() {
        let long_key = vec![0x42u8; 500];
        let tag = Hmac::mac(&long_key, b"msg");
        assert!(Hmac::verify(&long_key, b"msg", &tag));
        // A long key must not collide with its own hash used directly (different ipad mix).
        let hashed = Sha3_256::digest(&long_key);
        assert_ne!(tag, Hmac::mac(hashed.as_bytes(), b"other"));
    }

    #[test]
    fn empty_message_and_key() {
        let tag = Hmac::mac(b"", b"");
        assert_eq!(tag.len(), 32);
        assert!(Hmac::verify(b"", b"", &tag));
    }

    /// The Keccak-f permutations one MAC of a `len`-byte message runs from
    /// a keyed base: one per full 136-byte block and one for the inner
    /// padding, then one for the outer hash over the 32-byte inner tag.
    #[test]
    fn a_mac_from_the_keyed_base_runs_one_permutation_per_block() {
        let base = Hmac::new(&[0x42; 32]);
        // rttbench's `fleet-cold` signs ~291 bytes and `fleet-hot` 113.
        for (len, permutations) in [(0, 2), (113, 2), (135, 2), (136, 3), (291, 4)] {
            let message = vec![0x5a; len];
            let count = crate::keccak::permutations_of(|| {
                let mut mac = base.clone();
                mac.update(&message);
                mac.finalize();
            });
            assert_eq!(count, permutations, "a {len}-byte message");
        }
        // Keying absorbs one block into each of the two hashes.
        let keying = crate::keccak::permutations_of(|| {
            std::hint::black_box(Hmac::new(&[0x42; 32]));
        });
        assert_eq!(keying, 2);
    }

    #[test]
    fn tags_differ_under_different_keys() {
        assert_ne!(Hmac::mac(b"k1", b"m"), Hmac::mac(b"k2", b"m"));
    }

    #[test]
    fn finalize_many_matches_scalar_finalize() {
        // In-flight MACs at assorted absorb offsets, counts 0..=9 to cover
        // full groups and every ragged tail size.
        for count in 0..=9usize {
            let macs: Vec<Hmac> = (0..count)
                .map(|i| {
                    let mut m = Hmac::new(b"fleet-key");
                    m.update(vec![i as u8; i * 29]);
                    m
                })
                .collect();
            let tags = Hmac::finalize_many(macs);
            for (i, tag) in tags.iter().enumerate() {
                assert_eq!(tag, &Hmac::mac(b"fleet-key", &vec![i as u8; i * 29]));
            }
        }
    }

    #[test]
    fn mac_many_matches_scalar_mac() {
        let messages: Vec<Vec<u8>> =
            (0..7u32).map(|i| (0..(i * 53)).map(|j| (j ^ i) as u8).collect()).collect();
        let tags = Hmac::mac_many(b"device-key", &messages);
        assert_eq!(tags.len(), messages.len());
        for (msg, tag) in messages.iter().zip(&tags) {
            assert_eq!(tag, &Hmac::mac(b"device-key", msg));
        }
    }
}
