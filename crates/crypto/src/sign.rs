//! Attestation report signatures.
//!
//! The paper computes `R = sign(P ‖ N; sk)` over the program path `P = (A, L)` and
//! the verifier nonce `N`.  The reproduction offers two schemes behind the
//! [`Signer`]/[`Verifier`] traits:
//!
//! * [`HmacSigner`] — the default, a keyed MAC under the hardware-protected device
//!   key (symmetric trust between prover and verifier, as common for embedded
//!   attestation deployments);
//! * [`crate::lamport::LamportKeyPair`] — a hash-based one-time signature offering
//!   public verifiability, used by the extension example.

use crate::error::CryptoError;
use crate::keys::{DeviceKey, KeyRegister, VerificationKey};
use crate::sha3::Digest;

/// A signature (or MAC tag) over an attestation report.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Signature {
    bytes: Vec<u8>,
}

impl Signature {
    /// Wraps raw signature bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Returns the signature bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the signature in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the signature is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl From<Digest> for Signature {
    fn from(digest: Digest) -> Self {
        Self { bytes: digest.as_bytes().to_vec() }
    }
}

/// Anything that can sign an attestation report on the prover.
pub trait Signer {
    /// Signs `message` and returns the signature.
    ///
    /// # Errors
    ///
    /// Implementations may fail, e.g. a one-time key that was already used.
    fn sign(&mut self, message: &[u8]) -> Result<Signature, CryptoError>;
}

/// Anything that can verify an attestation report on the verifier.
pub trait Verifier {
    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::SignatureMismatch`] if verification fails.
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError>;
}

/// The default signer: HMAC-SHA3-256 under the device key held in the key register,
/// which keys the MAC once, when it is provisioned.  Its tags are 32 bytes.
#[derive(Debug, Clone)]
pub struct HmacSigner {
    register: KeyRegister,
}

impl HmacSigner {
    /// Creates a signer whose key lives in a hardware-protected register.
    pub fn new(key: DeviceKey) -> Self {
        Self { register: KeyRegister::provision(key) }
    }

    /// Number of reports signed so far.
    pub fn signatures_issued(&self) -> u64 {
        self.register.signatures_issued()
    }
}

impl Signer for HmacSigner {
    fn sign(&mut self, message: &[u8]) -> Result<Signature, CryptoError> {
        Ok(Signature::from(self.register.sign(message)))
    }
}

/// The verifier-side counterpart of [`HmacSigner`].
#[derive(Clone)]
pub struct HmacVerifier {
    key: VerificationKey,
    /// Keyed-but-empty MAC: cloning it skips the two key-schedule permutations
    /// on every verification.
    base: crate::hmac::Hmac,
}

impl HmacVerifier {
    /// Creates a verifier from the verification key shared with the prover.
    pub fn new(key: VerificationKey) -> Self {
        let base = key.mac_base();
        Self { key, base }
    }

    /// Returns the keyed-but-empty base MAC (see [`VerificationKey::mac_base`]).
    pub fn mac_base(&self) -> &crate::hmac::Hmac {
        &self.base
    }
}

impl std::fmt::Debug for HmacVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The keyed base MAC's sponge state is key-equivalent material; only
        // the (already redacted) key field is shown.
        f.debug_struct("HmacVerifier").field("key", &self.key).finish()
    }
}

impl Verifier for HmacVerifier {
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let mut mac = self.base.clone();
        mac.update(message);
        if mac.finalize().ct_eq_bytes(signature.as_bytes()) {
            Ok(())
        } else {
            Err(CryptoError::SignatureMismatch)
        }
    }
}

// The sharded `VerifierService` and its worker pool share one verification-key
// handle (and the signer side may live behind an `Arc` in fleet simulations):
// verification is `&self` over plain owned data, so these types must stay
// thread-safe.  Keep that a compile-time guarantee of this crate, not an
// accident of field choice.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HmacVerifier>();
    assert_send_sync::<VerificationKey>();
    assert_send_sync::<Signature>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmac_sign_verify_roundtrip() {
        let key = DeviceKey::from_seed("device-42");
        let vk = key.verification_key();
        let mut signer = HmacSigner::new(key);
        let verifier = HmacVerifier::new(vk);

        let sig = signer.sign(b"A || L || N").unwrap();
        assert!(verifier.verify(b"A || L || N", &sig).is_ok());
        assert!(matches!(
            verifier.verify(b"A || L || N'", &sig),
            Err(CryptoError::SignatureMismatch)
        ));
        assert_eq!(signer.signatures_issued(), 1);
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = DeviceKey::from_seed("device-7");
        let verifier = HmacVerifier::new(key.verification_key());
        let mut signer = HmacSigner::new(key);
        let sig = signer.sign(b"payload").unwrap();
        let mut bytes = sig.as_bytes().to_vec();
        bytes[0] ^= 0x01;
        let forged = Signature::from_bytes(bytes);
        assert!(verifier.verify(b"payload", &forged).is_err());
    }

    #[test]
    fn signature_length_is_digest_length() {
        let mut signer = HmacSigner::new(DeviceKey::from_seed("x"));
        let sig = signer.sign(b"m").unwrap();
        assert_eq!(sig.len(), 32);
        assert!(!sig.is_empty());
    }
}
