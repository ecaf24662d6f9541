//! Cryptographic substrate for the LO-FAT control-flow attestation reproduction.
//!
//! The LO-FAT hardware (Dessouky et al., DAC 2017) relies on two cryptographic
//! building blocks that this crate re-implements from scratch:
//!
//! * a **SHA-3-512 hash engine** (the paper uses an opencores Keccak core with a
//!   576-bit rate that absorbs one 64-bit `(Src, Dest)` pair per clock cycle), and
//! * a **hardware-protected signing key** used to produce the attestation report
//!   `R = sign(A ‖ L ‖ N)`.
//!
//! Besides the plain software implementations ([`Sha3_512`], [`Hmac`]), the crate
//! provides [`hash_engine::HashEngine`], a *cycle-level* model of the streaming
//! hardware engine: it absorbs one 64-bit word per cycle, needs nine cycles to fill
//! its 576-bit rate buffer and is then busy for three cycles while the permutation
//! runs — exactly the behaviour §5.3 of the paper describes and the behaviour the
//! LO-FAT hash-engine controller has to buffer around.
//!
//! # Example
//!
//! ```
//! use lofat_crypto::{Sha3_512, Digest};
//!
//! let mut hasher = Sha3_512::new();
//! hasher.update(b"abc");
//! let digest = hasher.finalize();
//! assert_eq!(digest.as_bytes().len(), 64);
//! ```
//!
//! The "signature" used by the simulated prover is an HMAC-SHA3-256 under a 32-byte
//! device key held in a [`keys::KeyRegister`], which the paper's software-only
//! adversary cannot read, so the substitution keeps the paper's security argument.
//! Its 32-byte tag is as strong as the 256-bit key behind it; the register keys the
//! MAC once, when it is provisioned, as the verifier's [`sign::HmacVerifier`] does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash_engine;
pub mod hmac;
pub mod keccak;
pub mod keccak4;
pub mod keys;
pub mod lamport;
mod multilane;
pub mod nonce;
pub mod sha3;
pub mod sign;

pub use error::CryptoError;
pub use hash_engine::{EngineStatus, HashEngine, HashEngineConfig, HashEngineStats};
pub use hmac::Hmac;
pub use keccak4::KeccakState4;
pub use keys::{DeviceKey, KeyRegister, VerificationKey};
pub use lamport::{LamportKeyPair, LamportPublicKey};
/// The SIMD kernel tier the packed 4-way Keccak permutation dispatches to on
/// this host (`"avx512"`, `"avx2"` or `"scalar"`) — recorded in bench
/// documents so throughput numbers can be compared like for like.
pub use lofat_simd::active_tier as simd_tier;
pub use nonce::Nonce;
pub use sha3::{Digest, Sha3_256, Sha3_512};
pub use sign::{HmacSigner, Signature, Signer, Verifier as SignatureVerifier};
