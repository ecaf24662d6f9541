//! # LO-FAT: Low-Overhead Control Flow ATtestation in Hardware — a Rust reproduction
//!
//! This crate is a cycle-level, functional reproduction of the LO-FAT architecture
//! (Dessouky et al., DAC 2017): a hardware engine that observes a RISC-V core's
//! trace port, folds the executed control-flow path into a SHA-3 authenticator `A`,
//! compresses loops into per-path iteration counters plus auxiliary metadata `L`,
//! and signs `(A, L, nonce)` so a remote verifier holding the program's CFG can
//! attest the exact run-time control flow — with **zero overhead** for the attested
//! software and **no binary instrumentation**.
//!
//! The module structure mirrors Fig. 3 of the paper:
//!
//! | Module | Hardware unit |
//! |---|---|
//! | [`branch_filter`] | ① branch/jump/return filtering + loop-entry heuristic |
//! | [`branches_mem`] | ② branches memory (`(Src, Dest)` pairs) |
//! | [`hash_ctrl`] | ③⑦⑪ hash-engine controller + input buffering |
//! | [`loop_monitor`] | ④⑤ loop status tracking and nesting |
//! | [`path_encoder`] | ⑤ taken/not-taken path-ID encoding |
//! | [`loop_counter_mem`] | ⑥ path-indexed iteration counters |
//! | [`cam`] | indirect-branch target CAM (§5.2) |
//! | [`metadata`] | ⑧⑨⑩ metadata generator and storage (`L`) |
//! | [`engine`] | the composed engine attached to the trace port |
//! | [`area`] | BRAM / logic area model (§6.2) |
//! | [`prover`], [`verifier`], [`protocol`], [`report`] | the Fig. 2 attestation protocol |
//! | [`judge`] | the one decision procedure for evidence: five checks and the spend rule |
//!
//! The protocol itself is layered sans-I/O (nothing below performs I/O; bytes
//! in, bytes out):
//!
//! | Module | Layer |
//! |---|---|
//! | [`wire`] | versioned envelopes + the deterministic byte codec |
//! | [`session`] | per-round-trip state machines ([`session::VerifierSession`], [`session::ProverSession`]) |
//! | [`service`] | [`service::VerifierService`]: thousands of interleaved sessions across lock-sharded state, replay detection, expiry, atomic stats |
//! | [`pool`] | [`pool::ParallelVerifier`]: a bounded-queue worker pool draining `handle_bytes` work off the ingest thread |
//! | [`protocol`] | the classic one-call adapter [`protocol::run_attestation`] over the layers above |
//!
//! The first real I/O boundary lives outside this crate: the `lofat-net`
//! workspace member frames these envelopes over TCP (`EventLoopServer` /
//! `ProverClient`) without adding any protocol semantics.
//!
//! # Quickstart
//!
//! ```
//! use lofat::protocol::run_attestation;
//! use lofat::{Prover, Verifier};
//! use lofat_crypto::DeviceKey;
//! use lofat_rv32::asm::assemble;
//!
//! // 1. Both parties know the program binary.
//! let program = assemble(
//!     ".text\nmain:\n    li t0, 5\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
//! )?;
//!
//! // 2. The prover holds the device key; the verifier holds the verification key.
//! let key = DeviceKey::from_seed("demo-device");
//! let mut prover = Prover::new(program.clone(), "demo", key.clone());
//! let mut verifier = Verifier::new(program, "demo", key.verification_key())?;
//!
//! // 3. One challenge-response round trip: execute, measure, sign, verify.
//! let outcome = run_attestation(&mut verifier, &mut prover, vec![])?;
//! assert_eq!(outcome.prover_run.stats.processor_overhead_cycles, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod branch_filter;
pub mod branches_mem;
pub mod cam;
pub mod config;
pub mod engine;
pub mod error;
pub mod hash_ctrl;
pub mod json;
pub mod judge;
pub mod loop_counter_mem;
pub mod loop_monitor;
pub mod measurement_db;
pub mod metadata;
pub mod path_encoder;
pub mod pool;
pub mod protocol;
pub mod prover;
pub mod report;
pub mod service;
pub mod session;
pub mod verifier;
pub mod wire;

pub use area::{AreaEstimate, AreaModel};
pub use branches_mem::BranchPair;
pub use config::{EngineConfig, EngineConfigBuilder, BRANCH_EVENT_LATENCY, LOOP_EXIT_LATENCY};
pub use engine::{attest_program, EngineStats, LofatEngine, Measurement};
pub use error::LofatError;
pub use judge::Judgement;
pub use measurement_db::{MeasurementDatabase, PackedReference, ReferenceMeasurement};
pub use metadata::{LoopRecord, Metadata, PackedMetadata, PathRecord};
pub use pool::{ParallelVerifier, PoolConfig, VerdictReply};
pub use prover::{Adversary, NoAdversary, Prover, ProverRun};
pub use report::AttestationReport;
pub use service::{ServiceConfig, ServiceError, ServiceStats, VerifierService};
pub use session::{
    ProverSession, SessionDecision, SessionError, SessionOutcome, SessionState, VerifierSession,
};
pub use verifier::{Challenge, RejectionReason, Verdict, Verifier};
pub use wire::{
    ChallengeMsg, Envelope, EvidenceMsg, Message, SessionId, SessionRequestMsg, SnapshotError,
    SnapshotMsg, VerdictMsg, WireError, SNAPSHOT_VERSION, WIRE_VERSION,
};
