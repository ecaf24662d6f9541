//! # `lofat-net` — the LO-FAT attestation protocol over real sockets.
//!
//! Everything below `lofat-net` is sans-I/O: [`lofat::wire`] encodes
//! envelopes, [`lofat::session`] runs the per-round-trip state machines, and
//! [`lofat::service::VerifierService`] (with its
//! [`lofat::pool::ParallelVerifier`] worker pool) judges evidence for
//! thousands of interleaved sessions.  This crate is the first process-visible
//! I/O boundary: it frames those envelope bytes over TCP and nothing else —
//! no verdict, authenticator byte or statistic may depend on whether the
//! round trip crossed a socket (`tests/e14_network.rs` proves this
//! differentially against the in-process service).
//!
//! * [`frame`] — length-prefixed framing with partial-read/short-write
//!   handling and a hostile-length bound;
//! * [`Connection`] — the sans-I/O per-connection state machine (bytes in →
//!   frames, frames out → bytes, deadlines, session multiplexing, typed
//!   [`CloseReason`]s) the server drives;
//! * [`EventLoopServer`] — the verifier server `lofat serve` runs: every
//!   connection multiplexed onto one readiness loop thread (up to `max_connections`;
//!   e14 holds 1 032), bounded accept, deadlines, verification on the
//!   `ParallelVerifier` pool (the worker that finishes a verdict hands it
//!   straight back to the loop, so the server runs no other thread),
//!   graceful shutdown that drains in-flight verdicts;
//! * [`NetLimits`] — the deadline/size knobs shared by [`ServerConfig`] and
//!   [`ClientConfig`];
//! * [`ProverClient`] — drives a `ProverSession` bytes-in/bytes-out against a
//!   remote verifier; [`RawFrameIo`] (via [`ProverClient::raw`]) is the
//!   escape hatch for arbitrary frames — fuzzing, pipelining, interleaved
//!   sessions;
//! * [`FanOutFront`] — a stateless fan-out front multiplexing clients over
//!   `N` partitioned backend verifiers (the multi-process face of
//!   [`lofat::service::ServiceConfig::partition_count`]): the same loop in a
//!   second role, relaying frames to backend connections it also owns;
//! * [`NetError`] — typed failures mapping wire rejections onto the stable
//!   [`lofat::wire::code`] reason codes.
//!
//! One session over the wire (framing in [`frame`], messages in
//! [`lofat::wire`]):
//!
//! ```text
//! ProverClient                                EventLoopServer
//!      │  frame[ SessionRequest(id_S, i) ]  ──────▶  open_session
//!      │  ◀──────  frame[ Challenge(id_S, i, N) ]    (or refusing Verdict)
//!   attest
//!      │  frame[ Evidence(report) ]  ──────▶  ParallelVerifier → handle_bytes
//!      │  ◀──────  frame[ Verdict(code, detail) ]
//! ```
//!
//! Everything is std; the crate adds no dependencies beyond the workspace's
//! own.  The server waits for readiness through epoll on Linux and `poll(2)`
//! on other Unix hosts; the crate does not build elsewhere.  The only unsafe
//! code is those syscall shims and the `rlimit` one in [`event_loop`], each
//! confined to a tiny module.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("lofat-net needs epoll (Linux) or poll(2) (other Unix hosts)");

pub mod client;
pub mod conn;
pub mod error;
pub mod event_loop;
pub mod frame;
pub mod front;
pub mod limits;
mod poller;
pub mod server;

pub use client::{ClientConfig, NetAttestation, ProverClient, RawFrameIo};
pub use conn::{Admission, CloseReason, Connection};
pub use error::NetError;
pub use event_loop::{raise_nofile_limit, EventLoopServer};
pub use frame::{DEFAULT_MAX_FRAME_BYTES, FRAME_HEADER_BYTES};
pub use front::FanOutFront;
pub use limits::{NetLimits, DEFAULT_MAX_SESSIONS_PER_CONNECTION};
pub use server::ServerConfig;
