//! Umbrella crate for the LO-FAT reproduction workspace.
//!
//! This crate exists so that the workspace-level `examples/` and `tests/`
//! directories have a package to hang off; it simply re-exports the member crates
//! under short names.  Library users should depend on the individual crates
//! (`lofat`, `lofat-rv32`, `lofat-cfg`, `lofat-crypto`, `lofat-cflat`,
//! `lofat-workloads`) directly.

#![forbid(unsafe_code)]

pub use lofat;
pub use lofat_cfg;
pub use lofat_cflat;
pub use lofat_crypto;
pub use lofat_fleet;
pub use lofat_net;
pub use lofat_oracle;
pub use lofat_rv32;
pub use lofat_workloads;

// The network transport is the newest layer; surface its entry points at the
// umbrella root so examples and downstreams can reach them without spelling
// the member crate.
pub use lofat_net::{
    raise_nofile_limit, ClientConfig, EventLoopServer, FanOutFront, NetAttestation, NetError,
    NetLimits, ProverClient, RawFrameIo, ServerConfig,
};
