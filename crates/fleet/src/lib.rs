//! # lofat-fleet — declarative scenario fleets for the attestation service
//!
//! The point of a sans-I/O verifier is that every transport must be a pure
//! carrier: the same evidence bytes produce the same verdict whether they
//! arrive through the in-process worker pool or a TCP socket, under load,
//! under attack, and under transport faults.  This crate turns that claim
//! into a *sweepable artifact*: a small text format describes a fleet —
//! which workloads, which input distribution, which adversary mix, how many
//! clients, what arrival pattern, which transport faults — and the harness
//! expands the cross-product deterministically, drives every scenario over
//! every transport (the pool, the event-loop server, a fan-out front over
//! partitioned servers), and emits manifests CI can diff byte-for-byte.
//!
//! The pipeline, one module per stage:
//!
//! | Module | Stage |
//! |---|---|
//! | [`spec`] | parse the declarative format (typed, line-numbered errors) |
//! | [`enumerate`] | expand the cross-product into deterministic [`enumerate::Job`]s |
//! | [`driver`] | pre-generate each section's traffic (the shared session-driving core) |
//! | [`exec`] | fan jobs over the pool, a live server and/or a front, with fault injection |
//! | [`manifest`] | render JSON/CSV artifacts (golden projection for CI diffing) |
//!
//! ```
//! use lofat_fleet::{enumerate, spec::FleetSpec};
//!
//! let spec = FleetSpec::parse(
//!     "fleet demo\nscale = 4\n[workload fig4-loop]\nadversaries = honest, forge\nclients = 1, 2\n",
//! )?;
//! let jobs = enumerate::enumerate(&spec)?;
//! assert_eq!(jobs.len(), 2, "one job per client count");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Executing a fleet (see [`exec::run`]) is as deliberate as the parsing is
//! strict: sessions are opened in slot order so the deterministic nonce
//! stream makes pre-generated evidence answer *any* fresh service instance,
//! which is what allows the pool and socket runs of the same job to be
//! compared verdict-for-verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod enumerate;
pub mod exec;
pub mod manifest;
pub mod spec;

pub use driver::{behaviour_for, generate_traffic, DriveError, SlotBehaviour, TrafficSlot};
pub use enumerate::{enumerate as enumerate_jobs, job_count, listing, EnumerateError, Job};
pub use exec::{percentile, run, ExecError, ExecOptions, FleetReport, ScenarioOutcome, Transport};
pub use manifest::{manifest_csv, manifest_golden_json, manifest_json, MANIFEST_SCHEMA_VERSION};
pub use spec::{Adversary, Arrival, FaultClass, FleetSpec, InputSpec, SpecError, WorkloadPlan};
