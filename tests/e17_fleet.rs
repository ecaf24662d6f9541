//! E17 — declarative scenario fleets over every transport.
//!
//! `lofat-fleet` expands a text spec into a deterministic cross-product of
//! scenarios and drives each one through the in-process worker pool, a live
//! loopback `EventLoopServer` (the server `lofat serve` runs) *and* a
//! fan-out front over two partitioned backend servers.  The suite pins the
//! subsystem's three contracts:
//!
//! * **Transport equivalence** — every job in `examples/fleets/smoke.fleet`
//!   produces the identical verdict breakdown (count per wire code) on the
//!   pool, the event loop and the partitioned front (whose books are the sum
//!   of its two backends), and `opened`/`accepted`/`sessions_rejected`/`live`
//!   agree across the three runs.
//! * **Conservation under faults** — dropped connections, slow-loris partial
//!   frames, duplicate frames and oversized length prefixes are all exercised
//!   by the smoke fleet; no fault class panics the server or breaks either
//!   conservation law (`opened == accepted + sessions_rejected + expired +
//!   live`, `cache_hits + cache_misses == accepted + sessions_rejected`).
//! * **Deterministic enumeration** — expanding the same spec twice yields a
//!   byte-identical job listing, and the job count matches the declared
//!   cross-product.
//!
//! `E17_SCALE` overrides every section's per-scenario session count (CI runs
//! a debug smoke pass at spec scale and a release pass; `E17_FULL=1`
//! additionally drives `examples/fleets/full.fleet`, the release-only
//! full-matrix sweep).

use lofat_fleet::exec::{run, ExecOptions, Transport};
use lofat_fleet::spec::{FaultClass, FleetSpec, SpecError};
use lofat_fleet::{enumerate_jobs, job_count, listing, FleetReport};
use std::collections::BTreeMap;

fn scale_override() -> Option<usize> {
    std::env::var("E17_SCALE").ok().and_then(|v| v.parse().ok())
}

fn load_spec(path: &str) -> FleetSpec {
    let text = std::fs::read_to_string(path).expect("fleet spec is checked in");
    FleetSpec::parse(&text).expect("checked-in spec parses")
}

/// Runs a fleet on every transport and checks the cross-transport contract:
/// outcomes arrive as (pool, epoll, front) triples per job, each triple's
/// verdict map and session books agree, and every outcome satisfies both
/// conservation laws — for the front, on the *sum* of its two partitioned
/// backends' books, which is what proves the multi-process deployment is
/// stats-conserving.
fn run_and_check_all_transports(spec: &FleetSpec) -> FleetReport {
    let options =
        ExecOptions { pool: true, epoll: true, front: true, scale_override: scale_override() };
    let report = run(spec, options).expect("fleet executes");
    let jobs = enumerate_jobs(spec).expect("spec enumerates");
    assert_eq!(
        report.outcomes.len(),
        jobs.len() * 3,
        "one pool, one epoll and one front outcome per job"
    );
    for group in report.outcomes.chunks(3) {
        let pool = &group[0];
        assert_eq!(pool.transport, Transport::Pool);
        assert_eq!(group[1].transport, Transport::Epoll);
        assert_eq!(group[2].transport, Transport::Front);
        let label = pool.job.label();
        for other in &group[1..] {
            let name = other.transport.name();
            assert_eq!(pool.job.index, other.job.index, "{label}: group covers the same job");
            assert_eq!(
                pool.verdicts, other.verdicts,
                "{label} vs {name}: verdict breakdown differs between transports"
            );
            assert_eq!(
                pool.stats.sessions_opened, other.stats.sessions_opened,
                "{label} vs {name}: opened"
            );
            assert_eq!(pool.stats.accepted, other.stats.accepted, "{label} vs {name}: accepted");
            assert_eq!(
                pool.stats.sessions_rejected, other.stats.sessions_rejected,
                "{label} vs {name}: sessions_rejected"
            );
            assert_eq!(pool.live, other.live, "{label} vs {name}: live sessions");
        }
        for outcome in group {
            assert!(
                outcome.conserved && outcome.stats.is_conserved(outcome.live),
                "{label} ({}): conservation violated: {:?} live={}",
                outcome.transport.name(),
                outcome.stats,
                outcome.live
            );
        }
    }
    report
}

#[test]
fn smoke_fleet_agrees_across_transports_and_conserves() {
    let spec = load_spec("examples/fleets/smoke.fleet");
    let report = run_and_check_all_transports(&spec);

    // Every fault class the spec declares must actually have run, and every
    // scenario must have produced verdicts (faulted slots are dropped, never
    // the whole scenario).
    let mut faults_seen: BTreeMap<&'static str, u64> = BTreeMap::new();
    for outcome in &report.outcomes {
        *faults_seen.entry(outcome.job.fault.name()).or_default() += 1;
        assert!(outcome.verdict_total > 0, "{}: no verdicts came back", outcome.job.label());
    }
    for fault in [
        FaultClass::None,
        FaultClass::DropConnection,
        FaultClass::SlowLoris,
        FaultClass::DuplicateFrame,
        FaultClass::OversizedPrefix,
    ] {
        assert!(
            faults_seen.contains_key(fault.name()),
            "smoke fleet never exercised fault class {}",
            fault.name()
        );
    }
}

#[test]
fn smoke_fleet_oversized_prefix_jobs_surface_malformed() {
    let spec = load_spec("examples/fleets/smoke.fleet");
    let report = run_and_check_all_transports(&spec);
    let mut saw_oversized = false;
    for outcome in &report.outcomes {
        if outcome.job.fault != FaultClass::OversizedPrefix {
            continue;
        }
        saw_oversized = true;
        let malformed = outcome.verdicts.get(&lofat::wire::code::MALFORMED).copied().unwrap_or(0);
        assert!(
            malformed > 0,
            "{} ({}): oversized-prefix scenario produced no MALFORMED verdicts",
            outcome.job.label(),
            outcome.transport.name()
        );
    }
    assert!(saw_oversized, "smoke fleet declares oversized-prefix jobs");
}

#[test]
fn enumeration_is_deterministic_and_counts_the_cross_product() {
    for path in ["examples/fleets/smoke.fleet", "examples/fleets/full.fleet"] {
        let spec = load_spec(path);
        let jobs_a = enumerate_jobs(&spec).expect("enumerates");
        let jobs_b = enumerate_jobs(&spec).expect("enumerates again");
        assert_eq!(
            listing(&jobs_a),
            listing(&jobs_b),
            "{path}: enumeration listing is not byte-deterministic"
        );
        assert_eq!(jobs_a.len(), job_count(&spec), "{path}: job count != declared cross-product");
        for (i, job) in jobs_a.iter().enumerate() {
            assert_eq!(job.index, i, "{path}: job indices are dense in enumeration order");
        }
    }
}

#[test]
fn spec_round_trips_through_its_canonical_form() {
    for path in ["examples/fleets/smoke.fleet", "examples/fleets/full.fleet"] {
        let spec = load_spec(path);
        let canonical = spec.to_text();
        let reparsed = FleetSpec::parse(&canonical).expect("canonical form parses");
        assert_eq!(spec, reparsed, "{path}: parse(to_text(spec)) != spec");
        assert_eq!(canonical, reparsed.to_text(), "{path}: to_text is not a fixed point");
    }
}

#[test]
fn hostile_specs_are_rejected_with_typed_errors() {
    type ErrCheck = fn(&SpecError) -> bool;
    let cases: [(&str, ErrCheck); 6] = [
        ("", |e| matches!(e, SpecError::MissingHeader)),
        ("fleet x\n", |e| matches!(e, SpecError::NoSections)),
        ("fleet x\nscale = 0\n[workload gcd]\n", |e| matches!(e, SpecError::ZeroValue { .. })),
        ("fleet x\n[workload gcd]\nclients = 1\nclients = 2\n", |e| {
            matches!(e, SpecError::DuplicateKey { .. })
        }),
        ("fleet x\n[workload gcd]\nadversaries = honest, honest\n", |e| {
            matches!(e, SpecError::DuplicateEntry { .. })
        }),
        ("fleet x\n[workload gcd]\nfaults = melt-the-nic\n", |e| {
            matches!(e, SpecError::UnknownName { .. })
        }),
    ];
    for (text, check) in cases {
        let err = FleetSpec::parse(text).expect_err("hostile spec must not parse");
        assert!(check(&err), "unexpected error for {text:?}: {err}");
    }
}

#[test]
fn full_fleet_runs_at_release_scale_when_requested() {
    if std::env::var("E17_FULL").map(|v| v == "1").unwrap_or(false) {
        let spec = load_spec("examples/fleets/full.fleet");
        run_and_check_all_transports(&spec);
    } else {
        eprintln!("e17: skipping full-fleet sweep (set E17_FULL=1 to run it)");
    }
}
