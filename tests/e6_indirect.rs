//! E6 — indirect branches in loops (§5.2).
//!
//! Indirect-branch targets inside loops are re-encoded into n-bit codes by a CAM;
//! up to 2ⁿ − 1 distinct targets are supported per loop, and when a target exceeds
//! the configured limit the engine reports the all-zero code so the verifier learns
//! about the overflow.

mod common;

use lofat::EngineConfig;
use lofat_workloads::catalog;

/// The dispatch interpreter exercises indirect calls inside the main loop; all
/// handler addresses it reaches end up in the metadata with distinct non-zero codes.
#[test]
fn indirect_targets_are_recorded_with_cam_codes() {
    let workload = catalog::by_name("dispatch").unwrap();
    let input = vec![0u32, 1, 2, 3, 0, 1];
    let (measurement, _) = common::attest_workload(&workload, &input);

    let metadata = measurement.metadata.decode();
    let with_indirect: Vec<_> =
        metadata.loops.iter().filter(|l| !l.indirect_targets.is_empty()).collect();
    assert!(!with_indirect.is_empty(), "the dispatch loop must record indirect targets");

    let program = workload.program().unwrap();
    let handlers: Vec<u32> = ["op_add", "op_sub", "op_double", "op_clear"]
        .iter()
        .map(|name| program.symbol(name).unwrap())
        .collect();
    for record in &with_indirect {
        let mut codes = Vec::new();
        for target in &record.indirect_targets {
            assert!(
                handlers.contains(&target.target),
                "recorded target {:#x} must be one of the handlers",
                target.target
            );
            assert_ne!(target.code, 0, "within capacity, codes are non-zero");
            codes.push(target.code);
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), record.indirect_targets.len(), "codes are unique per loop");
    }
}

/// With the default n = 4 the CAM never overflows for four handlers; with n = 2
/// (capacity 3) a fourth distinct handler forces the all-zero overflow code.
#[test]
fn cam_overflow_reports_all_zero_code() {
    let workload = catalog::by_name("dispatch").unwrap();
    let program = workload.program().unwrap();
    let input = vec![0u32, 1, 2, 3, 0, 1, 2, 3];

    let default_cfg = EngineConfig::default();
    let (default_run, _) = common::run_attested(&program, &input, default_cfg);
    assert_eq!(default_run.stats.cam_overflows, 0, "n = 4 tracks up to 15 targets");

    let narrow_cfg = EngineConfig::builder().indirect_target_bits(2).build().unwrap();
    let (narrow_run, _) = common::run_attested(&program, &input, narrow_cfg);
    assert!(narrow_run.stats.cam_overflows > 0, "n = 2 cannot hold 4 distinct handlers");
}

/// Capacity formula: 2ⁿ − 1 encodable targets.
#[test]
fn capacity_is_two_to_the_n_minus_one() {
    for bits in 1..=8u32 {
        let config = EngineConfig::builder().indirect_target_bits(bits).build().unwrap();
        assert_eq!(config.max_indirect_targets(), (1 << bits) - 1);
    }
}

/// An honest prover/verifier pair agrees end-to-end on the dispatch workload even
/// though its loop contains indirect calls (the verifier replays with the same
/// configuration).
#[test]
fn indirect_heavy_workload_attests_end_to_end() {
    let workload = catalog::by_name("dispatch").unwrap();
    let input = vec![3u32, 2, 1, 0, 3, 2, 1, 0, 2];
    let outcome = common::attest_and_verify(workload.name, "e6-device", input.clone());
    assert_eq!(outcome.prover_run.exit.register_a0, workload.expected_result(&input));
}

/// Shrinking n below what the loop needs still verifies (prover and verifier use the
/// same configuration and the overflow is deterministic), but the metadata loses
/// granularity — the documented trade-off.
#[test]
fn overflow_is_deterministic_and_still_verifiable() {
    let workload = catalog::by_name("dispatch").unwrap();
    let narrow = EngineConfig::builder().indirect_target_bits(2).build().unwrap();
    let (_, prover, verifier) = common::workload_session(workload.name, "e6-narrow");
    let mut prover = prover.with_config(narrow);
    let mut verifier = verifier.with_config(narrow);
    let input = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
    let outcome =
        lofat::protocol::run_attestation(&mut verifier, &mut prover, input.clone()).unwrap();
    assert_eq!(outcome.prover_run.exit.register_a0, workload.expected_result(&input));
}
