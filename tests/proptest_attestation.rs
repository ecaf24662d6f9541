//! Property-based integration tests over the attestation pipeline.
//!
//! These properties hold for *any* input the verifier might choose:
//!
//! * honest attestation round trips are always accepted and the replay agrees with
//!   the device's result;
//! * the attested cycle count always equals the un-attested one (zero overhead);
//! * measurements are deterministic functions of (program, input, configuration);
//! * every reported loop-path ID of a call-free innermost loop lies in the verifier's
//!   statically enumerated valid set.

mod common;

use lofat::EngineConfig;
use lofat_workloads::catalog;
use proptest::prelude::*;

fn small_input() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..500, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Bubble sort on random arrays: attested result matches the reference model and
    /// the verifier accepts the report.
    #[test]
    fn random_sorting_inputs_attest_and_verify(input in small_input()) {
        let workload = catalog::by_name("bubble-sort").unwrap();
        let outcome = common::attest_and_verify(workload.name, "proptest", input.clone());
        prop_assert_eq!(outcome.prover_run.exit.register_a0, workload.expected_result(&input));
    }

    /// Zero processor overhead holds for arbitrary fig4-loop iteration counts.
    #[test]
    fn zero_overhead_for_any_iteration_count(n in 0u32..200) {
        let workload = catalog::by_name("fig4-loop").unwrap();
        let program = workload.program().unwrap();
        let plain = common::run_plain(&program, &[n]);
        let (measurement, attested) = common::run_attested(&program, &[n], EngineConfig::default());
        prop_assert_eq!(plain.cycles, attested.cycles);
        prop_assert_eq!(measurement.stats.processor_overhead_cycles, 0);
    }

    /// Measurements are deterministic: same program + input + config → identical
    /// authenticator and metadata.
    #[test]
    fn measurements_are_deterministic(n in 1u32..60) {
        let workload = catalog::by_name("diamond-paths").unwrap();
        let program = workload.program().unwrap();
        let (a, _) = common::run_attested(&program, &[n], EngineConfig::default());
        let (b, _) = common::run_attested(&program, &[n], EngineConfig::default());
        prop_assert_eq!(a.authenticator, b.authenticator);
        prop_assert_eq!(a.metadata, b.metadata);
    }

    /// Every loop path the engine reports for the fig4 loop is one of the two valid
    /// CFG encodings, for any iteration count.
    #[test]
    fn reported_paths_are_always_cfg_valid(n in 0u32..100) {
        let workload = catalog::by_name("fig4-loop").unwrap();
        let program = workload.program().unwrap();
        let (measurement, _) = common::run_attested(&program, &[n], EngineConfig::default());
        for record in &measurement.metadata.decode().loops {
            for path in &record.paths {
                prop_assert!(path.path_id == 0b1_011 || path.path_id == 0b1_0011);
            }
        }
    }

    /// The loop-compression invariant: hashed pairs + compressed pairs covers every
    /// control-flow event exactly once (nothing lost, nothing double counted).
    #[test]
    fn every_branch_event_is_accounted_for(units in 1u32..60) {
        let workload = catalog::by_name("syringe-pump").unwrap();
        let program = workload.program().unwrap();
        let (measurement, _) = common::run_attested(&program, &[units], EngineConfig::default());
        let stats = measurement.stats;
        prop_assert_eq!(stats.pairs_hashed + stats.pairs_compressed, stats.branch_events);
    }
}
