//! E7 — size of the auxiliary metadata `L` (§6.1).
//!
//! "The length of the auxiliary metadata (L) that must be sent to V depends on the
//! number of loops executed, the number of different paths per loop, and the number
//! of indirect branch targets encountered in the attested code."  Crucially it does
//! *not* depend on the number of iterations — that is the whole point of the loop
//! compression.

mod common;

use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;

/// More loop executions → more loop records → larger metadata.
#[test]
fn metadata_grows_with_number_of_loop_executions() {
    let workload = catalog::by_name("nested-loops").unwrap();
    let program = workload.program().unwrap();
    // n1 outer iterations re-enter the inner loops n1 (and n1·n2) times.
    let small = common::run_attested(&program, &[1, 2, 2], lofat::EngineConfig::default()).0;
    let large = common::run_attested(&program, &[4, 2, 2], lofat::EngineConfig::default()).0;
    assert!(large.metadata.loop_count() > small.metadata.loop_count());
    assert!(large.metadata.size_bytes() > small.metadata.size_bytes());
}

/// More distinct paths per loop → larger metadata (diamond workload touches up to 8
/// paths as the iteration counter grows).
#[test]
fn metadata_grows_with_distinct_paths() {
    let workload = catalog::by_name("diamond-paths").unwrap();
    let program = workload.program().unwrap();
    let few = common::run_attested(&program, &[2], lofat::EngineConfig::default()).0;
    let many = common::run_attested(&program, &[16], lofat::EngineConfig::default()).0;
    assert!(
        many.metadata.decode().total_distinct_paths()
            > few.metadata.decode().total_distinct_paths()
    );
    assert!(many.metadata.size_bytes() > few.metadata.size_bytes());
    assert!(many.metadata.decode().total_distinct_paths() <= 8, "the body has at most 8 paths");
}

/// More indirect targets → larger metadata.
#[test]
fn metadata_grows_with_indirect_targets() {
    let workload = catalog::by_name("dispatch").unwrap();
    let program = workload.program().unwrap();
    let one_handler =
        common::run_attested(&program, &[0, 0, 0, 0], lofat::EngineConfig::default()).0;
    let four_handlers =
        common::run_attested(&program, &[0, 1, 2, 3, 0, 1, 2, 3], lofat::EngineConfig::default()).0;
    let targets = |m: &lofat::Measurement| {
        m.metadata.decode().loops.iter().map(|l| l.indirect_targets.len()).sum::<usize>()
    };
    assert!(targets(&four_handlers) > targets(&one_handler));
    assert!(four_handlers.metadata.size_bytes() > one_handler.metadata.size_bytes());
}

/// Iteration count alone does **not** change the metadata size: 10 and 10 000
/// iterations of the same single-path loop produce byte-identical layouts except for
/// the counter values.
#[test]
fn metadata_size_is_independent_of_iteration_count() {
    let workload = catalog::by_name("syringe-pump").unwrap();
    let program = workload.program().unwrap();
    let few = common::run_attested(&program, &[5], lofat::EngineConfig::default()).0;
    let many = common::run_attested(&program, &[200], lofat::EngineConfig::default()).0;
    // Same number of loop records is not expected (each outer iteration re-enters the
    // pulse loop), so compare the *per-record* path counts of the outer loop instead:
    // the outer loop record has exactly one path in both runs.
    let outer_paths = |m: &lofat::Measurement| {
        m.metadata.decode().loops.iter().map(|l| l.distinct_paths()).max().unwrap_or(0)
    };
    assert_eq!(outer_paths(&few), outer_paths(&many));
    assert!(many.metadata.decode().total_iterations() > few.metadata.decode().total_iterations());
}

/// The report's wire size is dominated by the metadata for loop-heavy runs and the
/// serialisation round-trips deterministically.
#[test]
fn metadata_serialisation_is_deterministic() {
    for workload in catalog::all() {
        let (a, _) = common::attest_workload(&workload, &workload.default_input);
        let (b, _) = common::attest_workload(&workload, &workload.default_input);
        assert_eq!(a.metadata.to_bytes(), b.metadata.to_bytes(), "workload `{}`", workload.name);
        assert_eq!(a.metadata.size_bytes(), b.metadata.size_bytes());
    }
}

/// A loop-free (straight-line) execution carries (nearly) empty metadata.
#[test]
fn loop_free_execution_has_minimal_metadata() {
    let workload = catalog::by_name("return-victim").unwrap();
    let (measurement, _) = common::attest_workload(&workload, &[7]);
    assert_eq!(measurement.metadata.loop_count(), 0);
    assert_eq!(measurement.metadata.size_bytes(), 4, "just the empty loop-count header");
}

/// What travels is the packed `L`, and its runs grow with the number of
/// *distinct* consecutive loop records, not with the loop executions: on
/// syringe-pump every unit re-runs the same pulse loop, so `L` stays at three
/// runs and at most 26 bytes while the paper's fixed-width layout grows
/// with every unit.
#[test]
fn packed_metadata_stays_flat_while_loop_executions_grow() {
    let workload = catalog::by_name("syringe-pump").unwrap();
    let program = workload.program().unwrap();
    let mut fixed_width = Vec::new();
    for units in [100, 1_000, 2_000] {
        let metadata =
            common::run_attested(&program, &[units], lofat::EngineConfig::default()).0.metadata;
        assert_eq!(metadata.loop_count(), units as usize + 1, "{units} units");
        assert_eq!(metadata.run_count(), 3, "{units} units");
        assert!(metadata.packed_len() <= 26, "{units} units: {} B", metadata.packed_len());
        fixed_width.push(metadata.size_bytes());
    }
    assert_eq!(fixed_width, [4_549, 45_049, 90_049]);
}

/// On crc32 buffers of 16-64 words, most loop records differ from the one
/// before it, so runs save little; but most records are of the loop and at
/// the depth before them, about half list the same paths in the same
/// order, and none has an indirect target.  Packed `L` writes neither that
/// loop's entry and exit, nor that depth, nor those path ids, nor an empty
/// target list, nor a path's index of first occurrence, and takes at most 5
/// bytes per loop execution (4.66 at 16-64 words; 6.84 in wire version 4).
#[test]
fn crc32_packed_metadata_takes_at_most_5_bytes_per_loop_execution() {
    let workload = catalog::by_name("crc32").unwrap();
    let program = workload.program().unwrap();
    let mut generator = InputGenerator::new(0xe7);
    let (mut packed, mut loops) = (0, 0);
    for words in 16..=64 {
        let input = generator.input_for(&workload, words);
        let metadata =
            common::run_attested(&program, &input, lofat::EngineConfig::default()).0.metadata;
        packed += metadata.packed_len();
        loops += metadata.loop_count();
    }
    let per_loop = packed as f64 / loops as f64;
    assert!(per_loop <= 5.0, "{per_loop:.2} B of packed `L` per loop execution");
}
