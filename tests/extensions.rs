//! Extension features beyond the paper's minimum: the precomputed measurement
//! database, publicly verifiable (Lamport) report signatures, the recursion-depth
//! statistic and the disassembly tooling.

mod common;

use lofat::{EngineConfig, LofatError, MeasurementDatabase, Verifier};
use lofat_cflat::CflatAttestor;
use lofat_crypto::{LamportKeyPair, Nonce, SignatureVerifier, Signer};
use lofat_rv32::{disasm, Rv32Error};
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;

/// The measurement database accepts exactly the honest reports of the inputs it was
/// built for, and the full protocol still provides freshness/authenticity on top.
#[test]
fn measurement_database_round_trip() {
    let workload = catalog::by_name("fig4-loop").unwrap();
    let (_, mut prover, verifier) = common::workload_session(workload.name, "ext-db");

    let inputs: Vec<Vec<u32>> = (1..=6u32).map(|n| vec![n]).collect();
    let db =
        MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone()).unwrap();
    assert_eq!(db.len(), 6);

    for input in &inputs {
        let run = prover.attest(input, Nonce::from_counter(9)).unwrap();
        let reference = db.check(input, &run.report).unwrap();
        assert_eq!(reference.expected_result, workload.expected_result(input));
    }
    // A mismatched input fails the lookup comparison.
    let run = prover.attest(&[6], Nonce::from_counter(10)).unwrap();
    assert!(matches!(db.check(&[2], &run.report), Err(LofatError::Rejected(_))));
}

/// The database detects a loop-counter attack without golden replay at verification
/// time (the replay happened once, offline, when the database was built).
#[test]
fn measurement_database_detects_attacks() {
    let workload = catalog::by_name("syringe-pump").unwrap();
    let (program, mut prover, verifier) = common::workload_session(workload.name, "ext-db-attack");
    let db =
        MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![vec![3u32]]).unwrap();

    let mut fault =
        lofat_workloads::attack::loop_counter_attack(program.symbol("input").unwrap(), 30);
    let run = prover.attest_with_adversary(&[3], Nonce::from_counter(1), &mut fault).unwrap();
    assert!(matches!(db.check(&[3], &run.report), Err(LofatError::Rejected(_))));
}

/// `n` distinct crc32 inputs of 16-64 words (the `fleet-cold` workload's shape),
/// with a repeat of an earlier one after every seventh; the first and last
/// inputs are never repeated.
fn crc32_inputs(n: usize) -> Vec<Vec<u32>> {
    let workload = catalog::by_name("crc32").unwrap();
    let mut generator = InputGenerator::new(0xdb);
    let mut inputs = Vec::new();
    for i in 0..n {
        inputs.push(generator.input_for(&workload, 16 + i % 49));
        if i % 7 == 6 && i + 1 < n {
            inputs.push(inputs[inputs.len() - 4].clone());
        }
    }
    inputs
}

/// Every entry of `db` is what a one-at-a-time golden replay of its input
/// computes.
fn assert_matches_replay(db: &MeasurementDatabase, verifier: &Verifier, inputs: &[Vec<u32>]) {
    for input in inputs {
        let (expected, exit) = verifier.expected_measurement(input).unwrap();
        let reference = db.reference(input).expect("every input has an entry");
        assert_eq!(reference.authenticator, expected.authenticator);
        assert_eq!(reference.metadata, expected.metadata);
        assert_eq!(reference.expected_result, exit.register_a0);
    }
}

/// A build large enough to start helper threads equals one-at-a-time
/// replay, whatever the input order; one below the floor stays on the
/// calling thread and gives the same entries.
#[test]
fn parallel_database_build_equals_one_at_a_time_replay() {
    let (_, _, verifier) = common::workload_session("crc32", "ext-db-parallel");
    let inputs = crc32_inputs(256);
    let distinct: std::collections::BTreeSet<&Vec<u32>> = inputs.iter().collect();
    assert!(distinct.len() < inputs.len(), "the input list repeats inputs");

    let (db, threads) = MeasurementDatabase::build_counting_threads(
        &verifier,
        EngineConfig::default(),
        inputs.clone(),
    )
    .unwrap();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(threads > 1, cpus > 1, "helpers start when there are CPUs to spare");
    assert!(threads <= cpus);
    assert_eq!(db.len(), distinct.len());
    assert_matches_replay(&db, &verifier, &inputs);

    // Reordered lists end on other inputs, so a result lost at the end of a
    // build shows in one of them.
    let bytes = db.to_wire_bytes().unwrap();
    let reversed: Vec<Vec<u32>> = inputs.iter().rev().cloned().collect();
    let mut rotated = inputs.clone();
    rotated.rotate_left(inputs.len() / 3);
    for reordered in [reversed, rotated] {
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), reordered);
        assert_eq!(db.unwrap().to_wire_bytes().unwrap(), bytes);
    }

    let workload = catalog::by_name("crc32").unwrap();
    let mut generator = InputGenerator::new(0xdb);
    let short: Vec<Vec<u32>> = (1..=8).map(|n| generator.input_for(&workload, n)).collect();
    let (db_short, threads) = MeasurementDatabase::build_counting_threads(
        &verifier,
        EngineConfig::default(),
        short.clone(),
    )
    .unwrap();
    assert_eq!(threads, 1, "8 short inputs stay below the floor");
    assert_eq!(db_short.len(), short.len());
    assert_matches_replay(&db_short, &verifier, &short);
}

/// An input over the replay cycle budget fails the build with the typed
/// execution error, whether the calling thread meets it alone (first input)
/// or with helpers running (a later one).
#[test]
fn database_build_reports_an_input_over_the_cycle_budget() {
    let (_, _, verifier) = common::workload_session("crc32", "ext-db-budget");
    let mut inputs: Vec<Vec<u32>> =
        crc32_inputs(256).into_iter().filter(|i| i.len() < 32).collect();
    let long = vec![7u32; 64];
    let cycles = |input: &[u32]| verifier.expected_measurement(input).unwrap().1.cycles;
    let short_max = inputs.iter().map(|input| cycles(input)).max().unwrap();
    let budget = (short_max + cycles(&long)) / 2;
    assert!(short_max < budget && budget < cycles(&long));
    let verifier = verifier.with_max_cycles(budget);

    for at in [0, inputs.len() / 2] {
        inputs.insert(at, long.clone());
        let err = MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone())
            .unwrap_err();
        assert!(
            matches!(err, LofatError::Execution(Rv32Error::CycleLimitExceeded { limit }) if limit == budget),
            "input {at} over the budget: got {err:?}"
        );
        inputs.remove(at);
    }
}

/// The database wire format, pinned: each catalogue workload's default input
/// under the default configuration (`dispatch` holds indirect targets,
/// `matrix-checksum` loops nested three deep), and `diamond-paths` under
/// `max_path_bits(2)`, whose loop overflows the path encoder and records
/// path id 0.  Each reference's metadata is in its packed form, as on the
/// wire; the valid-path table ends each fixture.
#[test]
fn measurement_database_wire_bytes_match_the_golden_fixtures() {
    let mut cases: Vec<(String, &str, EngineConfig)> = catalog::all()
        .iter()
        .map(|workload| (format!("{}.bin", workload.name), workload.name, EngineConfig::default()))
        .collect();
    let narrow = EngineConfig::builder().max_path_bits(2).build().unwrap();
    cases.push(("diamond-paths.max-path-bits-2.bin".into(), "diamond-paths", narrow));
    for (file, name, config) in cases {
        let path = format!("tests/fixtures/measurement_db/{file}");
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let workload = catalog::by_name(name).unwrap();
        let (_, _, verifier) = common::workload_session(name, "ext-db-golden");
        let input = workload.default_input.clone();
        let db = MeasurementDatabase::build(&verifier, config, vec![input.clone()]).unwrap();
        assert_eq!(db.to_wire_bytes().unwrap(), golden, "{path}");
        let decoded = MeasurementDatabase::from_wire_bytes(&golden).unwrap();
        assert_eq!(decoded.to_wire_bytes().unwrap(), golden, "{path} re-encodes");
        assert_eq!(decoded, db, "{path} decodes to the built database");
        assert_eq!(decoded.valid_loop_paths(), verifier.valid_loop_paths(), "{path}");

        let loops = db.reference(&input).unwrap().metadata.decode().loops;
        match file.as_str() {
            "dispatch.bin" => assert!(loops.iter().any(|l| !l.indirect_targets.is_empty())),
            "matrix-checksum.bin" => assert!(loops.iter().any(|l| l.nesting_depth == 3)),
            "diamond-paths.max-path-bits-2.bin" => assert!(loops
                .iter()
                .any(|l| l.encoder_overflowed && l.paths.iter().any(|p| p.path_id == 0))),
            _ => {}
        }
    }
}

/// The attestation report payload can additionally be signed with a hash-based
/// one-time signature for public verifiability.
#[test]
fn lamport_signed_report_is_publicly_verifiable() {
    let workload = catalog::by_name("crc32").unwrap();
    let (_, mut prover, _) = common::workload_session(workload.name, "ext-ots");
    let run = prover.attest(&workload.default_input, Nonce::from_counter(5)).unwrap();

    let mut ots = LamportKeyPair::from_seed(b"ext-ots-key");
    let public = ots.public_key();
    let signature = ots.sign(&run.report.payload()).unwrap();
    assert!(public.verify(&run.report.payload(), &signature).is_ok());
    // Any other payload fails, and the key cannot sign twice.
    assert!(public.verify(b"different payload", &signature).is_err());
    assert!(ots.sign(&run.report.payload()).is_err());
}

/// The engine tracks the recursion depth of the attested execution: recursive
/// Fibonacci reaches a call depth equal to its argument (minus the base cases).
#[test]
fn recursion_depth_is_reported() {
    let workload = catalog::by_name("fibonacci").unwrap();
    let shallow = common::attest_workload(&workload, &[3]).0.stats.max_call_depth;
    let deep = common::attest_workload(&workload, &[9]).0.stats.max_call_depth;
    assert!(deep > shallow);
    assert_eq!(deep, 9, "fib(9) recurses 8 levels below the top-level call");
    // A call-free workload reports zero.
    let flat = catalog::by_name("diamond-paths").unwrap();
    assert_eq!(common::attest_workload(&flat, &[8]).0.stats.max_call_depth, 0);
}

/// The disassembler's control-flow site count agrees with the C-FLAT instrumentation
/// report (both count the sites the respective scheme watches/rewrites).
#[test]
fn disassembler_and_instrumentation_report_agree() {
    for workload in catalog::all() {
        let program = workload.program().unwrap();
        let sites = disasm::control_flow_sites(&program);
        let report = CflatAttestor::new().instrumentation_report(&program);
        assert_eq!(sites as u64, report.rewrite_sites, "workload `{}`", workload.name);
        let text = disasm::listing(&program);
        assert_eq!(
            text.matches('*').count(),
            sites,
            "workload `{}`: every control-flow site is marked",
            workload.name
        );
    }
}
