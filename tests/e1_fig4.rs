//! E1 — Fig. 4 reproduction: loop path encoding.
//!
//! The paper's example loop (`while (cond1) { if (cond2) bb4 else bb5; bb6 }`) has
//! exactly two valid paths, encoded `011` and `0011`; "other path encodings are
//! considered invalid and detected by V".

mod common;

use lofat::{AttestationReport, EngineConfig, LofatError, RejectionReason};
use lofat_cfg::paths::enumerate_loop_paths;
use lofat_cfg::Cfg;
use lofat_crypto::{DeviceKey, Signer};
use lofat_workloads::catalog;

fn fig4_program() -> lofat_rv32::Program {
    catalog::by_name("fig4-loop").unwrap().program().unwrap()
}

fn attest_with_input(input: u32) -> lofat::Measurement {
    common::run_attested(&fig4_program(), &[input], EngineConfig::default()).0
}

/// The static enumeration of the Fig. 4 loop yields exactly the paper's encodings.
#[test]
fn static_enumeration_matches_paper_encodings() {
    let program = fig4_program();
    let cfg = Cfg::from_program(&program).unwrap();
    let loops = cfg.natural_loops();
    assert_eq!(loops.len(), 1);
    let enumeration = enumerate_loop_paths(&cfg, &loops.loops()[0], 64).unwrap();
    assert_eq!(
        enumeration.encoding_strings(),
        vec!["0011".to_string(), "011".to_string()],
        "the two valid paths of Fig. 4 encode to 0011 and 011"
    );
}

/// The hardware path encoder produces only those two path IDs at run time, and with
/// enough iterations it produces both.
#[test]
fn runtime_path_ids_are_the_paper_values() {
    let measurement = attest_with_input(6);
    assert_eq!(measurement.metadata.loop_count(), 1);
    let record = &measurement.metadata.decode().loops[0];
    let mut ids: Vec<u32> = record.paths.iter().map(|p| p.path_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0b1_011, 0b1_0011], "sentinel-prefixed 011 and 0011");
    // Counter values: counted iterations alternate between the two paths.
    assert_eq!(record.total_iterations(), 5, "6 body executions, first back edge creates the loop");
}

/// With a single iteration the loop is created but no iteration is counted (the
/// first back edge is hashed as a normal branch), so the metadata stays empty-ish
/// but deterministic.
#[test]
fn single_iteration_produces_no_counted_paths() {
    let measurement = attest_with_input(1);
    assert_eq!(measurement.metadata.loop_count(), 1);
    assert_eq!(measurement.metadata.decode().loops[0].total_iterations(), 0);
}

/// The verifier rejects a (correctly signed) report whose loop record carries an
/// encoding outside the valid set — the Fig. 4 "invalid encodings detected" claim.
#[test]
fn verifier_rejects_invalid_path_encoding() {
    let (_, mut prover, mut verifier) = common::workload_session("fig4-loop", "e1-device");

    let challenge = verifier.challenge(vec![6]);
    let run = prover.attest(&challenge.input, challenge.nonce).unwrap();

    // Forge metadata with an invalid encoding ("111" never occurs in Fig. 4) and
    // re-sign it with the device key to isolate the CFG-validity check.
    let mut metadata = run.report.metadata.decode();
    metadata.loops[0].paths.push(lofat::PathRecord { path_id: 0b1_111, iterations: 1 });
    let metadata = metadata.pack();
    let payload = AttestationReport::signed_bytes(
        "fig4-loop",
        &run.report.authenticator,
        &metadata,
        &challenge.nonce,
    );
    let mut signer = lofat_crypto::HmacSigner::new(DeviceKey::from_seed("e1-device"));
    let forged = AttestationReport {
        program_id: "fig4-loop".into(),
        authenticator: run.report.authenticator.clone(),
        metadata,
        nonce: challenge.nonce,
        signature: signer.sign(&payload).unwrap(),
    };

    let err = verifier.verify(&forged, &challenge).unwrap_err();
    assert!(matches!(
        err,
        LofatError::Rejected(RejectionReason::InvalidLoopPath { path_id: 0b1_111, .. })
    ));
}

/// The verifier's precomputed valid-path table for the Fig. 4 loop contains exactly
/// the two paper encodings.
#[test]
fn verifier_valid_path_table_matches_paper() {
    let (_, _, verifier) = common::workload_session("fig4-loop", "e1-device");
    let tables = verifier.valid_loop_paths();
    assert_eq!(tables.len(), 1);
    let ids = tables.values().next().unwrap();
    assert_eq!(ids, &vec![0b1_011, 0b1_0011]);
}

/// Same program, different cond2 outcomes: the set of observed path IDs depends on
/// the input parity pattern, but is always a subset of the valid encodings.
#[test]
fn observed_paths_are_always_subset_of_valid_set() {
    for input in 1..=9u32 {
        let measurement = attest_with_input(input);
        for record in &measurement.metadata.decode().loops {
            for path in &record.paths {
                assert!(
                    path.path_id == 0b1_011 || path.path_id == 0b1_0011,
                    "input {input}: unexpected path id {:#b}",
                    path.path_id
                );
            }
        }
    }
}

/// End-to-end: the honest Fig. 4 attestation is accepted.
#[test]
fn honest_fig4_attestation_accepted() {
    let outcome = common::attest_and_verify("fig4-loop", "e1-accept", vec![7]);
    let expected = catalog::by_name("fig4-loop").unwrap().expected_result(&[7]);
    assert_eq!(outcome.prover_run.exit.register_a0, expected);
}
