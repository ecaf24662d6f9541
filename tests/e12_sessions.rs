//! E12 — sans-I/O sessions, the versioned wire format and `VerifierService`.
//!
//! Three families of checks:
//!
//! * **Replay and cross-session confusion** — reusing a nonce, submitting
//!   evidence to the wrong session and answering after expiry must each yield
//!   the documented typed rejection, never acceptance.
//! * **Scale** — ≥ 1000 interleaved sessions through one `VerifierService`
//!   with single-use nonce enforcement and no cross-session state leakage
//!   (`E12_SESSIONS` overrides the count, e.g. for CI smoke runs).
//! * **Differential equivalence** — for every catalogue workload, honest and
//!   adversarial, driving `ProverSession`/`VerifierSession` through the wire
//!   codec produces byte-identical authenticators and the identical
//!   `Verdict`/`RejectionReason`/`ProtocolOutcome` as the `run_attestation`
//!   entry point (the legacy protocol semantics, re-derived inline).  A
//!   service leg sends the same evidence to a fresh `VerifierService`, to one
//!   restored from its own snapshot and to one that already judged the same
//!   measurement for another session: each must answer the library's verdict
//!   bytes and spend the session exactly when the library decides it.
//!   Beyond real executions the evidence includes e1's forged Fig. 4 report,
//!   reports naming another program (with and without a valid signature)
//!   and, by property test, every single-field mutation of honest reports
//!   re-signed with the device key.

mod common;

use lofat::metadata::IndirectTargetRecord;
use lofat::protocol::run_attestation_with_adversary;
use lofat::session::{ProverSession, SessionDecision, SessionOutcome};
use lofat::wire::{code, Envelope, EvidenceMsg, Message, SessionId, VerdictMsg};
use lofat::{
    AttestationReport, Challenge, LofatError, LoopRecord, Metadata, PathRecord, ProverRun,
    RejectionReason, ServiceConfig, Verdict, VerifierService,
};
use lofat_crypto::{DeviceKey, Digest, HmacSigner, Nonce, Signer};
use lofat_rv32::Program;
use lofat_workloads::{attack, catalog};
use proptest::prelude::*;
use std::collections::HashSet;

fn session_count() -> usize {
    std::env::var("E12_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(1000)
}

/// Honest evidence for an open session.
fn evidence_for(service: &VerifierService, prover: &mut lofat::Prover, id: SessionId) -> Envelope {
    let challenge = service.challenge_envelope(id).expect("session is open");
    let (evidence, _run) = ProverSession::new(prover).respond(&challenge).expect("prover runs");
    evidence
}

// ---------------------------------------------------------------------------
// Replay and cross-session confusion
// ---------------------------------------------------------------------------

#[test]
fn replayed_evidence_is_blocked_in_and_across_sessions() {
    let (_, service, mut prover) =
        common::workload_service("fig4-loop", "e12-replay", &[vec![4]], ServiceConfig::default());

    let first = service.open_session(vec![4]).unwrap();
    let evidence = evidence_for(&service, &mut prover, first);
    assert!(service.submit_evidence(&evidence).accepted, "honest evidence accepted");

    // Replay to the same (now decided and evicted) session: the consumed
    // nonce identifies it as a replay.
    let verdict = service.submit_evidence(&evidence);
    assert!(!verdict.accepted);
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED);

    // Replay into a *fresh* session: the consumed nonce is refused even though
    // the signature still verifies.
    let second = service.open_session(vec![4]).unwrap();
    let mut cross = evidence.clone();
    cross.session = second;
    let verdict = service.submit_evidence(&cross);
    assert!(!verdict.accepted);
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED);

    assert_eq!(service.stats().accepted, 1);
    assert_eq!(service.stats().replays_blocked, 2);

    // The replay must not spend the innocent target session: the honest
    // prover can still answer it (no replay-based denial of service).
    let honest = evidence_for(&service, &mut prover, second);
    assert!(service.submit_evidence(&honest).accepted);
    common::assert_stats_conserved(&service.stats(), service.live_sessions());
}

#[test]
fn evidence_to_the_wrong_session_is_rejected() {
    let (_, service, mut prover) = common::workload_service(
        "fig4-loop",
        "e12-cross",
        &[vec![2], vec![3]],
        ServiceConfig::default(),
    );
    let a = service.open_session(vec![2]).unwrap();
    let b = service.open_session(vec![3]).unwrap();

    // The prover answers session `a`'s challenge, but the envelope is routed
    // to session `b`: the report echoes `a`'s nonce, so `b` rejects it as a
    // nonce mismatch.
    let evidence_a = evidence_for(&service, &mut prover, a);
    let mut misrouted = evidence_a.clone();
    misrouted.session = b;
    let verdict = service.submit_evidence(&misrouted);
    assert!(!verdict.accepted);
    assert_eq!(verdict.reason_code, code::NONCE_MISMATCH);

    // Session `a` itself is untouched and still accepts its own evidence —
    // and `b` is not spent by the unauthenticated mismatch either, so the
    // honest prover can still answer it.
    assert!(service.submit_evidence(&evidence_a).accepted);
    let evidence_b = evidence_for(&service, &mut prover, b);
    assert!(service.submit_evidence(&evidence_b).accepted);
}

#[test]
fn verdict_after_expiry_is_rejected() {
    let config = ServiceConfig { session_deadline_cycles: 100, ..ServiceConfig::default() };
    let (_, service, mut prover) =
        common::workload_service("fig4-loop", "e12-expiry", &[vec![5]], config);

    let id = service.open_session(vec![5]).unwrap();
    let evidence = evidence_for(&service, &mut prover, id);
    service.advance_clock(101);

    let verdict = service.submit_evidence(&evidence);
    assert!(!verdict.accepted);
    assert_eq!(verdict.reason_code, code::SESSION_EXPIRED);
    assert_eq!(service.stats().expired, 1);

    // The expired session is gone and its nonce is spent; a second attempt
    // is flagged as the replay it is.
    let verdict = service.submit_evidence(&evidence);
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED);

    // And the expired nonce can never be smuggled into a fresh session.
    let fresh = service.open_session(vec![5]).unwrap();
    let mut smuggled = evidence.clone();
    smuggled.session = fresh;
    let verdict = service.submit_evidence(&smuggled);
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED);
    common::assert_stats_conserved(&service.stats(), service.live_sessions());
}

#[test]
fn non_evidence_messages_are_refused() {
    let (_, service, _prover) =
        common::workload_service("fig4-loop", "e12-kind", &[vec![1]], ServiceConfig::default());
    let id = service.open_session(vec![1]).unwrap();
    let challenge = service.challenge_envelope(id).unwrap();
    let verdict = service.submit_evidence(&challenge);
    assert!(!verdict.accepted);
    assert_eq!(verdict.reason_code, code::UNEXPECTED_MESSAGE);
}

#[test]
fn stale_sessions_expire_on_sweep() {
    let config = ServiceConfig { session_deadline_cycles: 50, ..ServiceConfig::default() };
    let (_, service, _prover) =
        common::workload_service("fig4-loop", "e12-sweep", &[vec![1]], config);
    for _ in 0..5 {
        service.open_session(vec![1]).unwrap();
    }
    assert_eq!(service.expire_stale(), 0, "nothing stale yet");
    // A newer batch, due 30 cycles after the first: a sweep between the two
    // deadlines expires the older batch only.
    service.advance_clock(30);
    let newer: Vec<SessionId> = (0..3).map(|_| service.open_session(vec![1]).unwrap()).collect();
    service.advance_clock(21);
    assert_eq!(service.expire_stale(), 5);
    assert_eq!(service.live_sessions(), 3);
    for id in &newer {
        assert!(service.challenge_envelope(*id).is_ok(), "{id} was swept before its deadline");
    }
    common::assert_stats_conserved(&service.stats(), 3);
    service.advance_clock(30);
    assert_eq!(service.expire_stale(), 3);
    assert_eq!(service.live_sessions(), 0);
    assert_eq!(service.stats().expired, 8);
    common::assert_stats_conserved(&service.stats(), 0);
}

// ---------------------------------------------------------------------------
// Scale: ≥ 1000 interleaved sessions, single-use nonces, no leakage
// ---------------------------------------------------------------------------

#[test]
fn interleaved_sessions_at_scale_with_single_use_nonces() {
    let n = session_count();
    let workload = catalog::by_name("fig4-loop").unwrap();
    let inputs: Vec<Vec<u32>> = (1..=8u32).map(|k| vec![k]).collect();
    let (_, service, mut prover) =
        common::workload_service("fig4-loop", "e12-fleet", &inputs, ServiceConfig::default());

    // Open all sessions up front (they interleave arbitrarily afterwards).
    let ids: Vec<SessionId> = (0..n)
        .map(|i| service.open_session(inputs[i % inputs.len()].clone()).expect("capacity"))
        .collect();
    assert_eq!(service.live_sessions(), n);

    // Single-use nonces: all distinct across live sessions.
    let nonce = |id: &SessionId| match service.challenge_envelope(*id).unwrap().message {
        Message::Challenge(challenge) => challenge.nonce,
        other => panic!("expected a challenge, got {}", other.kind()),
    };
    let nonces: HashSet<_> = ids.iter().map(nonce).collect();
    assert_eq!(nonces.len(), n, "challenge nonces must be unique across sessions");

    // Produce all evidence first, then submit in a strided (interleaved)
    // order so no session is answered in the order it was opened.
    let evidence: Vec<Envelope> =
        ids.iter().map(|id| evidence_for(&service, &mut prover, *id)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|i| (i.wrapping_mul(7919)) % n);

    for &i in &order {
        let verdict = service.submit_evidence(&evidence[i]);
        assert!(verdict.accepted, "session {i} rejected: {verdict:?}");
        // No cross-session leakage: every verdict reports the expected result
        // of *its own* session's input.
        let expected = workload.expected_result(&inputs[i % inputs.len()]);
        assert_eq!(verdict.expected_result, Some(expected), "session {i} leaked state");
    }
    assert_eq!(service.stats().accepted as usize, n);
    assert_eq!(service.stats().rejected, 0);

    // Decided sessions are evicted eagerly, so the map is empty again and
    // every replay attempt after the fact is blocked by the nonce cache.
    assert_eq!(service.live_sessions(), 0);
    for i in (0..n).step_by(97) {
        let verdict = service.submit_evidence(&evidence[i]);
        assert!(!verdict.accepted);
        assert_eq!(verdict.reason_code, code::NONCE_REPLAYED);
    }
    // Conservation: every opened session is accounted for exactly once.
    common::assert_stats_conserved(&service.stats(), service.live_sessions());
}

// ---------------------------------------------------------------------------
// Differential equivalence with the legacy protocol
// ---------------------------------------------------------------------------

/// Turns the prover's report into the evidence a scenario sends; gets the
/// device key, so it can re-sign what it changed.
type Tamper<'a> = &'a dyn Fn(&mut AttestationReport, &DeviceKey);

/// Signs `report` again under `key`, as whoever holds the device key could.
fn resign(report: &mut AttestationReport, key: &DeviceKey) {
    report.signature = HmacSigner::new(key.clone()).sign(&report.payload()).expect("HMAC signs");
}

/// Edits `report`'s metadata through its decoded view and packs it back.
fn edit_metadata(report: &mut AttestationReport, edit: impl FnOnce(&mut Metadata)) {
    let mut metadata = report.metadata.decode();
    edit(&mut metadata);
    report.metadata = metadata.pack();
}

/// The exact pre-redesign `run_attestation_with_adversary` semantics, inlined:
/// challenge → in-process attest → `Verifier::verify`.
fn legacy_round(
    name: &str,
    seed: &str,
    input: Vec<u32>,
    fault: &mut attack::Fault,
    tamper: Option<Tamper<'_>>,
) -> (Challenge, ProverRun, Result<Verdict, LofatError>) {
    let (_, mut prover, mut verifier) = common::workload_session(name, seed);
    let challenge = verifier.challenge(input);
    let mut run = prover
        .attest_with_adversary(&challenge.input, challenge.nonce, fault)
        .expect("prover executes");
    if let Some(tamper) = tamper {
        tamper(&mut run.report, &DeviceKey::from_seed(seed));
    }
    let verdict = verifier.verify(&run.report, &challenge);
    (challenge, run, verdict)
}

/// The same round trip through the new session layer and the byte codec;
/// also returns whether the session was decided.
fn session_round(
    name: &str,
    seed: &str,
    input: Vec<u32>,
    fault: &mut attack::Fault,
    tamper: Option<Tamper<'_>>,
) -> (Challenge, ProverRun, SessionOutcome, bool) {
    let (_, mut prover, mut verifier) = common::workload_session(name, seed);
    let mut session = verifier.begin_session(SessionId(77), input, u64::MAX);
    let challenge = session.challenge().clone();

    let challenge_bytes = session.challenge_envelope().encode().expect("encode challenge");
    let challenge_envelope = Envelope::decode(&challenge_bytes).expect("decode challenge");
    let (evidence_envelope, mut run) = ProverSession::new(&mut prover)
        .respond_with_adversary(&challenge_envelope, fault)
        .expect("prover executes");
    let evidence_bytes = evidence_envelope.encode().expect("encode evidence");
    let mut evidence = Envelope::decode(&evidence_bytes).expect("decode evidence");

    // The report must survive the wire byte-for-byte.
    let Message::Evidence(on_wire) = &mut evidence.message else { panic!("wrong message kind") };
    assert_eq!(&on_wire.report, &run.report, "report changed on the wire");
    if let Some(tamper) = tamper {
        tamper(&mut run.report, &DeviceKey::from_seed(seed));
        on_wire.report = run.report.clone();
    }

    let outcome =
        session.process_evidence(&evidence, &verifier, 0).expect("no session-level failure");
    (challenge, run, outcome, session.is_decided())
}

/// The service leg.  `report` answers session 1 of a service over `input`,
/// whose nonce is the library's first challenge nonce, three ways: on a
/// fresh service, on one restored from the fresh service's snapshot taken
/// before it opened anything, and on one that already judged the report's
/// measurement for another session (the same report, re-signed for session
/// 2, went first).  Each must answer `library`'s verdict bytes and evict the
/// session exactly when the library `decided` its own.
fn assert_service_agrees(
    label: &str,
    name: &str,
    seed: &str,
    input: &[u32],
    report: &AttestationReport,
    library: &VerdictMsg,
    decided: bool,
) {
    let key = DeviceKey::from_seed(seed);
    let service =
        || common::workload_service(name, seed, &[input.to_vec()], ServiceConfig::default()).1;
    let evidence = |id: SessionId, report: &AttestationReport| {
        Envelope::new(id, Message::Evidence(EvidenceMsg { report: report.clone() }))
    };
    let bytes = |verdict: &VerdictMsg| {
        Envelope::new(SessionId(1), Message::Verdict(verdict.clone())).encode().expect("encodes")
    };

    let fresh = service();
    let snapshot = fresh.snapshot_bytes(0).expect("snapshot encodes");
    let restored = VerifierService::restore_bytes(&snapshot, key.verification_key())
        .expect("own snapshot restores");
    let id = fresh.open_session(input.to_vec()).expect("the input has a reference");
    assert_eq!(id, SessionId(1), "{label}");
    let restored_id = restored.open_session(input.to_vec()).expect("the input has a reference");
    assert_eq!(restored_id, id, "{label}: the restored service issues the same first id");

    let repeat = service();
    let first = repeat.open_session(input.to_vec()).expect("capacity");
    let second = repeat.open_session(input.to_vec()).expect("capacity");
    let mut earlier = report.clone();
    earlier.nonce = Nonce::from_counter(second.0);
    resign(&mut earlier, &key);
    repeat.submit_evidence(&evidence(second, &earlier));

    for (leg, service, id) in
        [("fresh", &fresh, id), ("restored", &restored, id), ("repeat", &repeat, first)]
    {
        let verdict = service.submit_evidence(&evidence(id, report));
        assert_eq!(&verdict, library, "{label}: {leg} service verdict differs");
        assert_eq!(bytes(&verdict), bytes(library), "{label}: {leg} service verdict bytes differ");
        let spent = service.challenge_envelope(id).is_err();
        assert_eq!(spent, decided, "{label}: {leg} service spend differs");
        common::assert_stats_conserved(&service.stats(), service.live_sessions());
    }
}

fn assert_equivalent(
    name: &str,
    scenario: &str,
    input: Vec<u32>,
    make: impl FnMut() -> attack::Fault,
) {
    assert_equivalent_tampered(name, scenario, input, make, None);
}

/// [`assert_equivalent`] for evidence `tamper` made from the prover's
/// report; the one-call adapter runs only when there is none, since it
/// sends the prover's report itself.
fn assert_equivalent_tampered(
    name: &str,
    scenario: &str,
    input: Vec<u32>,
    mut make: impl FnMut() -> attack::Fault,
    tamper: Option<Tamper<'_>>,
) {
    let seed = format!("e12-diff-{name}-{scenario}");

    let (legacy_challenge, legacy_run, legacy_verdict) =
        legacy_round(name, &seed, input.clone(), &mut make(), tamper);
    let (session_challenge, session_run, session_outcome, decided) =
        session_round(name, &seed, input.clone(), &mut make(), tamper);

    // Same challenge (nonce sequence preserved) and byte-identical reports.
    assert_eq!(legacy_challenge, session_challenge, "{name}/{scenario}: challenge differs");
    assert_eq!(
        legacy_run.report.authenticator.as_bytes(),
        session_run.report.authenticator.as_bytes(),
        "{name}/{scenario}: authenticator differs"
    );
    assert_eq!(legacy_run.report, session_run.report, "{name}/{scenario}: report differs");
    assert_eq!(legacy_run.exit, session_run.exit, "{name}/{scenario}: exit info differs");

    // Same decision.
    match (&legacy_verdict, &session_outcome.decision) {
        (Ok(legacy), SessionDecision::Accepted(session)) => {
            assert_eq!(legacy.replay_exit, session.replay_exit, "{name}/{scenario}");
            assert_eq!(
                legacy.expected.authenticator, session.expected.authenticator,
                "{name}/{scenario}"
            );
            assert_eq!(legacy.expected.metadata, session.expected.metadata, "{name}/{scenario}");
            assert!(session_outcome.verdict_msg.accepted);
        }
        (Err(LofatError::Rejected(legacy)), SessionDecision::Rejected(session)) => {
            assert_eq!(legacy, session, "{name}/{scenario}: rejection reason differs");
            assert_eq!(session_outcome.verdict_msg.reason_code, legacy.code());
        }
        (legacy, session) => {
            panic!("{name}/{scenario}: decisions diverge: legacy={legacy:?} session={session:?}")
        }
    }

    let label = format!("{name}/{scenario}");
    let verdict = &session_outcome.verdict_msg;
    assert_service_agrees(&label, name, &seed, &input, &session_run.report, verdict, decided);

    // And the public adapter (`run_attestation*`) agrees with the legacy
    // semantics as a `ProtocolOutcome`.
    if tamper.is_some() {
        return;
    }
    let (_, mut prover, mut verifier) = common::workload_session(name, &seed);
    let adapter = run_attestation_with_adversary(&mut verifier, &mut prover, input, &mut make());
    match (legacy_verdict, adapter) {
        (Ok(legacy), Ok(outcome)) => {
            assert_eq!(outcome.challenge, legacy_challenge, "{name}/{scenario}");
            assert_eq!(outcome.prover_run.report, legacy_run.report, "{name}/{scenario}");
            assert_eq!(outcome.verdict.replay_exit, legacy.replay_exit, "{name}/{scenario}");
        }
        (Err(LofatError::Rejected(legacy)), Err(LofatError::Rejected(adapter))) => {
            assert_eq!(legacy, adapter, "{name}/{scenario}: adapter rejection differs");
        }
        (legacy, adapter) => {
            panic!("{name}/{scenario}: adapter diverges: legacy={legacy:?} adapter={adapter:?}")
        }
    }
}

fn no_fault() -> attack::Fault {
    Box::new(|_cpu: &mut lofat_rv32::Cpu, _retired: u64| {})
}

#[test]
fn differential_honest_runs_match_legacy_for_whole_catalogue() {
    for workload in catalog::all() {
        assert_equivalent(workload.name, "honest", workload.default_input.clone(), no_fault);
    }
}

#[test]
fn differential_generic_memory_fault_matches_legacy_for_whole_catalogue() {
    for workload in catalog::all() {
        let program: Program = workload.program().expect("assemble");
        let input_addr = program.symbol("input").expect("workloads define `input`");
        // A class-①/② style fault that is safe on every workload: rewrite the
        // first input word to 1 just after the run starts.
        assert_equivalent(workload.name, "poke", workload.default_input.clone(), move || {
            attack::poke_at_instruction(2, input_addr, 1)
        });
    }
}

#[test]
fn differential_stock_adversaries_match_legacy() {
    // Class ② — loop-counter manipulation on the syringe pump.
    {
        let program = catalog::by_name("syringe-pump").unwrap().program().unwrap();
        let input = program.symbol("input").unwrap();
        assert_equivalent("syringe-pump", "loop-counter", vec![3], move || {
            attack::loop_counter_attack(input, 50)
        });
    }
    // Class ① — non-control-data corruption of a decision variable.
    {
        let program = catalog::by_name("fig4-loop").unwrap().program().unwrap();
        let input = program.symbol("input").unwrap();
        assert_equivalent("fig4-loop", "non-control-data", vec![4], move || {
            attack::non_control_data_attack(input, 9)
        });
    }
    // Class ③ — code-pointer table hijack in the dispatcher.
    {
        let program = catalog::by_name("dispatch").unwrap().program().unwrap();
        let table = program.symbol("table").unwrap();
        let clear = program.symbol("op_clear").unwrap();
        assert_equivalent("dispatch", "code-pointer", vec![0, 0, 2, 1], move || {
            attack::code_pointer_attack(table, 0, clear)
        });
    }
    // Class ③ — ROP-style return-address smash.
    {
        let program = catalog::by_name("return-victim").unwrap().program().unwrap();
        let process = program.symbol("process").unwrap();
        let privileged = program.symbol("privileged").unwrap();
        assert_equivalent("return-victim", "return-address", vec![21], move || {
            attack::return_address_attack(process + 8, 12, privileged)
        });
    }
    // Pure data-oriented attack — must be *accepted* by both paths.
    {
        let program = catalog::by_name("syringe-pump").unwrap().program().unwrap();
        let pulses = program.symbol("motor_pulses").unwrap();
        assert_equivalent("syringe-pump", "data-only", vec![3], move || {
            attack::data_only_attack(pulses, 9999)
        });
    }
    // Forged signature: a rogue device key yields BadSignature on both paths.
    {
        // Implemented via the report path, not a memory fault: exercised in
        // `rejection_codes_are_stable` below and in the verifier's own tests.
    }
}

/// e1's forgery: the Fig. 4 report for input 6 with the never-valid path
/// encoding `111` added, re-signed with the device key.  Both paths answer
/// the paper's invalid-encoding verdict, code 4, and spend the session.
#[test]
fn differential_forged_fig4_path_matches_legacy() {
    let forge: Tamper<'_> = &|report, key| {
        let path = PathRecord { path_id: 0b1_111, iterations: 1 };
        edit_metadata(report, |m| m.loops[0].paths.push(path));
        resign(report, key);
    };
    assert_equivalent_tampered("fig4-loop", "forged-path", vec![6], no_fault, Some(forge));
}

/// Path order is part of `L`, which the signature covers: two paths of a
/// crc32 loop record swapped draw code 3 under the prover's signature and,
/// re-signed with the device key, code 6 (the reference metadata), from the
/// library and the service alike.
#[test]
fn differential_swapped_paths_match_legacy() {
    let input = catalog::by_name("crc32").unwrap().default_input;
    let swap = |report: &mut AttestationReport| {
        edit_metadata(report, |m| {
            let record = m.loops.iter_mut().find(|l| l.paths.len() >= 2);
            record.expect("a loop record with two paths").paths.swap(0, 1);
        })
    };
    let unsigned: Tamper<'_> = &|report, _| swap(report);
    let signed: Tamper<'_> = &|report, key| {
        swap(report);
        resign(report, key);
    };
    for (scenario, tamper, want) in [
        ("swapped-unsigned", unsigned, RejectionReason::BadSignature),
        ("swapped-signed", signed, RejectionReason::MetadataMismatch),
    ] {
        let seed = format!("e12-diff-crc32-{scenario}");
        let (_, _, verdict) =
            legacy_round("crc32", &seed, input.clone(), &mut no_fault(), Some(tamper));
        assert!(
            matches!(&verdict, Err(LofatError::Rejected(reason)) if *reason == want),
            "{scenario}: {verdict:?}"
        );
        assert_equivalent_tampered("crc32", scenario, input.clone(), no_fault, Some(tamper));
    }
}

/// An edit to a path list that later records inherit: packed `L` writes the
/// crc32 bit loop's path ids once and the records after it that list the
/// same ids inherit them, so replacing the first id there (one byte of `L`)
/// replaces it in every one of those records.  Under the prover's signature
/// the library and the service answer code 3; re-signed with the device
/// key, code 4 (an id outside the loop's valid paths), and both spend the
/// session alike.
#[test]
fn differential_edit_to_an_inherited_path_list_matches_legacy() {
    const FORGED_ID: u32 = 0x7f;
    let input = catalog::by_name("crc32").unwrap().default_input;
    let edit = |report: &mut AttestationReport| {
        let honest = report.metadata.as_bytes().to_vec();
        let mut edited = 0;
        edit_metadata(report, |m| {
            let ids = |l: &LoopRecord| l.paths.iter().map(|p| p.path_id).collect::<Vec<_>>();
            let same = |i: usize| i > 0 && ids(&m.loops[i - 1]) == ids(&m.loops[i]);
            let first = (0..m.loops.len() - 1)
                .find(|&i| !same(i) && same(i + 1) && !m.loops[i].paths.is_empty())
                .expect("a path list the next record inherits");
            let inherit = (first + 1..m.loops.len()).take_while(|&i| same(i)).count();
            for record in &mut m.loops[first..=first + inherit] {
                assert_ne!(record.paths[0].path_id, FORGED_ID);
                record.paths[0].path_id = FORGED_ID;
                edited += 1;
            }
        });
        let forged = report.metadata.as_bytes();
        assert!(edited >= 2, "{edited} records");
        assert_eq!(forged.len(), honest.len());
        assert_eq!(forged.iter().zip(&honest).filter(|(a, b)| a != b).count(), 1);
    };
    let unsigned: Tamper<'_> = &|report, _| edit(report);
    let signed: Tamper<'_> = &|report, key| {
        edit(report);
        resign(report, key);
    };
    for (scenario, tamper) in
        [("inherited-list-unsigned", unsigned), ("inherited-list-signed", signed)]
    {
        let seed = format!("e12-diff-crc32-{scenario}");
        let (_, _, verdict) =
            legacy_round("crc32", &seed, input.clone(), &mut no_fault(), Some(tamper));
        let expected = match &verdict {
            Err(LofatError::Rejected(RejectionReason::BadSignature)) => {
                scenario.ends_with("unsigned")
            }
            Err(LofatError::Rejected(RejectionReason::InvalidLoopPath { path_id, .. })) => {
                *path_id == FORGED_ID && scenario.ends_with("-signed")
            }
            _ => false,
        };
        assert!(expected, "{scenario}: {verdict:?}");
        assert_equivalent_tampered("crc32", scenario, input.clone(), no_fault, Some(tamper));
    }
}

/// A report naming another program, signed with the device key: code 1,
/// and the session stays open for the honest device.
#[test]
fn differential_foreign_program_signed_report_matches_legacy() {
    let signed: Tamper<'_> = &|report, key| {
        report.program_id = "syringe-pump".into();
        resign(report, key);
    };
    assert_equivalent_tampered("fig4-loop", "foreign-signed", vec![4], no_fault, Some(signed));
}

/// A report naming another program under its now-stale signature: still
/// code 1, because the program id is checked before the signature.
#[test]
fn differential_foreign_program_unsigned_report_matches_legacy() {
    let unsigned: Tamper<'_> = &|report, _| report.program_id = "syringe-pump".into();
    assert_equivalent_tampered("fig4-loop", "foreign-unsigned", vec![4], no_fault, Some(unsigned));
}

/// Every report that differs from `report` in one field: the program id, the
/// nonce, each authenticator byte, and per loop each integer with all or its
/// lowest bits flipped, the overflow flag, one path or target more or fewer,
/// and each two neighbouring paths swapped.
fn single_field_mutations(report: &AttestationReport) -> Vec<AttestationReport> {
    let mut out = Vec::new();
    let mut push = |edit: &dyn Fn(&mut AttestationReport)| {
        let mut mutated = report.clone();
        edit(&mut mutated);
        out.push(mutated);
    };
    push(&|r| r.program_id.push('!'));
    let mut nonce = *report.nonce.as_bytes();
    nonce[15] ^= 1;
    push(&|r| r.nonce = Nonce::from_bytes(nonce));
    let digest = report.authenticator.as_bytes();
    for i in 0..digest.len() {
        let mut bytes = digest.to_vec();
        bytes[i] ^= 0x81;
        push(&|r| r.authenticator = Digest::from_bytes(bytes.clone()));
    }
    for (i, l) in report.metadata.decode().loops.iter().enumerate() {
        for v in [!l.entry, l.entry ^ 1] {
            push(&|r| edit_metadata(r, |m| m.loops[i].entry = v));
        }
        for v in [!l.exit, l.exit ^ 1] {
            push(&|r| edit_metadata(r, |m| m.loops[i].exit = v));
        }
        push(&|r| edit_metadata(r, |m| m.loops[i].nesting_depth ^= 1));
        push(&|r| edit_metadata(r, |m| m.loops[i].encoder_overflowed ^= true));
        let new_path = PathRecord { path_id: 0b1_111, iterations: 1 };
        push(&|r| edit_metadata(r, |m| m.loops[i].paths.push(new_path)));
        push(&|r| {
            edit_metadata(r, |m| {
                m.loops[i].paths.pop();
            })
        });
        for (j, p) in l.paths.iter().enumerate() {
            for v in [!p.path_id, p.path_id ^ 1] {
                push(&|r| edit_metadata(r, |m| m.loops[i].paths[j].path_id = v));
            }
            push(&|r| edit_metadata(r, |m| m.loops[i].paths[j].iterations ^= 1));
        }
        for j in 1..l.paths.len() {
            push(&|r| edit_metadata(r, |m| m.loops[i].paths.swap(j - 1, j)));
        }
        let new_target = IndirectTargetRecord { target: 4, code: 1 };
        push(&|r| edit_metadata(r, |m| m.loops[i].indirect_targets.push(new_target)));
        for j in 0..l.indirect_targets.len() {
            push(&|r| edit_metadata(r, |m| m.loops[i].indirect_targets[j].target ^= 1));
        }
    }
    push(&|r| {
        edit_metadata(r, |m| {
            m.loops.push(LoopRecord {
                entry: 0,
                exit: 0,
                nesting_depth: 1,
                paths: Vec::new(),
                indirect_targets: Vec::new(),
                encoder_overflowed: false,
            })
        })
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// One single-field mutation of an honest report, re-signed with the
    /// device key, judged by the library and the service.
    #[test]
    fn differential_resigned_mutations_match_legacy(
        workload in 0usize..4,
        choice in any::<usize>(),
    ) {
        let name = ["fig4-loop", "diamond-paths", "crc32", "dispatch"][workload];
        let input = catalog::by_name(name).unwrap().default_input;
        let mutate: Tamper<'_> = &|report, key| {
            let mut mutations = single_field_mutations(report);
            *report = mutations.swap_remove(choice % mutations.len());
            resign(report, key);
        };
        assert_equivalent_tampered(name, "mutation", input, no_fault, Some(mutate));
    }
}

#[test]
fn rejection_codes_are_stable() {
    // The numeric contract of `VerdictMsg::reason_code` (satellite: stable
    // codes surfaced on the wire).
    assert_eq!(RejectionReason::NonceMismatch.code(), 2);
    assert_eq!(RejectionReason::BadSignature.code(), 3);
    assert_eq!(RejectionReason::AuthenticatorMismatch.code(), 5);
    assert_eq!(RejectionReason::MetadataMismatch.code(), 6);
    assert_eq!(
        RejectionReason::ProgramIdMismatch { expected: String::new(), found: String::new() }.code(),
        1
    );
    assert_eq!(RejectionReason::InvalidLoopPath { loop_entry: 0, path_id: 0 }.code(), 4);
    assert_eq!(code::UNKNOWN_SESSION, 64);
    assert_eq!(code::SESSION_DECIDED, 65);
    assert_eq!(code::SESSION_EXPIRED, 66);
    assert_eq!(code::NONCE_REPLAYED, 67);
}
