//! E16 — verdict-cache differential suite.
//!
//! The verdict cache memoises the input-derived half of a verdict (signature
//! prefix absorption + measurement comparison).  The hard invariant: caching
//! adds **no** semantics.  For a workload slice mixing honest traffic with
//! every stock adversary class, forged signatures and a full replay phase,
//! a cached service must produce byte-for-byte the verdict envelopes of an
//! uncached one, with equal statistics modulo the scheduling-dependent
//! hit/miss split — while actually hitting (the whole point), and while
//! provably never letting an unauthenticated submission populate or consult
//! its way past the per-session checks:
//!
//! * **Differential equivalence** — cached (sequential and batched) vs
//!   uncached replies compared byte-by-byte across phase 1 and the replay
//!   phase; stats compared modulo the cache counters; live sessions equal.
//! * **Cache effectiveness** — repeated measurements make the cached run
//!   hit; the uncached twin records zero cache activity.
//! * **Poisoning resistance** — a phase of forged-signature and tampered-
//!   metadata submissions leaves the cache books untouched (nothing was
//!   authenticated, so nothing may be stored), and the honest traffic that
//!   follows starts from a miss.
//!
//! `E16_SESSIONS` overrides the per-workload session count (CI runs a debug
//! smoke pass and a full-scale release pass, mirroring `E12_SESSIONS`).

mod common;

use lofat::session::ProverSession;
use lofat::wire::{code, Envelope, Message, SessionId};
use lofat::{Prover, ServiceConfig, VerifierService};
use lofat_crypto::Digest;
use lofat_rv32::Program;
use lofat_workloads::attack;

fn sessions_per_workload() -> usize {
    std::env::var("E16_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

/// Session `i`'s traffic class: honest (0, 1), stock adversary (2), or a
/// forged-signature submission (3) — the same mix as the e13 suite.
fn evidence_kind(index: usize) -> usize {
    index % 4
}

struct Fleet {
    evidence: Vec<Vec<u8>>,
    inputs: Vec<Vec<u32>>,
}

/// Pre-generates deterministic fleet traffic (same construction as e13: a
/// throwaway generator service issues the challenges; deterministic nonces
/// mean the same bytes answer every fresh service instance).
fn generate_fleet(
    name: &str,
    seed: &str,
    input_pool: &[Vec<u32>],
    mut adversary: impl FnMut(&Program) -> attack::Fault,
    sessions: usize,
) -> Fleet {
    let (program, service, mut prover) =
        common::workload_service(name, seed, input_pool, ServiceConfig::default());
    let prover: &mut Prover = &mut prover;
    let mut fleet = Fleet { evidence: Vec::with_capacity(sessions), inputs: Vec::new() };
    for i in 0..sessions {
        let input = input_pool[i % input_pool.len()].clone();
        let id = service.open_session(input.clone()).expect("generator capacity");
        let challenge = service.challenge_envelope(id).expect("challenge").encode().expect("enc");
        let envelope = match evidence_kind(i) {
            2 => {
                let decoded = Envelope::decode(&challenge).expect("challenge decodes");
                let mut fault = adversary(&program);
                let (envelope, _run) = ProverSession::new(prover)
                    .respond_with_adversary(&decoded, &mut fault)
                    .expect("adversarial prover runs");
                envelope.encode().expect("encode evidence")
            }
            3 => {
                let decoded = Envelope::decode(&challenge).expect("challenge decodes");
                let (_, run) = ProverSession::new(prover).respond(&decoded).expect("prover runs");
                let mut report = run.report;
                let mut bytes = report.authenticator.as_bytes().to_vec();
                bytes[0] ^= 0x01;
                report.authenticator = Digest::from_bytes(bytes);
                Envelope::new(id, Message::Evidence(lofat::wire::EvidenceMsg { report }))
                    .encode()
                    .expect("encode forged evidence")
            }
            _ => ProverSession::new(prover).handle_bytes(&challenge).expect("prover answers"),
        };
        fleet.evidence.push(envelope);
        fleet.inputs.push(input);
    }
    fleet
}

/// Builds a fresh service, opens the fleet's sessions, and drives phase 1
/// plus a full replay phase.  `batch` routes every submission chunk through
/// [`VerifierService::handle_bytes_batch`]; otherwise each request goes
/// through `handle_bytes` individually.
fn run(
    name: &str,
    seed: &str,
    fleet: &Fleet,
    input_pool: &[Vec<u32>],
    config: ServiceConfig,
    batch: bool,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, lofat::ServiceStats, usize) {
    let (_, service, _prover) = common::workload_service(name, seed, input_pool, config);
    for (i, input) in fleet.inputs.iter().enumerate() {
        let id = service.open_session(input.clone()).expect("capacity");
        assert_eq!(id, SessionId(i as u64 + 1));
    }
    let drive = |service: &VerifierService| -> Vec<Vec<u8>> {
        if batch {
            fleet
                .evidence
                .chunks(8)
                .flat_map(|chunk| {
                    service
                        .handle_bytes_batch(chunk)
                        .into_iter()
                        .map(|reply| reply.expect("verdict encodes"))
                })
                .collect()
        } else {
            fleet.evidence.iter().map(|b| service.handle_bytes(b).expect("encodes")).collect()
        }
    };
    let phase1 = drive(&service);
    let phase2 = drive(&service);
    let stats = service.stats();
    common::assert_stats_conserved(&stats, service.live_sessions());
    (phase1, phase2, stats, service.live_sessions())
}

fn differential_for_workload(
    name: &str,
    input_pool: &[Vec<u32>],
    adversary: impl Fn(&Program) -> attack::Fault,
) {
    let sessions = sessions_per_workload();
    let seed = format!("e16-{name}");
    let fleet = generate_fleet(name, &seed, input_pool, &adversary, sessions);

    let uncached_cfg = ServiceConfig::default().with_verdict_cache(0);
    let (ref_p1, ref_p2, ref_stats, ref_live) =
        run(name, &seed, &fleet, input_pool, uncached_cfg, false);

    // Sanity on the uncached reference itself.
    for (i, bytes) in ref_p1.iter().enumerate() {
        let verdict = common::decode_verdict(bytes);
        match evidence_kind(i) {
            0 | 1 => assert!(verdict.accepted, "{name}: honest session {i}: {verdict:?}"),
            3 => assert_eq!(verdict.reason_code, code::BAD_SIGNATURE, "{name}: session {i}"),
            _ => assert!(!verdict.accepted, "{name}: adversarial session {i}: {verdict:?}"),
        }
    }
    for bytes in &ref_p2 {
        assert!(!common::decode_verdict(bytes).accepted, "{name}: replay accepted");
    }
    assert_eq!(ref_stats.cache_hits, 0, "{name}: a disabled cache cannot hit");
    assert_eq!(ref_stats.cache_evictions, 0, "{name}: a disabled cache cannot evict");

    // Cached runs — sequential, batched, and a deliberately tiny cache that
    // has to evict constantly — must reproduce the reference bytes exactly.
    let scenarios = [
        ("cached-seq", ServiceConfig::default(), false),
        ("cached-batch", ServiceConfig::default(), true),
        ("cached-tiny", ServiceConfig::default().with_verdict_cache(2), false),
        ("cached-sharded", ServiceConfig::sharded(4), false),
    ];
    for (label, config, batch) in scenarios {
        let (p1, p2, stats, live) = run(name, &seed, &fleet, input_pool, config, batch);
        for (i, (want, got)) in ref_p1.iter().zip(&p1).enumerate() {
            assert_eq!(want, got, "{name}/{label}: phase-1 reply {i} diverges from uncached");
        }
        for (i, (want, got)) in ref_p2.iter().zip(&p2).enumerate() {
            assert_eq!(want, got, "{name}/{label}: replay reply {i} diverges from uncached");
        }
        assert_eq!(
            common::stats_modulo_cache(&ref_stats),
            common::stats_modulo_cache(&stats),
            "{name}/{label}: stats diverge beyond the cache split"
        );
        assert_eq!(ref_live, live, "{name}/{label}: live sessions diverge");
        // The cache must actually work: the fleet repeats measurements, so a
        // full-size cache sees hits (the tiny one at least keeps the books).
        if config.verdict_cache_entries >= sessions {
            assert!(stats.cache_hits > 0, "{name}/{label}: warm cache never hit ({stats:?})");
        }
    }
}

// ---------------------------------------------------------------------------
// Differential equivalence, honest + every stock adversary class
// ---------------------------------------------------------------------------

#[test]
fn differential_fig4_loop_with_non_control_data_attack() {
    let inputs: Vec<Vec<u32>> = (1..=6u32).map(|k| vec![k]).collect();
    differential_for_workload("fig4-loop", &inputs, |program| {
        attack::non_control_data_attack(program.symbol("input").expect("input symbol"), 9)
    });
}

#[test]
fn differential_syringe_pump_with_loop_counter_attack() {
    differential_for_workload("syringe-pump", &[vec![3]], |program| {
        attack::loop_counter_attack(program.symbol("input").expect("input symbol"), 50)
    });
}

#[test]
fn differential_dispatch_with_code_pointer_attack() {
    differential_for_workload("dispatch", &[vec![0, 0, 2, 1]], |program| {
        attack::code_pointer_attack(
            program.symbol("table").expect("table symbol"),
            0,
            program.symbol("op_clear").expect("op_clear symbol"),
        )
    });
}

#[test]
fn differential_return_victim_with_return_address_attack() {
    differential_for_workload("return-victim", &[vec![21]], |program| {
        attack::return_address_attack(
            program.symbol("process").expect("process symbol") + 8,
            12,
            program.symbol("privileged").expect("privileged symbol"),
        )
    });
}

// ---------------------------------------------------------------------------
// Poisoning resistance at fleet scale
// ---------------------------------------------------------------------------

/// A whole phase of unauthenticated submissions — forged signatures and
/// tampered metadata addressed at live sessions — must leave the verdict
/// cache completely untouched: zero entries stored, zero hits, zero misses
/// (nothing spent a session).  The honest traffic that follows then starts
/// cold (its first spend is a miss), proving no forgery planted an entry.
#[test]
fn unauthenticated_submissions_never_touch_the_cache() {
    let sessions = sessions_per_workload().clamp(8, 64);
    let (_, service, mut prover) =
        common::workload_service("fig4-loop", "e16-poison", &[vec![2]], ServiceConfig::default());
    // Live sessions, honest evidence held back for later.
    let mut honest = Vec::new();
    for _ in 0..sessions {
        let id = service.open_session(vec![2]).expect("capacity");
        let challenge = service.challenge_envelope(id).expect("challenge");
        let (envelope, _run) =
            ProverSession::new(&mut prover).respond(&challenge).expect("prover runs");
        honest.push(envelope);
    }
    // Poison phase: flip a signed byte in every report — half via the
    // authenticator, half via the metadata — and submit to the live session.
    for (i, envelope) in honest.iter().enumerate() {
        let Message::Evidence(evidence) = &envelope.message else { unreachable!() };
        let mut report = evidence.report.clone();
        if i % 2 == 0 {
            let mut bytes = report.authenticator.as_bytes().to_vec();
            bytes[0] ^= 0x01;
            report.authenticator = Digest::from_bytes(bytes);
        } else {
            let mut metadata = report.metadata.decode();
            metadata.loops.clear();
            report.metadata = metadata.pack();
        }
        let forged =
            Envelope::new(envelope.session, Message::Evidence(lofat::wire::EvidenceMsg { report }));
        let verdict = service.submit_evidence(&forged);
        assert_eq!(verdict.reason_code, code::BAD_SIGNATURE, "poison {i}: {verdict:?}");
    }
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses, stats.cache_evictions), (0, 0, 0));
    assert_eq!(service.live_sessions(), sessions, "no forgery spent a session");
    // Honest phase: the first spend is a miss (the cache is provably empty),
    // every later identical measurement hits.
    for envelope in &honest {
        assert!(service.submit_evidence(envelope).accepted);
    }
    let stats = service.stats();
    assert_eq!(stats.cache_misses, 1, "the poison phase stored nothing");
    assert_eq!(stats.cache_hits, sessions as u64 - 1);
    common::assert_stats_conserved(&stats, service.live_sessions());
}
