//! E16 — repeated-measurement differential suite.
//!
//! The suite keeps the file and test names it had while the service carried
//! a verdict cache that memoised repeated measurements.  That cache is gone:
//! every evidence envelope takes one path — absorb the signed prefix and the
//! nonce, finalize the MAC, check the measurement database, spend the
//! session — whether or not the service has judged the same measurement
//! before.  Each fleet repeats a few measurements over [`SESSIONS`]
//! sessions, mixed with the workload's stock adversary, forged signatures
//! and a full replay phase, and the suite checks that repetition changes
//! nothing:
//!
//! * **Repeats decide like first sightings** — in phase 1, every session
//!   with the same input and traffic class draws the same verdict.
//! * **Byte-for-byte drive and shard invariance** — a batched
//!   (`handle_bytes_batch`) and a 4-shard service reproduce the reply
//!   envelopes of the sequential 1-shard reference exactly, in phase 1 and
//!   in the replay phase, with equal `ServiceStats` and live sessions.
//! * **The kept hit/miss counters** — after every reply of every run,
//!   `cache_hits` reads 0 and `cache_misses` reads
//!   `accepted + sessions_rejected`.

mod common;

use lofat::session::ProverSession;
use lofat::wire::{code, Envelope, Message, SessionId};
use lofat::{Prover, ServiceConfig, ServiceStats, VerdictMsg, VerifierService};
use lofat_crypto::Digest;
use lofat_rv32::Program;
use lofat_workloads::attack;
use std::collections::HashMap;

/// Sessions per workload fleet.
const SESSIONS: usize = 96;

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
) -> Fleet {
    let (program, service, mut prover) =
        common::workload_service(name, seed, input_pool, ServiceConfig::default());
    let prover: &mut Prover = &mut prover;
    let mut fleet = Fleet { evidence: Vec::with_capacity(SESSIONS), inputs: Vec::new() };
    for i in 0..SESSIONS {
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

/// Asserts the two counters kept for readers of a hit ratio: no hits, and
/// one miss per session-spending verdict.
fn assert_hit_miss_counters(stats: &ServiceStats) {
    assert_eq!(stats.cache_hits, 0, "{stats:?}");
    assert_eq!(stats.cache_misses, stats.accepted + stats.sessions_rejected, "{stats:?}");
}

/// Builds a fresh service, opens the fleet's sessions, and drives phase 1
/// plus a full replay phase, reading the books after every reply (every
/// batch when batched).  `batch` routes every submission chunk through
/// [`VerifierService::handle_bytes_batch`]; otherwise each request goes
/// through `handle_bytes` individually.
fn run(
    name: &str,
    seed: &str,
    fleet: &Fleet,
    input_pool: &[Vec<u32>],
    config: ServiceConfig,
    batch: bool,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, ServiceStats, usize) {
    let (_, service, _prover) = common::workload_service(name, seed, input_pool, config);
    for (i, input) in fleet.inputs.iter().enumerate() {
        let id = service.open_session(input.clone()).expect("capacity");
        assert_eq!(id, SessionId(i as u64 + 1));
    }
    let drive = |service: &VerifierService| -> Vec<Vec<u8>> {
        let mut replies = Vec::with_capacity(fleet.evidence.len());
        for chunk in fleet.evidence.chunks(if batch { 8 } else { 1 }) {
            if batch {
                replies.extend(
                    service
                        .handle_bytes_batch(chunk)
                        .into_iter()
                        .map(|reply| reply.expect("verdict encodes")),
                );
            } else {
                replies.push(service.handle_bytes(&chunk[0]).expect("verdict encodes"));
            }
            assert_hit_miss_counters(&service.stats());
        }
        replies
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
    let seed = format!("e16-{name}");
    let fleet = generate_fleet(name, &seed, input_pool, &adversary);

    let (ref_p1, ref_p2, ref_stats, ref_live) =
        run(name, &seed, &fleet, input_pool, ServiceConfig::default(), false);

    // Sanity on the reference itself, and every repeat of a (measurement,
    // traffic class) pair decided like its first sighting.
    let mut first_sightings: HashMap<(&[u32], usize), VerdictMsg> = HashMap::new();
    for (i, bytes) in ref_p1.iter().enumerate() {
        let verdict = common::decode_verdict(bytes);
        match evidence_kind(i) {
            0 | 1 => assert!(verdict.accepted, "{name}: honest session {i}: {verdict:?}"),
            3 => assert_eq!(verdict.reason_code, code::BAD_SIGNATURE, "{name}: session {i}"),
            _ => assert!(!verdict.accepted, "{name}: adversarial session {i}: {verdict:?}"),
        }
        let first = first_sightings
            .entry((fleet.inputs[i].as_slice(), evidence_kind(i)))
            .or_insert_with(|| verdict.clone());
        assert_eq!(*first, verdict, "{name}: session {i} decided unlike its first sighting");
    }
    assert!(first_sightings.len() < SESSIONS, "{name}: the fleet repeats no measurement");
    for bytes in &ref_p2 {
        assert!(!common::decode_verdict(bytes).accepted, "{name}: replay accepted");
    }

    // Batched and sharded runs must reproduce the reference bytes exactly.
    let scenarios = [
        ("batched", ServiceConfig::default(), true),
        ("sharded", ServiceConfig::sharded(4), false),
    ];
    for (label, config, batch) in scenarios {
        let (p1, p2, stats, live) = run(name, &seed, &fleet, input_pool, config, batch);
        for (i, (want, got)) in ref_p1.iter().zip(&p1).enumerate() {
            assert_eq!(want, got, "{name}/{label}: phase-1 reply {i} diverges from sequential");
        }
        for (i, (want, got)) in ref_p2.iter().zip(&p2).enumerate() {
            assert_eq!(want, got, "{name}/{label}: replay reply {i} diverges from sequential");
        }
        assert_eq!(ref_stats, stats, "{name}/{label}: stats diverge");
        assert_eq!(ref_live, live, "{name}/{label}: live sessions diverge");
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
