//! E13 — sharded, multi-threaded `VerifierService` + `ParallelVerifier`
//! differential suite.
//!
//! The hard invariant of the concurrency layer is that it adds **no**
//! semantics: shard count, worker count and batching must never change any
//! verdict, authenticator byte or statistics total relative to the
//! single-threaded 1-shard service.  Four families of checks:
//!
//! * **Differential equivalence** — for a representative workload slice
//!   (honest traffic mixed with every stock adversary class and forged
//!   signatures, plus a full replay pass), every tested configuration —
//!   (shards × workers), and batched `handle_bytes_batch` calls — produces,
//!   per session, the byte-for-byte identical challenge and the identical
//!   `VerdictMsg` as the reference configuration, and the final
//!   `ServiceStats` snapshots are equal.
//! * **Forgeries** — evidence whose authenticator or loop metadata was
//!   changed after signing draws `BAD_SIGNATURE` and leaves its session live
//!   for the honest evidence that follows.
//! * **Expiry** — clock-driven expiry and capacity sweeps behave identically
//!   across shard counts, and a sweep after concurrent opens on a moving
//!   clock expires exactly the sessions due before it.
//! * **Replay hammering** — many threads replaying the same evidence at one
//!   shard win exactly one acceptance per nonce (the sharded replay check is
//!   race-free).
//!
//! `E13_SESSIONS` overrides the per-workload session count and `E13_THREADS`
//! the maximum worker/thread count (CI runs a small debug smoke pass and a
//! full-scale release pass, mirroring `E12_SESSIONS`).

mod common;

use lofat::pool::{ParallelVerifier, PoolConfig, VerdictReply};
use lofat::session::ProverSession;
use lofat::wire::{code, Envelope, Message, SessionId, VerdictMsg};
use lofat::{Prover, ServiceConfig, ServiceStats, VerifierService};
use lofat_crypto::Digest;
use lofat_rv32::Program;
use lofat_workloads::attack;
use std::sync::{mpsc, Arc, Mutex};

fn sessions_per_workload() -> usize {
    std::env::var("E13_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(240)
}

fn max_threads() -> usize {
    std::env::var("E13_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4).max(1)
}

/// How a configuration submits its traffic.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `handle_bytes`, one request at a time, on the caller thread.
    Sequential,
    /// `handle_bytes_batch`, eight requests per call, on the caller thread.
    Batched,
    /// A [`ParallelVerifier`] pool with this many workers.
    Pool(usize),
}

/// The (shards, drive) grid every differential scenario runs on, relative
/// to the reference configuration (1 shard, sequential).
fn configurations() -> Vec<(usize, Drive)> {
    let t = max_threads();
    vec![
        (1, Drive::Pool(t)),
        (1, Drive::Batched),
        (2, Drive::Sequential),
        (3, Drive::Pool(1)),
        (4, Drive::Pool(2.min(t))),
        (8, Drive::Pool(t)),
    ]
}

/// One deterministic scenario mix for a workload: session `i` is honest
/// (kinds 0 and 1), runs under the workload's stock adversary (kind 2), or
/// answers with a flipped-authenticator forgery (kind 3 — breaks the
/// signature without touching the execution).
fn evidence_kind(index: usize) -> usize {
    index % 4
}

struct Fleet {
    /// Encoded challenge envelope per session, as issued by a fresh service.
    challenges: Vec<Vec<u8>>,
    /// Encoded evidence envelope per session (the phase-1 submission).
    evidence: Vec<Vec<u8>>,
    /// The session inputs, in open order.
    inputs: Vec<Vec<u32>>,
}

/// Pre-generates the whole fleet's traffic against a throwaway service
/// (deterministic nonces mean the same bytes answer every fresh instance).
fn generate_fleet(
    name: &str,
    seed: &str,
    input_pool: &[Vec<u32>],
    mut adversary: impl FnMut(&Program) -> attack::Fault,
    sessions: usize,
) -> Fleet {
    // The generator service only issues challenges; evidence comes from the
    // matched prover.
    let (program, service, mut prover) =
        common::workload_service(name, seed, input_pool, ServiceConfig::default());
    let prover: &mut Prover = &mut prover;
    let mut challenges = Vec::with_capacity(sessions);
    let mut evidence = Vec::with_capacity(sessions);
    let mut inputs = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let input = input_pool[i % input_pool.len()].clone();
        let id = service.open_session(input.clone()).expect("generator capacity");
        assert_eq!(id, SessionId(i as u64 + 1), "ids are dense in open order");
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
        challenges.push(challenge);
        evidence.push(envelope);
        inputs.push(input);
    }
    Fleet { challenges, evidence, inputs }
}

/// Submits `submissions` (in deterministic per-index association) and returns
/// the decoded verdict per index.  A pool is fed by two producer threads.
fn drive(service: &Arc<VerifierService>, how: Drive, submissions: &[Vec<u8>]) -> Vec<VerdictMsg> {
    let workers = match how {
        Drive::Sequential => {
            return submissions
                .iter()
                .map(|bytes| common::decode_verdict(&service.handle_bytes(bytes).expect("encodes")))
                .collect()
        }
        Drive::Batched => {
            return submissions
                .chunks(8)
                .flat_map(|chunk| service.handle_bytes_batch(chunk))
                .map(|reply| common::decode_verdict(&reply.expect("encodes")))
                .collect()
        }
        Drive::Pool(workers) => workers,
    };
    let pool = ParallelVerifier::spawn(
        Arc::clone(service),
        PoolConfig { workers, queue_capacity: 64, drain_burst: 8 },
    );
    let verdicts: Mutex<Vec<Option<VerdictMsg>>> = Mutex::new(vec![None; submissions.len()]);
    let producers = 2;
    std::thread::scope(|scope| {
        for producer in 0..producers {
            let pool = &pool;
            let verdicts = &verdicts;
            scope.spawn(move || {
                let mine: Vec<(usize, Vec<u8>)> = submissions
                    .iter()
                    .enumerate()
                    .skip(producer)
                    .step_by(producers)
                    .map(|(i, b)| (i, b.clone()))
                    .collect();
                for chunk in mine.chunks(8) {
                    // The chunk's replies come back on its own channel, which
                    // closes once every reply has run.
                    let (tx, rx) = mpsc::channel();
                    pool.submit_batch(chunk.iter().map(|(index, bytes)| {
                        let (tx, index) = (tx.clone(), *index);
                        (bytes.clone(), move |reply: VerdictReply| {
                            let _ = tx.send((index, reply));
                        })
                    }));
                    drop(tx);
                    for (index, reply) in rx {
                        let verdict = common::decode_verdict(&reply.reply.expect("encodes"));
                        verdicts.lock().unwrap()[index] = Some(verdict);
                    }
                }
            });
        }
    });
    pool.join();
    verdicts
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|v| v.expect("every submission got a verdict"))
        .collect()
}

/// Drives one configuration through the fleet's phase-1 traffic plus a full
/// phase-2 replay pass and returns (phase-1 verdicts, phase-2 verdicts,
/// stats, live sessions).
fn run_configuration(
    name: &str,
    seed: &str,
    fleet: &Fleet,
    input_pool: &[Vec<u32>],
    shards: usize,
    how: Drive,
) -> (Vec<VerdictMsg>, Vec<VerdictMsg>, ServiceStats, usize) {
    let (_, service, _prover) =
        common::workload_service(name, seed, input_pool, ServiceConfig::sharded(shards));
    let service = Arc::new(service);
    for (i, input) in fleet.inputs.iter().enumerate() {
        let id = service.open_session(input.clone()).expect("capacity");
        assert_eq!(id, SessionId(i as u64 + 1), "{shards} shards: ids allocated in open order");
        // Shard count must not leak into the wire: challenges are
        // byte-identical to the reference generator's.
        let challenge = service.challenge_envelope(id).expect("challenge").encode().expect("enc");
        assert_eq!(
            challenge, fleet.challenges[i],
            "{name}: challenge bytes differ at session {i} with {shards} shards"
        );
    }
    // Phase 1: every session's evidence exactly once.  Phase 2: replay the
    // whole fleet (honest and adversarial alike) — spent nonces must bounce,
    // unauthenticated forgeries must fail identically without spending the
    // still-live sessions they address.
    let phase1 = drive(&service, how, &fleet.evidence);
    let phase2 = drive(&service, how, &fleet.evidence);
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
    let seed = format!("e13-{name}");
    let fleet = generate_fleet(name, &seed, input_pool, &adversary, sessions);

    let (ref_p1, ref_p2, ref_stats, ref_live) =
        run_configuration(name, &seed, &fleet, input_pool, 1, Drive::Sequential);

    // Sanity on the reference itself: honest kinds accepted, forged
    // signatures rejected without acceptance, replays all blocked.
    for (i, verdict) in ref_p1.iter().enumerate() {
        match evidence_kind(i) {
            0 | 1 => assert!(verdict.accepted, "{name}: honest session {i}: {verdict:?}"),
            3 => assert_eq!(
                verdict.reason_code,
                code::BAD_SIGNATURE,
                "{name}: forged session {i}: {verdict:?}"
            ),
            _ => assert!(!verdict.accepted, "{name}: adversarial session {i}: {verdict:?}"),
        }
    }
    for (i, verdict) in ref_p2.iter().enumerate() {
        assert!(!verdict.accepted, "{name}: replay {i} accepted: {verdict:?}");
    }

    for (shards, how) in configurations() {
        let (p1, p2, stats, live) = run_configuration(name, &seed, &fleet, input_pool, shards, how);
        for (i, (reference, got)) in ref_p1.iter().zip(&p1).enumerate() {
            assert_eq!(reference, got, "{name}: phase-1 verdict {i} diverges at {shards}/{how:?}");
        }
        for (i, (reference, got)) in ref_p2.iter().zip(&p2).enumerate() {
            assert_eq!(reference, got, "{name}: replay verdict {i} diverges at {shards}/{how:?}");
        }
        assert_eq!(ref_stats, stats, "{name}: stats diverge at {shards} shards / {how:?}");
        assert_eq!(ref_live, live, "{name}: live sessions diverge at {shards} shards / {how:?}");
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

#[test]
fn differential_generic_poke_fault_is_config_invariant() {
    differential_for_workload("fig4-loop", &[vec![4], vec![5]], |program| {
        attack::poke_at_instruction(2, program.symbol("input").expect("input symbol"), 1)
    });
}

// ---------------------------------------------------------------------------
// Forgeries: a changed signed field is refused and spends nothing
// ---------------------------------------------------------------------------

/// Every live session first receives its own evidence with one signed field
/// changed after signing — the authenticator `A` for even sessions, the loop
/// metadata `L` for odd ones — and then its honest evidence.  Each forgery
/// draws `BAD_SIGNATURE` and leaves its session live; each honest answer
/// that follows is accepted.
#[test]
fn forged_authenticators_and_metadata_leave_their_sessions_live() {
    let sessions = sessions_per_workload().clamp(8, 64);
    let (_, service, mut prover) =
        common::workload_service("fig4-loop", "e13-forgery", &[vec![2]], ServiceConfig::default());
    let mut honest = Vec::new();
    for _ in 0..sessions {
        let id = service.open_session(vec![2]).expect("capacity");
        let challenge = service.challenge_envelope(id).expect("challenge");
        let (envelope, _run) =
            ProverSession::new(&mut prover).respond(&challenge).expect("prover runs");
        honest.push(envelope);
    }
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
        assert_eq!(verdict.reason_code, code::BAD_SIGNATURE, "forgery {i}: {verdict:?}");
        let live = service.challenge_envelope(envelope.session).is_ok();
        assert!(live, "forgery {i} spent its session");
    }
    assert_eq!(service.live_sessions(), sessions, "no forgery spent a session");
    for (i, envelope) in honest.iter().enumerate() {
        let verdict = service.submit_evidence(envelope);
        assert!(verdict.accepted, "honest evidence {i} after its forgery: {verdict:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.accepted, sessions as u64);
    assert_eq!(stats.rejections_by_code.get(&code::BAD_SIGNATURE), Some(&(sessions as u64)));
    common::assert_stats_conserved(&stats, service.live_sessions());
    assert_eq!(service.live_sessions(), 0);
}

// ---------------------------------------------------------------------------
// Expiry and capacity sweeps across shard counts
// ---------------------------------------------------------------------------

#[test]
fn expiry_and_sweep_agree_across_shard_counts() {
    let sessions = sessions_per_workload().clamp(8, 64);
    let mut reference: Option<(Vec<VerdictMsg>, ServiceStats)> = None;
    for shards in [1usize, 3, 8] {
        let config = ServiceConfig { session_deadline_cycles: 100, shards, ..Default::default() };
        let (_, service, mut prover) =
            common::workload_service("fig4-loop", "e13-expiry", &[vec![2]], config);
        let mut evidence = Vec::new();
        for _ in 0..sessions {
            let id = service.open_session(vec![2]).unwrap();
            let challenge = service.challenge_envelope(id).unwrap().encode().unwrap();
            evidence.push(ProverSession::new(&mut prover).handle_bytes(&challenge).unwrap());
        }
        // Half the sessions expire on the clock before their evidence lands.
        service.advance_clock(101);
        let swept = service.expire_stale();
        assert_eq!(swept, sessions, "{shards} shards: all sessions were stale");
        // Late evidence now bounces as replays (the nonces are spent).
        let verdicts: Vec<VerdictMsg> = evidence
            .iter()
            .map(|bytes| common::decode_verdict(&service.handle_bytes(bytes).unwrap()))
            .collect();
        for verdict in &verdicts {
            assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "{verdict:?}");
        }
        let stats = service.stats();
        common::assert_stats_conserved(&stats, service.live_sessions());
        assert_eq!(stats.expired, sessions as u64);
        match &reference {
            None => reference = Some((verdicts, stats)),
            Some((ref_verdicts, ref_stats)) => {
                assert_eq!(ref_verdicts, &verdicts, "{shards} shards: verdicts diverge");
                assert_eq!(ref_stats, &stats, "{shards} shards: stats diverge");
            }
        }
    }
}

/// Four threads open sessions on a 4-shard service while a fifth advances
/// the clock one cycle at a time, so concurrent opens draw interleaved
/// deadlines.  Every shard's deadlines still rise with its session ids,
/// because each open reads the clock under its shard's lock, and so a sweep
/// at a clock inside their range, which stops at each shard's first session
/// still on time, expires exactly the sessions due before it.
#[test]
fn concurrent_opens_keep_the_sweep_exact() {
    // In each round the clock ticks as many cycles as each opener opens
    // sessions, so rounds draw rising deadlines whatever the scheduling.
    const ROUNDS: usize = 16;
    let per_round = (sessions_per_workload() / ROUNDS).max(4);
    let config = ServiceConfig { shards: 4, ..ServiceConfig::default() };
    let (_, service, _) = common::workload_service("fig4-loop", "e13-sweep", &[vec![2]], config);
    let round = std::sync::Barrier::new(5);
    let ids: Vec<SessionId> = std::thread::scope(|scope| {
        let openers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut ids = Vec::new();
                    for _ in 0..ROUNDS {
                        round.wait();
                        ids.extend((0..per_round).map(|_| service.open_session(vec![2]).unwrap()));
                    }
                    ids
                })
            })
            .collect();
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                round.wait();
                (0..per_round).for_each(|_| service.advance_clock(1));
            }
        });
        openers.into_iter().flat_map(|opener| opener.join().unwrap()).collect()
    });
    let deadlines: Vec<u64> = ids
        .iter()
        .map(|id| match service.challenge_envelope(*id).expect("live").message {
            Message::Challenge(challenge) => challenge.deadline_cycles,
            other => panic!("expected a challenge, got {}", other.kind()),
        })
        .collect();
    // Session `n` is slot `(n - 1) / 4` of shard `(n - 1) % 4`: within each
    // shard, deadlines never fall as the ids rise.
    let mut by_id: Vec<(SessionId, u64)> = ids.iter().copied().zip(deadlines.clone()).collect();
    by_id.sort_unstable();
    for shard in 0..4 {
        let shard_deadlines = by_id.iter().filter(|(id, _)| (id.0 - 1) % 4 == shard);
        let deadlines: Vec<u64> = shard_deadlines.map(|(_, deadline)| *deadline).collect();
        let fall = deadlines.windows(2).position(|pair| pair[0] > pair[1]);
        assert_eq!(fall, None, "shard {shard}: the deadline after this slot falls");
    }
    let mut sorted = deadlines.clone();
    sorted.sort_unstable();
    // At most two rounds share the earliest deadline, so the median is later.
    let sweep_at = sorted[sorted.len() / 2];
    service.advance_clock(sweep_at - service.now_cycles());

    let due = deadlines.iter().filter(|&&deadline| deadline < sweep_at).count();
    assert!(due > 0 && due < ids.len(), "{due} of {} sessions due", ids.len());
    assert_eq!(service.expire_stale(), due, "the sweep at {sweep_at}");
    for (id, deadline) in ids.iter().zip(&deadlines) {
        let answer = service.challenge_envelope(*id);
        if *deadline < sweep_at {
            assert!(
                matches!(answer, Err(lofat::ServiceError::UnknownSession(unknown)) if unknown == *id),
                "{id}, due at {deadline}, survived the sweep at {sweep_at}"
            );
        } else {
            assert!(answer.is_ok(), "{id}, due at {deadline}, was swept at {sweep_at}");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.expired, due as u64);
    assert_eq!(service.live_sessions(), ids.len() - due);
    common::assert_stats_conserved(&stats, service.live_sessions());
}

// ---------------------------------------------------------------------------
// Replay hammering: one shard, many threads, one acceptance per nonce
// ---------------------------------------------------------------------------

#[test]
fn replay_hammer_accepts_each_nonce_exactly_once() {
    let nonces = sessions_per_workload().clamp(4, 32);
    let threads = (max_threads() * 2).max(4);
    let (_, service, mut prover) = common::workload_service(
        "fig4-loop",
        "e13-hammer",
        &[vec![3]],
        // One shard: every session (and every replay) contends on the same
        // lock — the worst case for the exactly-once guarantee.
        ServiceConfig::sharded(1),
    );
    let mut evidence = Vec::with_capacity(nonces);
    for _ in 0..nonces {
        let id = service.open_session(vec![3]).unwrap();
        let challenge = service.challenge_envelope(id).unwrap().encode().unwrap();
        evidence.push(ProverSession::new(&mut prover).handle_bytes(&challenge).unwrap());
    }
    let service = Arc::new(service);
    // Every thread submits *every* evidence envelope, in a thread-specific
    // rotation so the contention pattern differs per thread.
    let acceptances: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let service = Arc::clone(&service);
                let evidence = &evidence;
                scope.spawn(move || {
                    let mut accepted = vec![0u64; evidence.len()];
                    for offset in 0..evidence.len() {
                        let index = (offset + t * 7) % evidence.len();
                        let verdict = common::decode_verdict(
                            &service.handle_bytes(&evidence[index]).unwrap(),
                        );
                        if verdict.accepted {
                            accepted[index] += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let mut totals = vec![0u64; nonces];
        for handle in handles {
            for (total, wins) in totals.iter_mut().zip(handle.join().unwrap()) {
                *total += wins;
            }
        }
        totals
    });
    for (index, wins) in acceptances.iter().enumerate() {
        assert_eq!(*wins, 1, "nonce {index} must be accepted exactly once, saw {wins}");
    }
    let stats = service.stats();
    assert_eq!(stats.accepted, nonces as u64);
    assert_eq!(
        stats.replays_blocked,
        (threads as u64 - 1) * nonces as u64,
        "every losing submission is a blocked replay"
    );
    common::assert_stats_conserved(&stats, service.live_sessions());
    assert_eq!(service.live_sessions(), 0);
}
