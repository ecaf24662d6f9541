//! E14 — the attestation protocol over real sockets.
//!
//! `lofat-net` is pure transport: putting the server (`EventLoopServer`, the
//! one `lofat serve` runs) and `ProverClient` between the prover and the
//! sharded `VerifierService` must change *no* byte of any challenge, no
//! verdict and no statistic relative to driving the same service
//! in-process.  Families of checks:
//!
//! * **Differential equivalence** — for every catalogue workload (honest
//!   traffic mixed with adversarial runs and forged signatures) and for every
//!   stock adversary class, the socket path produces byte-identical
//!   challenges, byte-identical verdict envelopes (phase 1 and a full replay
//!   phase 2) and an equal `ServiceStats` snapshot vs the in-process
//!   reference.
//! * **Concurrency** — several clients attesting at once through one server
//!   all succeed, and the books still balance, also while the loop holds
//!   1 000 idle connections beside them.  A server with both
//!   deadlines off (an empty deadline wheel, so its loop sleeps until woken)
//!   answers pipelined evidence on two connections: every verdict wakes the
//!   loop.
//! * **Hostile framing mid-session** — garbage frames, bad versions,
//!   oversized length prefixes and truncated frames are answered (or closed)
//!   without panicking, are counted through the same `record_verdict` path as
//!   typed rejections, and never consume the session they interrupted — the
//!   conservation law `opened == accepted + sessions_rejected + expired +
//!   live` holds over socket traffic.
//! * **Lifecycle** — expiry and session-request refusals surface the stable
//!   wire codes over the socket; graceful shutdown drains in-flight verdicts.
//!
//! * **Multiplexing** — N sessions interleaved over *one* connection (session
//!   requests up front, evidence pipelined) produce byte-identical verdicts
//!   and equal books vs N one-session connections.
//! * **Fan-out front** — partitioned servers behind a `FanOutFront` are
//!   byte-identical to one service, and a front past its connection cap
//!   leaves the next client waiting in the backlog until a slot frees.
//!
//! `E14_SESSIONS` overrides the per-workload session count (CI runs a debug
//! smoke pass and a full-scale release pass, mirroring e12/e13).  Each test
//! writes the server's event log under `target/e14/` (override with
//! `E14_LOG_DIR`) so CI can upload what the server saw on failure.

mod common;

use lofat::session::ProverSession;
use lofat::wire::{code, SessionId};
use lofat::{ServiceConfig, ServiceStats};
use lofat_fleet::SlotBehaviour;
use lofat_net::{ClientConfig, NetError, NetLimits, ProverClient};
use lofat_rv32::Program;
use lofat_workloads::{attack, catalog};
use std::sync::Arc;
use std::time::Duration;

fn sessions_per_workload() -> usize {
    std::env::var("E14_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(64).max(4)
}

/// Session `i`'s role in the deterministic traffic mix: honest (kinds 0–1),
/// the scenario's adversary (kind 2) or a flipped-authenticator forgery that
/// breaks the signature (kind 3).
fn evidence_kind(index: usize) -> usize {
    index % 4
}

struct Fleet {
    /// Encoded challenge envelope per session, as a fresh service issues them.
    challenges: Vec<Vec<u8>>,
    /// Encoded evidence envelope per session.
    evidence: Vec<Vec<u8>>,
    /// Session inputs, in open order.
    inputs: Vec<Vec<u32>>,
}

/// Pre-generates the fleet's traffic against a throwaway service through the
/// shared `lofat-fleet` session driver: nonces are deterministic, so the same
/// bytes answer every fresh service instance — including the one behind the
/// TCP server.
fn generate_fleet(
    name: &str,
    seed: &str,
    input_pool: &[Vec<u32>],
    mut adversary: impl FnMut(&Program) -> attack::Fault,
    sessions: usize,
) -> Fleet {
    let (program, service, mut prover) =
        common::workload_service(name, seed, input_pool, ServiceConfig::default());
    let slots = (0..sessions).map(|i| {
        let input = input_pool[i % input_pool.len()].clone();
        let behaviour = match evidence_kind(i) {
            2 => SlotBehaviour::Fault(adversary(&program)),
            3 => SlotBehaviour::Forge,
            _ => SlotBehaviour::Honest,
        };
        (input, behaviour)
    });
    let traffic = lofat_fleet::generate_traffic(&service, &mut prover, slots)
        .expect("pre-generate e14 traffic");
    let mut fleet = Fleet {
        challenges: Vec::with_capacity(sessions),
        evidence: Vec::with_capacity(sessions),
        inputs: Vec::with_capacity(sessions),
    };
    for slot in traffic {
        fleet.challenges.push(slot.challenge);
        fleet.evidence.push(slot.evidence);
        fleet.inputs.push(slot.input);
    }
    fleet
}

/// What one full drive of the fleet (phase 1 + full replay phase 2) produces.
struct RunResult {
    verdicts_p1: Vec<Vec<u8>>,
    verdicts_p2: Vec<Vec<u8>>,
    stats: ServiceStats,
    live: usize,
}

/// The in-process reference: same service configuration, no socket.
fn run_in_process(
    name: &str,
    seed: &str,
    fleet: &Fleet,
    input_pool: &[Vec<u32>],
    config: ServiceConfig,
) -> RunResult {
    let (_, service, _prover) = common::workload_service(name, seed, input_pool, config);
    for (i, input) in fleet.inputs.iter().enumerate() {
        let id = service.open_session(input.clone()).expect("capacity");
        let challenge = service.challenge_envelope(id).expect("challenge").encode().expect("enc");
        assert_eq!(challenge, fleet.challenges[i], "{name}: reference challenge {i} differs");
    }
    let drive = |bytes: &Vec<u8>| service.handle_bytes(bytes).expect("verdict encodes");
    let verdicts_p1: Vec<Vec<u8>> = fleet.evidence.iter().map(drive).collect();
    let verdicts_p2: Vec<Vec<u8>> = fleet.evidence.iter().map(drive).collect();
    let stats = service.stats();
    let live = service.live_sessions();
    common::assert_stats_conserved(&stats, live);
    RunResult { verdicts_p1, verdicts_p2, stats, live }
}

/// The same drive through a loopback server: challenges are requested over
/// the wire, evidence and replays are submitted as raw frames, verdict
/// envelope bytes come back off the wire.
fn run_over_socket(
    test: &str,
    name: &str,
    seed: &str,
    fleet: &Fleet,
    input_pool: &[Vec<u32>],
    config: ServiceConfig,
) -> RunResult {
    let (_, service, _prover) = common::workload_service_arc(name, seed, input_pool, config);
    let server = common::serve(Arc::clone(&service), common::net_server_config(test));
    let mut client = ProverClient::connect(server.local_addr()).expect("connect");
    for (i, input) in fleet.inputs.iter().enumerate() {
        let (challenge, bytes) =
            client.request_challenge(name, input.clone()).expect("challenge over the wire");
        assert_eq!(challenge.session, SessionId(i as u64 + 1));
        assert_eq!(
            bytes, fleet.challenges[i],
            "{name}: socket challenge {i} differs from the in-process bytes"
        );
    }
    let mut raw = client.raw();
    let mut drive = |bytes: &Vec<u8>| {
        raw.send(bytes).expect("submit evidence frame");
        raw.recv().expect("read verdict frame").expect("server answered")
    };
    let verdicts_p1: Vec<Vec<u8>> = fleet.evidence.iter().map(&mut drive).collect();
    let verdicts_p2: Vec<Vec<u8>> = fleet.evidence.iter().map(&mut drive).collect();
    drop(client);
    let stats = service.stats();
    let live = service.live_sessions();
    common::assert_stats_conserved(&stats, live);
    server.shutdown();
    RunResult { verdicts_p1, verdicts_p2, stats, live }
}

/// Socket path ≡ in-process path for one workload and adversary class.
fn differential(
    test: &str,
    name: &str,
    input_pool: &[Vec<u32>],
    adversary: impl Fn(&Program) -> attack::Fault,
) {
    let sessions = sessions_per_workload();
    let seed = format!("e14-{name}");
    let fleet = generate_fleet(name, &seed, input_pool, &adversary, sessions);
    let config = ServiceConfig::sharded(4);

    let reference = run_in_process(name, &seed, &fleet, input_pool, config);
    let socket = run_over_socket(test, name, &seed, &fleet, input_pool, config);

    for (i, (want, got)) in reference.verdicts_p1.iter().zip(&socket.verdicts_p1).enumerate() {
        assert_eq!(want, got, "{name}: phase-1 verdict bytes {i} diverge");
    }
    for (i, (want, got)) in reference.verdicts_p2.iter().zip(&socket.verdicts_p2).enumerate() {
        assert_eq!(want, got, "{name}: replay verdict bytes {i} diverge");
    }
    assert_eq!(reference.stats, socket.stats, "{name}: stats diverge");
    assert_eq!(reference.live, socket.live, "{name}: live sessions diverge");

    // Semantic floor on the (already byte-compared) socket verdicts:
    // honest sessions accepted, forged signatures named as such, replays
    // all blocked.
    for (i, bytes) in socket.verdicts_p1.iter().enumerate() {
        let verdict = common::decode_verdict(bytes);
        match evidence_kind(i) {
            0 | 1 => assert!(verdict.accepted, "{name}: honest session {i}: {verdict:?}"),
            3 => assert_eq!(
                verdict.reason_code,
                code::BAD_SIGNATURE,
                "{name}: forged session {i}: {verdict:?}"
            ),
            _ => {}
        }
    }
    for (i, bytes) in socket.verdicts_p2.iter().enumerate() {
        let verdict = common::decode_verdict(bytes);
        assert!(!verdict.accepted, "{name}: replay {i} accepted: {verdict:?}");
    }
}

// ---------------------------------------------------------------------------
// Differential equivalence: the whole workload catalogue
// ---------------------------------------------------------------------------

#[test]
fn differential_whole_catalogue_over_loopback() {
    for workload in catalog::all() {
        let program: Program = workload.program().expect("assemble");
        let input_addr = program.symbol("input").expect("workloads define `input`");
        differential(
            "differential_whole_catalogue_over_loopback",
            workload.name,
            std::slice::from_ref(&workload.default_input),
            move |_| attack::poke_at_instruction(2, input_addr, 1),
        );
    }
}

// ---------------------------------------------------------------------------
// Differential equivalence: every stock adversary class
// ---------------------------------------------------------------------------

#[test]
fn differential_stock_loop_counter_attack() {
    differential("differential_stock_loop_counter_attack", "syringe-pump", &[vec![3]], |program| {
        attack::loop_counter_attack(program.symbol("input").expect("input"), 50)
    });
}

#[test]
fn differential_stock_non_control_data_attack() {
    let inputs: Vec<Vec<u32>> = (1..=4u32).map(|k| vec![k]).collect();
    differential("differential_stock_non_control_data_attack", "fig4-loop", &inputs, |program| {
        attack::non_control_data_attack(program.symbol("input").expect("input"), 9)
    });
}

#[test]
fn differential_stock_code_pointer_attack() {
    differential(
        "differential_stock_code_pointer_attack",
        "dispatch",
        &[vec![0, 0, 2, 1]],
        |program| {
            attack::code_pointer_attack(
                program.symbol("table").expect("table"),
                0,
                program.symbol("op_clear").expect("op_clear"),
            )
        },
    );
}

#[test]
fn differential_stock_return_address_attack() {
    differential(
        "differential_stock_return_address_attack",
        "return-victim",
        &[vec![21]],
        |program| {
            attack::return_address_attack(
                program.symbol("process").expect("process") + 8,
                12,
                program.symbol("privileged").expect("privileged"),
            )
        },
    );
}

#[test]
fn differential_stock_data_only_attack() {
    // Pure data-oriented manipulation leaves control flow intact: accepted on
    // both paths, and identically so.
    differential("differential_stock_data_only_attack", "syringe-pump", &[vec![3]], |program| {
        attack::data_only_attack(program.symbol("motor_pulses").expect("pulses"), 9999)
    });
}

// ---------------------------------------------------------------------------
// Concurrency: several clients through one server
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_all_attest_and_the_books_balance() {
    let name = "fig4-loop";
    let seed = "e14-concurrent";
    let workload = catalog::by_name(name).unwrap();
    let inputs: Vec<Vec<u32>> = (1..=4u32).map(|k| vec![k]).collect();
    let clients = 4usize;
    let per_client = sessions_per_workload().clamp(4, 32);

    let (_, service, _) =
        common::workload_service_arc(name, seed, &inputs, ServiceConfig::sharded(4));
    let mut config = common::net_server_config("concurrent_clients");
    config.pool = lofat::pool::PoolConfig::with_workers(2);
    let server = common::serve(Arc::clone(&service), config);
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..clients {
            let inputs = &inputs;
            let workload = &workload;
            scope.spawn(move || {
                // Each client is its own device sharing the fleet key.
                let (_, mut prover, _) = common::workload_session(name, seed);
                let mut client = ProverClient::connect(addr).expect("connect");
                for s in 0..per_client {
                    let input = inputs[(c + s) % inputs.len()].clone();
                    let outcome =
                        client.attest(&mut prover, input.clone()).expect("attest over socket");
                    assert!(
                        outcome.verdict.accepted,
                        "client {c} session {s}: {:?}",
                        outcome.verdict
                    );
                    assert_eq!(
                        outcome.verdict.expected_result,
                        Some(workload.expected_result(&input)),
                        "client {c} session {s} leaked another session's result"
                    );
                }
            });
        }
    });

    let total = (clients * per_client) as u64;
    let stats = service.stats();
    assert_eq!(stats.sessions_opened, total);
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.rejected, 0);
    assert_eq!(service.live_sessions(), 0);
    common::assert_stats_conserved(&stats, 0);
    assert_eq!(server.connections_served(), clients as u64);
    // Every session cost exactly two frames (request + evidence).
    assert_eq!(server.frames_served(), 2 * total);
    server.shutdown();
}

/// The live check behind the event loop's connection-count claim: the loop
/// holds 1 000 idle connections (read deadline off, as for devices that
/// connect and wait) while 32 clients each attest over their own connection,
/// with all 1 032 open at once, and no thread per connection.  It checks
/// counts and verdicts, not timings.
#[test]
fn a_thousand_idle_connections_and_32_attesting_clients_share_one_loop() {
    const IDLE: usize = 1000;
    const ACTIVE: usize = 32;
    const ROUNDS: usize = 4;
    // Both ends of every loopback connection live in this process.
    const OPEN_FILES: u64 = 4096;
    let limit = lofat_net::raise_nofile_limit(OPEN_FILES);
    assert!(
        limit >= OPEN_FILES,
        "the host refused to raise the open-file limit to {OPEN_FILES}: it stays at {limit}"
    );

    let name = "fig4-loop";
    let seed = "e14-idle-connections";
    let workload = catalog::by_name(name).unwrap();
    let inputs: Vec<Vec<u32>> = (1..=4u32).map(|k| vec![k]).collect();
    let (_, service, _) =
        common::workload_service_arc(name, seed, &inputs, ServiceConfig::sharded(4));
    let mut config = common::net_server_config("idle_connections");
    config.max_connections = IDLE + ACTIVE;
    config.limits = NetLimits::server().with_read_timeout(None);
    config.pool = lofat::pool::PoolConfig::with_workers(2);
    let server = common::serve(Arc::clone(&service), config);
    let addr = server.local_addr();

    let await_connections = |want: usize| {
        let patience = std::time::Instant::now();
        while server.active_connections() < want && patience.elapsed() < Duration::from_secs(60) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_connections(), want, "the loop accepted every connection");
    };
    // The idle connections never send a byte; holding the streams keeps them open.
    let idle: Vec<std::net::TcpStream> = (0..IDLE)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect idle client"))
        .collect();
    await_connections(IDLE);
    let clients: Vec<ProverClient> =
        (0..ACTIVE).map(|_| ProverClient::connect(addr).expect("connect client")).collect();
    await_connections(IDLE + ACTIVE);

    std::thread::scope(|scope| {
        for (c, mut client) in clients.into_iter().enumerate() {
            let (inputs, workload) = (&inputs, &workload);
            scope.spawn(move || {
                let (_, mut prover, _) = common::workload_session(name, seed);
                for round in 0..ROUNDS {
                    let input = inputs[(c + round) % inputs.len()].clone();
                    let outcome = client
                        .attest(&mut prover, input.clone())
                        .unwrap_or_else(|e| panic!("client {c} round {round}: {e}"));
                    assert!(outcome.verdict.accepted, "client {c} round {round}");
                    assert_eq!(
                        outcome.verdict.expected_result,
                        Some(workload.expected_result(&input))
                    );
                }
            });
        }
    });

    let total = (ACTIVE * ROUNDS) as u64;
    let stats = service.stats();
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.rejected, 0);
    common::assert_stats_conserved(&stats, service.live_sessions());
    assert_eq!(server.connections_served(), (IDLE + ACTIVE) as u64);
    drop(idle);
    server.shutdown();
}

/// With both deadlines off, the server's deadline wheel stays empty and its
/// loop sleeps until something wakes it, with no 25 ms tick to fall back
/// on.  Every verdict must reach the wire through the wake-up the worker
/// sends when it files the verdict; a lost wake-up runs into the client's
/// read timeout.  Pipelined evidence comes first; the sequential rounds
/// after it each leave the loop asleep with only a verdict outstanding.
#[test]
fn a_loop_with_no_deadlines_is_woken_by_every_verdict() {
    let name = "fig4-loop";
    let seed = "e14-no-deadlines";
    let inputs: Vec<Vec<u32>> = (1..=4u32).map(|k| vec![k]).collect();
    let connections = 2usize;
    let per_connection = sessions_per_workload().clamp(4, 16);
    let rounds = 4usize;

    let (_, service, _) =
        common::workload_service_arc(name, seed, &inputs, ServiceConfig::sharded(2));
    let mut config = common::net_server_config("no_deadlines");
    config.limits = NetLimits::server().with_read_timeout(None).with_write_timeout(None);
    config.pool = lofat::pool::PoolConfig::with_workers(2);
    let server = common::serve(Arc::clone(&service), config);
    let addr = server.local_addr();
    let client_config = ClientConfig::with_limits(
        NetLimits::client().with_read_timeout(Some(Duration::from_secs(10))),
    );

    std::thread::scope(|scope| {
        for c in 0..connections {
            let (inputs, client_config) = (&inputs, client_config.clone());
            scope.spawn(move || {
                let (_, mut prover, _) = common::workload_session(name, seed);
                let mut client = ProverClient::connect_with(addr, client_config).expect("connect");
                // Open every session first, then pipeline all the evidence
                // before reading a single verdict.
                let evidence: Vec<Vec<u8>> = (0..per_connection)
                    .map(|s| {
                        let input = inputs[(c + s) % inputs.len()].clone();
                        let (challenge, _) =
                            client.request_challenge(name, input).expect("challenge");
                        let (envelope, _) =
                            ProverSession::new(&mut prover).respond(&challenge).expect("respond");
                        envelope.encode().expect("evidence encodes")
                    })
                    .collect();
                let mut raw = client.raw();
                for bytes in &evidence {
                    raw.send(bytes).expect("pipeline evidence frame");
                }
                for s in 0..per_connection {
                    let bytes = raw
                        .recv()
                        .unwrap_or_else(|e| panic!("connection {c} verdict {s}: {e}"))
                        .expect("server answered");
                    let verdict = common::decode_verdict(&bytes);
                    assert!(verdict.accepted, "connection {c} session {s}: {verdict:?}");
                }
                for round in 0..rounds {
                    let input = inputs[(c + round) % inputs.len()].clone();
                    let outcome = client
                        .attest(&mut prover, input)
                        .unwrap_or_else(|e| panic!("connection {c} round {round}: {e}"));
                    assert!(outcome.verdict.accepted, "connection {c} round {round}");
                }
            });
        }
    });

    let total = (connections * (per_connection + rounds)) as u64;
    let stats = service.stats();
    assert_eq!(stats.accepted, total);
    common::assert_stats_conserved(&stats, service.live_sessions());
    assert_eq!(server.frames_served(), 2 * total);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Hostile framing mid-session: counted, conserved, never session-consuming
// ---------------------------------------------------------------------------

#[test]
fn malformed_frames_mid_session_stay_on_the_books() {
    let name = "fig4-loop";
    let seed = "e14-malformed";
    let (_, service, mut prover) =
        common::workload_service_arc(name, seed, &[vec![4]], ServiceConfig::default());
    let server = common::serve(
        Arc::clone(&service),
        common::net_server_config("malformed_frames_mid_session"),
    );

    // A live session, mid-round-trip.
    let mut client = ProverClient::connect(server.local_addr()).expect("connect");
    let (challenge, _) = client.request_challenge(name, vec![4]).expect("challenge");
    assert_eq!(service.live_sessions(), 1);

    let (evidence, _) = ProverSession::new(&mut prover).respond(&challenge).expect("prover");
    let evidence_bytes = evidence.encode().unwrap();
    {
        let mut raw = client.raw();

        // ① Garbage bytes on the same connection: a MALFORMED verdict,
        // counted.
        raw.send(b"not an envelope").expect("send garbage");
        let verdict = common::decode_verdict(&raw.recv().unwrap().expect("answered"));
        assert_eq!(verdict.reason_code, code::MALFORMED);

        // ② A version from the future: UNSUPPORTED_VERSION, counted.
        let mut bumped = evidence_bytes.clone();
        bumped[4] = 0xff;
        raw.send(&bumped).expect("send bumped version");
        let verdict = common::decode_verdict(&raw.recv().unwrap().expect("answered"));
        assert_eq!(verdict.reason_code, code::UNSUPPORTED_VERSION);
    }

    // ③ A hostile length prefix on a fresh connection: the server answers
    // a MALFORMED verdict and closes (the stream cannot be
    // resynchronised).
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("hostile prefix");
        let reply = lofat_net::frame::read_frame(&mut raw, 1 << 20)
            .expect("server answers before closing")
            .expect("a verdict frame");
        assert_eq!(common::decode_verdict(&reply).reason_code, code::MALFORMED);
        let closed = lofat_net::frame::read_frame(&mut raw, 1 << 20).expect("clean close");
        assert_eq!(closed, None, "the connection is closed after a hostile prefix");
    }

    // ④ A truncated frame (slow-loris that gave up): counted once the
    // close is observed; there is nobody left to answer.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
        raw.write_all(&100u32.to_le_bytes()).expect("header");
        raw.write_all(b"abc").expect("partial body");
        drop(raw);
        // The handler notices the close asynchronously; wait for the
        // books.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while service.stats().wire_errors < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    // The interrupted session is still live and still answerable:
    // malformed bytes never consumed it.
    assert_eq!(service.live_sessions(), 1);
    let (_, verdict) = client.submit_evidence(&evidence_bytes).expect("honest completion");
    assert!(verdict.accepted, "{verdict:?}");

    // All four hostile inputs went through the shared `record_verdict`
    // path: counted as wire errors *and* rejections, spending no session —
    // so the conservation law holds over everything this socket saw.
    let stats = service.stats();
    assert_eq!(stats.wire_errors, 4, "{stats:?}");
    assert_eq!(stats.rejected, 4, "{stats:?}");
    assert_eq!(stats.rejections_by_code.get(&code::MALFORMED), Some(&3));
    assert_eq!(stats.rejections_by_code.get(&code::UNSUPPORTED_VERSION), Some(&1));
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.sessions_rejected, 0);
    assert_eq!(service.live_sessions(), 0);
    common::assert_stats_conserved(&stats, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Multiplexing: N sessions over one connection ≡ N one-session connections
// ---------------------------------------------------------------------------

#[test]
fn multiplexed_sessions_match_one_connection_per_session() {
    let name = "fig4-loop";
    let seed = "e14-multiplex";
    let inputs: Vec<Vec<u32>> = (1..=4u32).map(|k| vec![k]).collect();
    let sessions = sessions_per_workload().clamp(4, 32);
    let program = catalog::by_name(name).unwrap().program().expect("assemble");
    let input_addr = program.symbol("input").expect("input");
    let fleet = generate_fleet(
        name,
        seed,
        &inputs,
        |_| attack::poke_at_instruction(2, input_addr, 1),
        sessions,
    );

    // Run A: one connection multiplexes every session — requests up
    // front, then all evidence pipelined before the first verdict is
    // read.
    let (_, service_a, _) =
        common::workload_service_arc(name, seed, &inputs, ServiceConfig::sharded(4));
    let server_a = common::serve(Arc::clone(&service_a), common::net_server_config("multiplexed"));
    let mut client = ProverClient::connect(server_a.local_addr()).expect("connect");
    for (i, input) in fleet.inputs.iter().enumerate() {
        let (_, bytes) =
            client.request_challenge(name, input.clone()).expect("challenge over the wire");
        assert_eq!(
            bytes, fleet.challenges[i],
            "multiplexed challenge {i} differs from the reference bytes"
        );
    }
    let verdicts_a: Vec<Vec<u8>> = {
        let mut raw = client.raw();
        for bytes in &fleet.evidence {
            raw.send(bytes).expect("pipeline evidence frame");
        }
        (0..sessions)
            .map(|i| {
                raw.recv()
                    .unwrap_or_else(|e| panic!("pipelined verdict {i}: {e}"))
                    .expect("server answered")
            })
            .collect()
    };
    drop(client);
    let stats_a = service_a.stats();
    let live_a = service_a.live_sessions();
    common::assert_stats_conserved(&stats_a, live_a);
    assert_eq!(server_a.connections_served(), 1);
    server_a.shutdown();

    // Run B: the same traffic, one connection per session.
    let (_, service_b, _) =
        common::workload_service_arc(name, seed, &inputs, ServiceConfig::sharded(4));
    let server_b =
        common::serve(Arc::clone(&service_b), common::net_server_config("one_per_session"));
    let verdicts_b: Vec<Vec<u8>> = fleet
        .inputs
        .iter()
        .zip(&fleet.evidence)
        .enumerate()
        .map(|(i, (input, evidence))| {
            let mut client = ProverClient::connect(server_b.local_addr()).expect("connect");
            let (_, bytes) =
                client.request_challenge(name, input.clone()).expect("challenge over the wire");
            assert_eq!(
                bytes, fleet.challenges[i],
                "per-connection challenge {i} differs from the reference bytes"
            );
            let mut raw = client.raw();
            raw.send(evidence).expect("submit evidence frame");
            raw.recv().expect("read verdict frame").expect("server answered")
        })
        .collect();
    let stats_b = service_b.stats();
    let live_b = service_b.live_sessions();
    common::assert_stats_conserved(&stats_b, live_b);
    assert_eq!(server_b.connections_served(), sessions as u64);
    server_b.shutdown();

    // The contract: multiplexing is invisible to the protocol.  Byte-
    // identical verdicts in session order, equal books.
    for (i, (a, b)) in verdicts_a.iter().zip(&verdicts_b).enumerate() {
        assert_eq!(a, b, "verdict {i} differs between multiplexed and per-session connections");
    }
    assert_eq!(stats_a, stats_b, "books diverge between multiplexed and per-session connections");
    assert_eq!(live_a, live_b);

    // Semantic floor on the (already cross-checked) verdicts.
    for (i, bytes) in verdicts_a.iter().enumerate() {
        let verdict = common::decode_verdict(bytes);
        match evidence_kind(i) {
            0 | 1 => assert!(verdict.accepted, "honest session {i}: {verdict:?}"),
            3 => assert_eq!(
                verdict.reason_code,
                code::BAD_SIGNATURE,
                "forged session {i}: {verdict:?}"
            ),
            _ => {}
        }
    }
}

#[test]
fn multiplex_cap_refuses_extra_sessions_without_touching_the_books() {
    let name = "fig4-loop";
    let seed = "e14-multiplex-cap";
    let inputs: Vec<Vec<u32>> = (1..=3u32).map(|k| vec![k]).collect();
    let (_, service, mut prover) =
        common::workload_service_arc(name, seed, &inputs, ServiceConfig::default());
    let mut config = common::net_server_config("multiplex_cap");
    config.limits = config.limits.with_max_sessions_per_connection(2);
    let server = common::serve(Arc::clone(&service), config);

    // Three sessions opened over one connection (session requests are
    // exempt from the cap — only evidence claims a multiplex slot), with
    // matching evidence prepared for each.
    let mut client = ProverClient::connect(server.local_addr()).expect("connect");
    let evidence: Vec<Vec<u8>> = inputs
        .iter()
        .map(|input| {
            let (challenge, _) = client.request_challenge(name, input.clone()).expect("challenge");
            let (evidence, _) =
                ProverSession::new(&mut prover).respond(&challenge).expect("prover");
            evidence.encode().unwrap()
        })
        .collect();

    let mut raw = client.raw();
    for bytes in &evidence[..2] {
        raw.send(bytes).expect("submit evidence frame");
        let verdict = common::decode_verdict(&raw.recv().unwrap().expect("answered"));
        assert!(verdict.accepted, "within the cap: {verdict:?}");
    }

    // The third distinct session id on this connection is past the cap:
    // an AT_CAPACITY verdict addressed to that session, without the
    // frame ever reaching the service.
    raw.send(&evidence[2]).expect("submit evidence past the cap");
    let reply = raw.recv().unwrap().expect("refusal answered");
    let envelope = lofat::Envelope::decode(&reply).expect("refusal decodes");
    assert_eq!(envelope.session, SessionId(3), "refusal is addressed to the refused session");
    let verdict = common::decode_verdict(&reply);
    assert!(!verdict.accepted);
    assert_eq!(verdict.reason_code, code::AT_CAPACITY, "{verdict:?}");
    drop(client);

    // No counter moved for the refusal: the session is still live, and
    // a fresh connection (a fresh multiplex budget) completes it.
    assert_eq!(service.live_sessions(), 1);
    assert_eq!(service.stats().rejected, 0);
    let mut retry = ProverClient::connect(server.local_addr()).expect("reconnect");
    let (_, verdict) = retry.submit_evidence(&evidence[2]).expect("honest completion");
    assert!(verdict.accepted, "{verdict:?}");

    let stats = service.stats();
    assert_eq!(stats.sessions_opened, 3);
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.rejected, 0);
    common::assert_stats_conserved(&stats, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Lifecycle over the socket: expiry, refusals, graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn expiry_surfaces_the_stable_code_over_the_socket() {
    let name = "fig4-loop";
    let seed = "e14-expiry";
    let config = ServiceConfig { session_deadline_cycles: 100, ..ServiceConfig::default() };
    let (_, service, mut prover) = common::workload_service_arc(name, seed, &[vec![3]], config);
    let server =
        common::serve(Arc::clone(&service), common::net_server_config("expiry_over_socket"));
    let mut client = ProverClient::connect(server.local_addr()).expect("connect");

    let (challenge, _) = client.request_challenge(name, vec![3]).expect("challenge");
    let (evidence, _) = ProverSession::new(&mut prover).respond(&challenge).expect("prover");
    let evidence_bytes = evidence.encode().unwrap();

    service.advance_clock(101);
    let (_, verdict) = client.submit_evidence(&evidence_bytes).expect("late evidence");
    assert_eq!(verdict.reason_code, code::SESSION_EXPIRED, "{verdict:?}");
    // The nonce is spent; trying again is a replay, exactly as in-process.
    let (_, verdict) = client.submit_evidence(&evidence_bytes).expect("replay");
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "{verdict:?}");

    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    common::assert_stats_conserved(&stats, service.live_sessions());
    server.shutdown();
}

#[test]
fn session_request_refusals_carry_stable_codes() {
    let name = "fig4-loop";
    let seed = "e14-refusals";
    let config = ServiceConfig { max_live_sessions: 1, ..ServiceConfig::default() };
    let (_, service, _) = common::workload_service_arc(name, seed, &[vec![2]], config);
    let server =
        common::serve(Arc::clone(&service), common::net_server_config("session_request_refusals"));
    let mut client = ProverClient::connect(server.local_addr()).expect("connect");

    let wrong_program = client.request_challenge("someone-else", vec![2]).unwrap_err();
    assert!(
        matches!(&wrong_program, NetError::Refused { code, .. } if *code == code::PROGRAM_ID_MISMATCH),
        "{wrong_program:?}"
    );
    let unknown_input = client.request_challenge(name, vec![999]).unwrap_err();
    assert!(
        matches!(&unknown_input, NetError::Refused { code, .. } if *code == code::UNKNOWN_INPUT),
        "{unknown_input:?}"
    );
    client.request_challenge(name, vec![2]).expect("first session opens");
    let at_capacity = client.request_challenge(name, vec![2]).unwrap_err();
    assert!(
        matches!(&at_capacity, NetError::Refused { code, .. } if *code == code::AT_CAPACITY),
        "{at_capacity:?}"
    );

    // Refusals mirror the typed `open_session` errors: no counter moved,
    // so the one real session is all the books know about.
    let stats = service.stats();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.rejected, 0);
    common::assert_stats_conserved(&stats, 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_and_refuses_the_rest() {
    let name = "fig4-loop";
    let seed = "e14-shutdown";
    let (_, service, _) =
        common::workload_service_arc(name, seed, &[vec![2]], ServiceConfig::default());
    let server =
        common::serve(Arc::clone(&service), common::net_server_config("graceful_shutdown"));
    let addr = server.local_addr();

    // A full round trip, then the client goes idle without disconnecting.
    let (_, mut prover, _) = common::workload_session(name, seed);
    let mut client = ProverClient::connect(addr).expect("connect");
    let outcome = client.attest(&mut prover, vec![2]).expect("attest");
    assert!(outcome.verdict.accepted);

    // Shutdown must complete promptly despite the idle connection (the loop
    // stops reading and closes it) and must have delivered the in-flight
    // verdict above rather than dropping it.
    server.shutdown();
    assert_eq!(service.stats().accepted, 1);

    // The listener is gone: new round trips fail at connect or first
    // frame.
    let refused = ProverClient::connect(addr)
        .and_then(|mut late| late.request_challenge(name, vec![2]).map(|_| ()));
    assert!(refused.is_err(), "the server kept serving after shutdown");
}

// ---------------------------------------------------------------------------
// Multi-process deployment: a fan-out front over partitioned backends
// ---------------------------------------------------------------------------

/// N one-shard backends, each owning partition `p` of `N`, behind a stateless
/// [`lofat_net::FanOutFront`] must be indistinguishable from one service with
/// `N` shards: the front round-robins session requests so ids come out dense,
/// each backend derives the same counter-bound nonces on its stripes, and
/// evidence routes by session id.  Challenges, phase-1 verdicts and a full
/// replay phase 2 are compared byte for byte; the summed per-partition books
/// must equal the single service's snapshot *exactly*.
#[test]
fn partitioned_front_deployment_matches_a_single_service_byte_for_byte() {
    let name = "fig4-loop";
    let seed = "e14-front";
    let inputs: Vec<Vec<u32>> = (1..=4u32).map(|k| vec![k]).collect();
    let sessions = sessions_per_workload().clamp(6, 48);
    let program = catalog::by_name(name).unwrap().program().expect("assemble");
    let input_addr = program.symbol("input").expect("input");
    let fleet = generate_fleet(
        name,
        seed,
        &inputs,
        |_| attack::poke_at_instruction(2, input_addr, 1),
        sessions,
    );

    const PARTITIONS: u64 = 3;
    let reference =
        run_in_process(name, seed, &fleet, &inputs, ServiceConfig::sharded(PARTITIONS as usize));

    let mut services = Vec::new();
    let mut servers = Vec::new();
    let mut backends = Vec::new();
    for partition in 0..PARTITIONS {
        let config = ServiceConfig::sharded(1).partitioned(partition, PARTITIONS);
        let (_, service, _) = common::workload_service_arc(name, seed, &inputs, config);
        let server = common::serve(
            Arc::clone(&service),
            common::net_server_config(&format!("front_backend_{partition}")),
        );
        backends.push(server.local_addr());
        services.push(service);
        servers.push(server);
    }
    let front =
        lofat_net::FanOutFront::bind("127.0.0.1:0", backends, common::net_server_config("front"))
            .expect("bind front");

    let mut client = ProverClient::connect(front.local_addr()).expect("connect to the front");
    for (i, input) in fleet.inputs.iter().enumerate() {
        let (challenge, bytes) =
            client.request_challenge(name, input.clone()).expect("challenge through the front");
        assert_eq!(
            challenge.session,
            SessionId(i as u64 + 1),
            "the round-robin front must issue dense global session ids"
        );
        assert_eq!(
            bytes, fleet.challenges[i],
            "front challenge {i} differs from the single-service bytes"
        );
    }
    let verdicts_p1: Vec<Vec<u8>>;
    let verdicts_p2: Vec<Vec<u8>>;
    {
        let mut raw = client.raw();
        let mut drive = |bytes: &Vec<u8>| {
            raw.send(bytes).expect("submit evidence through the front");
            raw.recv().expect("read verdict").expect("backend answered")
        };
        verdicts_p1 = fleet.evidence.iter().map(&mut drive).collect();
        verdicts_p2 = fleet.evidence.iter().map(&mut drive).collect();
    }
    drop(client);

    for (i, (want, got)) in reference.verdicts_p1.iter().zip(&verdicts_p1).enumerate() {
        assert_eq!(want, got, "phase-1 verdict {i} diverges through the front");
    }
    for (i, (want, got)) in reference.verdicts_p2.iter().zip(&verdicts_p2).enumerate() {
        assert_eq!(want, got, "replay verdict {i} diverges through the front");
    }
    for (i, bytes) in verdicts_p2.iter().enumerate() {
        let verdict = common::decode_verdict(bytes);
        assert!(!verdict.accepted, "replay {i} accepted through the front: {verdict:?}");
    }

    // A cross-*session* replay within one congruence class: session 1's
    // spent evidence still carries session 1's id, routes back to partition
    // 0, and is refused as a replay — identically on both deployments.
    let cross = services[0].handle_bytes(&fleet.evidence[0]).expect("cross replay encodes");
    assert_eq!(
        common::decode_verdict(&cross).reason_code,
        code::NONCE_REPLAYED,
        "a spent nonce must stay spent on its owning partition"
    );
    let cross_reference = {
        let (_, service, _) = common::workload_service(
            name,
            seed,
            &inputs,
            ServiceConfig::sharded(PARTITIONS as usize),
        );
        for input in &fleet.inputs {
            service.open_session(input.clone()).expect("capacity");
        }
        for evidence in &fleet.evidence {
            service.handle_bytes(evidence).expect("verdict encodes");
        }
        for evidence in &fleet.evidence {
            service.handle_bytes(evidence).expect("verdict encodes");
        }
        service.handle_bytes(&fleet.evidence[0]).expect("cross replay encodes")
    };
    assert_eq!(cross, cross_reference, "cross-session replay verdict bytes diverge");

    // The deployment's books are the sum of the partitions' — and the sum
    // (minus the one extra cross-replay above) must equal the single
    // service's snapshot exactly.
    let mut stats = ServiceStats::default();
    let mut live = 0usize;
    for service in &services {
        stats.absorb(&service.stats());
        live += service.live_sessions();
    }
    common::assert_stats_conserved(&stats, live);
    stats.replays_blocked -= 1;
    stats.rejected -= 1;
    if let Some(count) = stats.rejections_by_code.get_mut(&code::NONCE_REPLAYED) {
        *count -= 1;
    }
    assert_eq!(reference.stats, stats, "summed partition books diverge from the single service");
    assert_eq!(reference.live, live, "live sessions diverge");

    front.shutdown();
    for server in servers {
        server.shutdown();
    }
}

/// The front bounds its relay threads by `max_connections`: past the cap a
/// client waits in the kernel backlog — connected, but unanswered — until a
/// served client leaves, and is then served normally.
#[test]
fn front_holds_clients_past_its_connection_cap_in_the_backlog() {
    let name = "fig4-loop";
    let seed = "e14-front-cap";
    let (_, service, _) =
        common::workload_service_arc(name, seed, &[vec![2]], ServiceConfig::default());
    let backend =
        common::serve(Arc::clone(&service), common::net_server_config("front_cap_backend"));
    let mut config = common::net_server_config("front_cap");
    config.max_connections = 2;
    let front = lofat_net::FanOutFront::bind("127.0.0.1:0", vec![backend.local_addr()], config)
        .expect("bind front");

    // Two clients are served, then hold their connections open.
    let mut held: Vec<ProverClient> = (1..=2u64)
        .map(|i| {
            let mut client = ProverClient::connect(front.local_addr()).expect("connect");
            let (challenge, _) = client.request_challenge(name, vec![2]).expect("challenge");
            assert_eq!(challenge.session, SessionId(i));
            client
        })
        .collect();

    // A third client connects (the kernel completes the handshake), but its
    // session request gets no reply while both relays are live.
    let third = ProverClient::connect(front.local_addr()).expect("connect past the cap");
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let mut third = third;
        reply_tx.send(third.request_challenge(name, vec![2])).expect("report the reply");
    });
    let waited = std::time::Duration::from_millis(300);
    assert!(reply_rx.recv_timeout(waited).is_err(), "the front answered past its cap");
    assert_eq!(front.connections_served(), 2);
    assert_eq!(service.stats().sessions_opened, 2);

    // One held client leaves: its slot frees, and the waiting request is
    // answered with its normal challenge.
    drop(held.pop());
    let reply = reply_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("served");
    let (challenge, _) = reply.expect("challenge past the cap");
    assert_eq!(challenge.session, SessionId(3));
    assert_eq!(front.connections_served(), 3);
    waiter.join().expect("waiter");

    drop(held);
    front.shutdown();
    backend.shutdown();
    assert_eq!(service.stats().sessions_opened, 3);
}
