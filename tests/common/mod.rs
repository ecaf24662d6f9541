//! Shared helpers for the per-experiment integration tests.
//!
//! Two families of helpers keep the nine `e1`–`e9` suites free of boilerplate:
//!
//! * **program loading / raw runs** — [`cpu_with_input`], [`run_plain`],
//!   [`run_attested`], [`attest_workload`] follow the workload calling
//!   convention (an `input` buffer plus optional `input_len` symbol);
//! * **attestation sessions** — [`attestation_session`], [`workload_session`]
//!   and [`attest_and_verify`] build matched prover/verifier pairs sharing a
//!   seed-derived device key and (optionally) drive the full
//!   challenge→attest→verify protocol.

#![allow(dead_code)]

use lofat::protocol::ProtocolOutcome;
use lofat::{
    EngineConfig, LofatEngine, Measurement, MeasurementDatabase, Prover, ServiceConfig,
    ServiceStats, Verifier, VerifierService,
};
use lofat_crypto::DeviceKey;
use lofat_rv32::{Cpu, ExitInfo, Program};
use lofat_workloads::{catalog, Workload};

/// Loads `input` into a fresh CPU for `program` following the workload convention
/// (`input` buffer plus optional `input_len`).
pub fn cpu_with_input(program: &Program, input: &[u32]) -> Cpu {
    let mut cpu = Cpu::new(program).expect("load program");
    if !input.is_empty() {
        let addr = program.symbol("input").expect("workload defines `input`");
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        cpu.poke_data(addr, &bytes).expect("poke input");
        if let Some(len) = program.symbol("input_len") {
            cpu.poke_data(len, &(input.len() as u32).to_le_bytes()).expect("poke input_len");
        }
    }
    cpu
}

/// Runs `program` on `input` without attestation.
pub fn run_plain(program: &Program, input: &[u32]) -> ExitInfo {
    let mut cpu = cpu_with_input(program, input);
    cpu.run(50_000_000).expect("plain run")
}

/// Runs `program` on `input` with a LO-FAT engine attached and returns the
/// measurement plus the CPU exit information.
pub fn run_attested(
    program: &Program,
    input: &[u32],
    config: EngineConfig,
) -> (Measurement, ExitInfo) {
    let mut engine = LofatEngine::for_program(program, config).expect("engine");
    let mut cpu = cpu_with_input(program, input);
    let exit = cpu.run_traced(50_000_000, &mut engine).expect("attested run");
    (engine.finalize().expect("finalize"), exit)
}

/// Convenience: attest a catalogue workload on a given input with the default
/// configuration.
pub fn attest_workload(workload: &Workload, input: &[u32]) -> (Measurement, ExitInfo) {
    let program = workload.program().expect("assemble workload");
    run_attested(&program, input, EngineConfig::default())
}

/// Builds a matched prover/verifier pair for `program` under `program_id`, both
/// sides sharing a device key derived from `seed`.
pub fn attestation_session(program: &Program, program_id: &str, seed: &str) -> (Prover, Verifier) {
    let key = DeviceKey::from_seed(seed);
    let prover = Prover::new(program.clone(), program_id, key.clone());
    let verifier = Verifier::new(program.clone(), program_id, key.verification_key())
        .expect("construct verifier");
    (prover, verifier)
}

/// Loads a catalogue workload by name and builds an attestation session for it.
pub fn workload_session(name: &str, seed: &str) -> (Program, Prover, Verifier) {
    let program =
        catalog::by_name(name).expect("workload exists").program().expect("assemble workload");
    let (prover, verifier) = attestation_session(&program, name, seed);
    (program, prover, verifier)
}

/// Runs the full challenge→attest→verify protocol for a catalogue workload and
/// returns the accepted outcome.
pub fn attest_and_verify(name: &str, seed: &str, input: Vec<u32>) -> ProtocolOutcome {
    let (_, mut prover, mut verifier) = workload_session(name, seed);
    lofat::protocol::run_attestation(&mut verifier, &mut prover, input)
        .unwrap_or_else(|e| panic!("honest attestation of workload `{name}` rejected: {e}"))
}

/// Builds a [`VerifierService`] for a catalogue workload — reference database
/// precomputed over `inputs` — plus a matched prover sharing the seed-derived
/// device key.  The returned program is the assembled workload (for symbol
/// lookups in adversarial tests).
pub fn workload_service(
    name: &str,
    seed: &str,
    inputs: &[Vec<u32>],
    config: ServiceConfig,
) -> (Program, VerifierService, Prover) {
    let (program, prover, verifier) = workload_session(name, seed);
    let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.to_vec())
        .expect("precompute reference measurements");
    let key = DeviceKey::from_seed(seed).verification_key();
    (program, VerifierService::new(db, key, config), prover)
}

/// Builds a [`VerifierService`] for a catalogue workload wrapped in the
/// `Arc` the network server wants, plus the matched prover (see
/// [`workload_service`]).
pub fn workload_service_arc(
    name: &str,
    seed: &str,
    inputs: &[Vec<u32>],
    config: ServiceConfig,
) -> (Program, std::sync::Arc<VerifierService>, Prover) {
    let (program, service, prover) = workload_service(name, seed, inputs, config);
    (program, std::sync::Arc::new(service), prover)
}

/// A [`lofat_net::ServerConfig`] for the network suites: short deadlines (the
/// tests run on loopback) and a per-test server log under `target/e14/` (or
/// `$E14_LOG_DIR`) so a failing CI run can upload what the server saw.
pub fn net_server_config(test_name: &str) -> lofat_net::ServerConfig {
    let dir = std::env::var("E14_LOG_DIR").unwrap_or_else(|_| "target/e14".to_string());
    lofat_net::ServerConfig {
        limits: lofat_net::NetLimits::server()
            .with_read_timeout(Some(std::time::Duration::from_secs(5)))
            .with_write_timeout(Some(std::time::Duration::from_secs(5))),
        log_path: Some(std::path::Path::new(&dir).join(format!("{test_name}.log"))),
        ..lofat_net::ServerConfig::default()
    }
}

/// Binds the verifier server on an ephemeral loopback port.
pub fn serve(
    service: std::sync::Arc<VerifierService>,
    config: lofat_net::ServerConfig,
) -> lofat_net::EventLoopServer {
    lofat_net::EventLoopServer::bind("127.0.0.1:0", service, config).expect("bind server")
}

/// Decodes an encoded verdict envelope and returns its [`lofat::VerdictMsg`],
/// panicking on any other message kind (the shape every service/transport
/// reply in the e13/e14/fuzz suites must have).
pub fn decode_verdict(bytes: &[u8]) -> lofat::VerdictMsg {
    match lofat::Envelope::decode(bytes).expect("verdict envelope decodes").message {
        lofat::Message::Verdict(v) => v,
        other => panic!("expected a verdict, got {}", other.kind()),
    }
}

/// Asserts the service-stats conservation law: every opened session is
/// accounted for exactly once — accepted, spent by an authenticated
/// rejection, expired, or still live.  (Unauthenticated rejections — bad
/// signatures, misrouted nonces, replays, malformed envelopes — do not
/// consume sessions and therefore do not appear in the balance.)
pub fn assert_stats_conserved(stats: &ServiceStats, live: usize) {
    assert!(
        stats.is_conserved(live),
        "stats conservation violated: opened {} != accepted {} + sessions_rejected {} + \
         expired {} + live {live} ({stats:?})",
        stats.sessions_opened,
        stats.accepted,
        stats.sessions_rejected,
        stats.expired,
    );
}

/// The LEB128 varint of `value`: seven bits per byte, low bits first.
pub fn leb128(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
    out
}

/// `frame`, an encoded evidence envelope, with its report's packed `L`
/// replaced by `blob` and both length fields that cover it fixed up.
pub fn splice_metadata(frame: &[u8], blob: &[u8]) -> Vec<u8> {
    let field = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    // The message's variant index, then the program id and `A`, each behind
    // its length, precede `L`'s length.
    let id = lofat::wire::HEADER_BYTES + 4;
    let digest = id + 4 + field(id);
    let at = digest + 4 + field(digest);
    let len = (blob.len() as u32).to_le_bytes();
    let mut bytes = [&frame[..at], &len, blob, &frame[at + 4 + field(at)..]].concat();
    let body = (bytes.len() - lofat::wire::HEADER_BYTES) as u32;
    bytes[14..18].copy_from_slice(&body.to_le_bytes());
    bytes
}

/// The runs of `metadata` — each maximal run of equal consecutive loop
/// records, with the loop executions it stands for — as packed `L` stores
/// them.
pub fn runs(metadata: &lofat::Metadata) -> Vec<(lofat::LoopRecord, u64)> {
    let loops = metadata.loops.chunk_by(|a, b| a == b);
    loops.map(|run| (run[0].clone(), run.len() as u64)).collect()
}

/// Packed `L` storing `runs` as given, maximal or not: the writer's layout,
/// with each run's loop executions in its record's flag.
pub fn pack_runs(runs: &[(lofat::LoopRecord, u64)]) -> Vec<u8> {
    let mut out = leb128(runs.len() as u64);
    for (record, executions) in runs {
        let single = lofat::Metadata { loops: vec![record.clone()] }.pack();
        let bytes = &single.as_bytes()[1..];
        // The flag is the one-byte varint after entry, exit and depth.
        let ends = bytes.iter().enumerate().filter(|&(_, &byte)| byte < 0x80);
        let flag_at = 1 + ends.map(|(at, _)| at).nth(2).expect("three varints");
        out.extend(&bytes[..flag_at]);
        let overflowed = u64::from(record.encoder_overflowed);
        out.extend(leb128(((executions - 1) << 1) | overflowed));
        out.extend(&bytes[flag_at + 1..]);
    }
    out
}
