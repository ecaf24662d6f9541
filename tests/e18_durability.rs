//! E18 — durable verifier state: crash-safe snapshot/restore and the
//! multi-process deployment, exercised against the real `lofat` binary.
//!
//! The tentpole guarantees under test:
//!
//! * **No nonce is ever reissued across a restart.**  `lofat serve
//!   --snapshot-path` writes a snapshot at startup and every tick, rounding
//!   every shard's issuance watermark *up* by a reserve; sessions opened
//!   after the last write land under the restored watermark and their spent
//!   nonces answer `NONCE_REPLAYED`, never a second `ACCEPTED`.
//! * **In-flight sessions survive** when they made it into a snapshot: the
//!   restored process re-derives their nonces from the session counters and
//!   accepts their (first) evidence, on the restored logical clock.
//! * **The snapshot on disk is a valid, conserved service** — restoring it
//!   in-process satisfies both conservation laws.
//! * **The multi-process deployment is byte-identical to one service**: N
//!   real `lofat serve --partition p/N` processes behind a real `lofat
//!   front` produce the same challenge and verdict bytes as a single
//!   in-process service with N shards.
//!
//! Every `lofat serve` child runs the event-loop server, the same one e14
//! and the fuzz suite drive in-process.  Each child binds an ephemeral port
//! and prints it; the suite parses stdout, SIGKILLs mid-run (never a
//! graceful shutdown — that would test nothing) and restores from whatever
//! the dead process left behind.
//! * **A snapshot of another format version is refused, never overwritten**:
//!   `lofat serve` pointed at a version-1 document exits non-zero and leaves
//!   the file byte-identical instead of starting over with fresh nonce
//!   counters.
//!
//! Artifacts live under `target/e18/` (`$E18_DIR`) so CI can upload the
//! snapshots of a failing run.

mod common;

use lofat::session::ProverSession;
use lofat::wire::code;
use lofat::{Prover, ServiceConfig, ServiceStats, VerifierService};
use lofat_crypto::DeviceKey;
use lofat_net::ProverClient;
use lofat_workloads::catalog;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The key seed `lofat serve`/`lofat attest` share (see `src/bin/lofat.rs`).
const CLI_SEED: &str = "lofat-cli-fleet";
const WORKLOAD: &str = "fig4-loop";

fn artifact_dir() -> PathBuf {
    let dir = std::env::var("E18_DIR").unwrap_or_else(|_| "target/e18".to_string());
    std::fs::create_dir_all(&dir).expect("create e18 artifact dir");
    PathBuf::from(dir)
}

/// A spawned `lofat` subprocess that is SIGKILLed on drop, so a panicking
/// assertion never leaks a listener.
struct LofatProc {
    child: Child,
    /// The ephemeral address parsed from the child's banner line.
    addr: SocketAddr,
}

impl LofatProc {
    /// Spawns `lofat <args..>` and waits for its banner
    /// (``serving `…` on ADDR``, or ``fronting N backend(s) on ADDR``).
    fn spawn(args: &[String]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lofat"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lofat subprocess");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("child exited before printing its banner")
                .expect("read child stdout");
            if line.starts_with("serving") || line.starts_with("fronting") {
                let after_on = line.split(" on ").nth(1).expect("banner names the address");
                let addr_text = after_on.split_whitespace().next().expect("address token");
                break addr_text.parse().expect("banner address parses");
            }
        };
        // Drain the rest of the child's stdout so it never blocks on a full
        // pipe; the lines are discarded.
        std::thread::spawn(move || for _ in lines {});
        LofatProc { child, addr }
    }

    /// SIGKILL — the crash under test, never a graceful shutdown.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for LofatProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_serve(snapshot: &std::path::Path, extra: &[&str]) -> LofatProc {
    let mut args = vec![
        "serve".to_string(),
        WORKLOAD.to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--snapshot-path".to_string(),
        snapshot.display().to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    LofatProc::spawn(&args)
}

fn cli_prover() -> Prover {
    let program = catalog::by_name(WORKLOAD).unwrap().program().expect("assemble");
    Prover::new(program, WORKLOAD, DeviceKey::from_seed(CLI_SEED))
}

/// Opens a session over the wire and returns its encoded evidence without
/// submitting it.
fn prepared_evidence(client: &mut ProverClient, prover: &mut Prover, input: Vec<u32>) -> Vec<u8> {
    let (challenge, _) = client.request_challenge(WORKLOAD, input).expect("challenge");
    let (evidence, _) = ProverSession::new(prover).respond(&challenge).expect("prover responds");
    evidence.encode().expect("evidence encodes")
}

#[test]
fn sigkill_and_restore_never_reissues_a_nonce() {
    let snapshot = artifact_dir().join("kill_restore.snap");
    let _ = std::fs::remove_file(&snapshot);

    let serve = spawn_serve(&snapshot, &[]);
    let mut prover = cli_prover();
    let input = catalog::by_name(WORKLOAD).unwrap().default_input.clone();

    // Spend one nonce for real, and open one more session whose evidence
    // will only be submitted after the crash.
    let mut client = ProverClient::connect(serve.addr).expect("connect");
    let spent = prepared_evidence(&mut client, &mut prover, input.clone());
    let (_, verdict) = client.submit_evidence(&spent).expect("submit");
    assert!(verdict.accepted, "honest pre-crash attestation: {verdict:?}");
    let in_flight = prepared_evidence(&mut client, &mut prover, input.clone());
    drop(client);

    // The crash.  Both sessions above were opened *after* the startup
    // snapshot, so only the watermark reserve covers them.
    serve.kill();

    // The snapshot the dead process left is a valid, conserved service.
    let key = DeviceKey::from_seed(CLI_SEED).verification_key();
    let restored = VerifierService::restore_from_file(&snapshot, key)
        .expect("the crash snapshot restores cleanly");
    common::assert_stats_conserved(&restored.stats(), restored.live_sessions());

    // Restart from the same snapshot.
    let serve = spawn_serve(&snapshot, &[]);
    let mut client = ProverClient::connect(serve.addr).expect("reconnect");

    // ① The spent nonce stays spent: exactly one acceptance, ever.
    let (_, verdict) = client.submit_evidence(&spent).expect("replay after restore");
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "{verdict:?}");

    // ② The in-flight session gets *at most one* acceptance.  Whether the
    // first post-restore submission is accepted depends on timing (the 5s
    // tick may have snapshotted it live before the kill; otherwise it fell
    // under the restored watermark and is refused) — but a second
    // submission must always be a replay.
    let (_, first) = client.submit_evidence(&in_flight).expect("lost session after restore");
    let (_, second) = client.submit_evidence(&in_flight).expect("second submission");
    assert_eq!(second.reason_code, code::NONCE_REPLAYED, "first {first:?}, second {second:?}");

    // ③ Replay-hammer the spent evidence: every attempt refused.
    for round in 0..8 {
        let (_, verdict) = client.submit_evidence(&spent).expect("hammer");
        assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "round {round}: {verdict:?}");
    }

    // ④ New sessions land *above* the reserved watermark (no id — hence no
    // nonce — from the pre-crash window can come out again) and attest fine.
    let (challenge, _) =
        client.request_challenge(WORKLOAD, input.clone()).expect("post-restore challenge");
    assert!(
        challenge.session.0 > 2,
        "post-restore session id {} fell inside the pre-crash window",
        challenge.session.0
    );
    let (evidence, _) =
        ProverSession::new(&mut prover).respond(&challenge).expect("prover responds");
    let (_, verdict) =
        client.submit_evidence(&evidence.encode().unwrap()).expect("post-restore attest");
    assert!(verdict.accepted, "post-restore honest attestation: {verdict:?}");

    drop(client);
    serve.kill();
}

/// A version-1 snapshot, as `lofat serve --snapshot-path` wrote it before
/// the database carried its valid-path table, is refused: `serve` exits
/// non-zero and leaves the file byte-identical.  Starting over instead would
/// issue fresh nonce counters and could reissue every nonce the old process
/// handed out.
#[test]
fn serve_refuses_a_version_1_snapshot_and_leaves_it_untouched() {
    let fixture = std::fs::read("tests/fixtures/snapshot/fig4-loop.v1.lfsn").expect("fixture");
    let snapshot = artifact_dir().join("version_1.snap");
    std::fs::write(&snapshot, &fixture).expect("write the version-1 snapshot");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lofat"))
        .args(["serve", WORKLOAD, "--addr", "127.0.0.1:0", "--snapshot-path"])
        .arg(&snapshot)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lofat serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll lofat serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`lofat serve` kept running on a version-1 snapshot");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("read stderr");
    assert!(!status.success(), "`lofat serve` accepted a version-1 snapshot: {stderr}");
    assert!(stderr.contains("unsupported snapshot version 1"), "{stderr}");
    assert_eq!(std::fs::read(&snapshot).expect("reread"), fixture, "the snapshot was rewritten");
}

#[test]
fn live_sessions_survive_a_sigkill_once_snapshotted() {
    let snapshot = artifact_dir().join("live_restore.snap");
    let _ = std::fs::remove_file(&snapshot);

    let serve = spawn_serve(&snapshot, &[]);
    let mut prover = cli_prover();
    let input = catalog::by_name(WORKLOAD).unwrap().default_input.clone();

    let mut client = ProverClient::connect(serve.addr).expect("connect");
    let held = prepared_evidence(&mut client, &mut prover, input);
    drop(client);

    // Wait out one 5-second serve tick so the live session reaches disk,
    // then crash.
    std::thread::sleep(std::time::Duration::from_secs(7));
    serve.kill();

    // The restored process re-derives the session's nonce from its counter
    // and accepts the evidence — first time queries succeed, second time is
    // a replay.
    let serve = spawn_serve(&snapshot, &[]);
    let mut client = ProverClient::connect(serve.addr).expect("reconnect");
    let (_, verdict) = client.submit_evidence(&held).expect("held evidence after restore");
    assert!(verdict.accepted, "snapshotted in-flight session must survive: {verdict:?}");
    let (_, verdict) = client.submit_evidence(&held).expect("replay");
    assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "{verdict:?}");

    drop(client);
    serve.kill();
}

#[test]
fn real_process_front_matches_a_single_service_byte_for_byte() {
    const PARTITIONS: u64 = 2;
    let dir = artifact_dir();

    // N real `lofat serve --partition p/N --shards 1` processes…
    let mut serves = Vec::new();
    for partition in 0..PARTITIONS {
        let snapshot = dir.join(format!("front_backend_{partition}.snap"));
        let _ = std::fs::remove_file(&snapshot);
        let spec = format!("{partition}/{PARTITIONS}");
        serves.push(spawn_serve(&snapshot, &["--shards", "1", "--partition", &spec]));
    }
    // …behind a real `lofat front`.
    let mut front_args = vec!["front".to_string(), "--addr".to_string(), "127.0.0.1:0".to_string()];
    for serve in &serves {
        front_args.push("--backend".to_string());
        front_args.push(serve.addr.to_string());
    }
    let front = LofatProc::spawn(&front_args);

    // The single-process reference: one service, N shards, same key and
    // database as the serve processes build.
    let input = catalog::by_name(WORKLOAD).unwrap().default_input.clone();
    let inputs = vec![input.clone()];
    // `lofat serve` defaults to a 60-second deadline (1 cycle/µs) and the
    // deadline is part of every challenge envelope, so the reference must
    // match it for the bytes to line up.
    let reference_config = ServiceConfig {
        session_deadline_cycles: 60_000_000,
        ..ServiceConfig::sharded(PARTITIONS as usize)
    };
    let (_, reference, _) =
        common::workload_service_arc(WORKLOAD, CLI_SEED, &inputs, reference_config);

    // Honest + adversarial catalogue: honest evidence, a forged
    // authenticator, and a replay of each — driven through the front and
    // the reference in the same order, comparing bytes at every step.
    let sessions = 8usize;
    let mut prover = cli_prover();
    let mut client = ProverClient::connect(front.addr).expect("connect to the front");
    let mut evidence = Vec::new();
    for i in 0..sessions {
        let (challenge, challenge_bytes) =
            client.request_challenge(WORKLOAD, input.clone()).expect("challenge via the front");
        assert_eq!(challenge.session.0, i as u64 + 1, "front ids must come out dense");
        let id = reference.open_session(input.clone()).expect("reference capacity");
        let reference_bytes =
            reference.challenge_envelope(id).expect("challenge").encode().expect("encode");
        assert_eq!(challenge_bytes, reference_bytes, "challenge {i} bytes diverge");
        let (envelope, _) =
            ProverSession::new(&mut prover).respond(&challenge).expect("prover responds");
        let mut bytes = envelope.encode().expect("evidence encodes");
        if i % 3 == 2 {
            // Flip a byte deep in the report: a forged authenticator.
            let last = bytes.len() - 1;
            bytes[last] ^= 0x5a;
        }
        evidence.push(bytes);
    }
    for (phase, label) in [(1, "phase 1"), (2, "replay phase")] {
        for (i, bytes) in evidence.iter().enumerate() {
            let got = {
                let mut raw = client.raw();
                raw.send(bytes).expect("submit via the front");
                raw.recv().expect("read verdict").expect("backend answered")
            };
            let want = reference.handle_bytes(bytes).expect("reference verdict");
            assert_eq!(want, got, "{label}: verdict {i} diverges (pass {phase})");
        }
    }
    drop(client);

    // The reference books balance; the front saw identical traffic, so the
    // real deployment's (inaccessible) books are pinned by the byte-equal
    // verdicts above.  `ServiceStats::absorb` being exact under partitioning
    // is separately proven in-process by e14.
    let stats: ServiceStats = reference.stats();
    common::assert_stats_conserved(&stats, reference.live_sessions());
    // Forged slots are the `i % 3 == 2` ones: 2 of the 8.
    assert_eq!(stats.accepted, sessions as u64 - sessions as u64 / 3, "honest slots");

    front.kill();
    for serve in serves {
        serve.kill();
    }
}
