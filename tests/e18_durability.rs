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
//! * **A crash interrupts every live session**: a snapshot stores none, so
//!   a session live at the last write draws `NONCE_REPLAYED` after the
//!   restart, whether it was spent before the kill or still held.  Its
//!   prover asks for a new session.
//! * **The snapshot on disk is a valid, conserved service** — restoring it
//!   in-process satisfies the conservation law.
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
//!   `lofat serve` pointed at a version-1, 2 or 3 document exits non-zero and
//!   leaves the file byte-identical instead of starting over with fresh
//!   nonce counters.
//! * **A serving process runs three kinds of thread and no more**: main,
//!   the event loop and one per verifier worker (checked through `/proc`
//!   on Linux).
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

    // ② The in-flight session was interrupted: whether or not a 5s tick
    // wrote it live before the kill, its counter lies under the restored
    // watermark and no session holds it, so every submission is a replay.
    for attempt in ["first", "second"] {
        let (_, verdict) = client.submit_evidence(&in_flight).expect("lost session after restore");
        assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "{attempt}: {verdict:?}");
    }

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

/// The thread count of a running process, from `/proc/<pid>/status`.
fn thread_count(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let line = status.lines().find(|line| line.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count parses")
}

/// The names of a running process's threads, from `/proc/<pid>/task`.
fn thread_names(pid: u32) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return Vec::new() };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// A serving process runs the main thread, the event loop and its verifier
/// workers, and nothing else: verdicts go from the worker that produced them
/// straight to the loop, with no thread in between.
#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "counts threads through /proc")]
fn serve_runs_only_main_the_loop_and_its_workers() {
    let snapshot = artifact_dir().join("thread_count.snap");
    let _ = std::fs::remove_file(&snapshot);
    let serve = spawn_serve(&snapshot, &["--workers", "2"]);
    let pid = serve.child.id();
    let threads = thread_count(pid);
    assert_eq!(threads, 4, "main, the loop and two workers; running: {:?}", thread_names(pid));
    serve.kill();
}

/// Older snapshots, as `lofat serve --snapshot-path` wrote them before the
/// database carried its valid-path table (version 1), before it stored each
/// reference's metadata packed (version 2), while snapshots stored live
/// sessions (version 3), before that metadata was stored run-length
/// (version 4) and while the books counted verdict-cache evictions (version
/// 5), are refused: `serve` exits non-zero and leaves the file
/// byte-identical.  Starting over instead would
/// issue fresh nonce counters and could reissue every nonce the old process
/// handed out.
#[test]
fn serve_refuses_a_version_1_snapshot_and_leaves_it_untouched() {
    for version in [1, 2, 3, 4, 5] {
        let path = format!("tests/fixtures/snapshot/fig4-loop.v{version}.lfsn");
        let fixture = std::fs::read(&path).expect("fixture");
        let snapshot = artifact_dir().join(format!("version_{version}.snap"));
        std::fs::write(&snapshot, &fixture).expect("write the old snapshot");
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
                panic!("`lofat serve` kept running on a version-{version} snapshot");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(!status.success(), "`lofat serve` accepted a version-{version} snapshot: {stderr}");
        assert!(stderr.contains(&format!("unsupported snapshot version {version}")), "{stderr}");
        assert_eq!(std::fs::read(&snapshot).expect("reread"), fixture, "{path} was rewritten");
    }
}

/// Two sessions are open across a 5-second tick, so the snapshot on disk
/// holds both live.  One is spent before the SIGKILL and one is held.  The
/// restarted process revives neither: both draw `NONCE_REPLAYED`.
#[test]
fn sessions_live_at_a_write_are_interrupted_by_a_sigkill() {
    let snapshot = artifact_dir().join("live_restore.snap");
    let _ = std::fs::remove_file(&snapshot);

    let serve = spawn_serve(&snapshot, &[]);
    let mut prover = cli_prover();
    let input = catalog::by_name(WORKLOAD).unwrap().default_input.clone();

    let mut client = ProverClient::connect(serve.addr).expect("connect");
    let spent = prepared_evidence(&mut client, &mut prover, input.clone());
    let held = prepared_evidence(&mut client, &mut prover, input);
    drop(client);

    // Wait out one 5-second serve tick so both live sessions reach disk,
    // spend one (on a new connection: the idle one may have timed out),
    // then crash before the next tick.
    std::thread::sleep(Duration::from_secs(7));
    let mut client = ProverClient::connect(serve.addr).expect("connect again");
    let (_, verdict) = client.submit_evidence(&spent).expect("submit");
    assert!(verdict.accepted, "honest pre-crash attestation: {verdict:?}");
    drop(client);
    serve.kill();

    let serve = spawn_serve(&snapshot, &[]);
    let mut client = ProverClient::connect(serve.addr).expect("reconnect");
    for (label, evidence) in [("spent", &spent), ("held", &held)] {
        let (_, verdict) = client.submit_evidence(evidence).expect("evidence after restore");
        assert_eq!(verdict.reason_code, code::NONCE_REPLAYED, "{label} session: {verdict:?}");
    }

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
