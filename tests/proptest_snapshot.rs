//! Property tests for the durable snapshot codec and restore path.
//!
//! * `snapshot → restore → snapshot` is a byte-identical fixed point for an
//!   arbitrary service state (sessions spent/held in any pattern, any clock,
//!   any shard count);
//! * truncation at any cut point and arbitrary single-bit corruption are
//!   refused with a typed [`lofat::wire::SnapshotError`], never a panic and
//!   never a service with a *lowered* watermark;
//! * a restored service accepts **no** pre-snapshot nonce: sessions spent
//!   before the write stay spent, sessions held at the write were
//!   interrupted and draw `NONCE_REPLAYED` too, the books stay conserved,
//!   and fresh sessions land above both the pre-snapshot ids and the
//!   write-time reserve (the reserve is what covers the sessions a live
//!   process opens after the write).
//!
//! Plain tests pin the format across builds and under load:
//!
//! * older documents are refused by version: version 1, written before the
//!   database carried its valid-path table, version 2, written before it
//!   stored each reference's metadata packed, version 3, written while
//!   snapshots still stored live sessions, version 4, written before that
//!   metadata was stored run-length, version 5, written while the
//!   configuration and the books still described a verdict cache, version
//!   6, written while that metadata was in wire version 3's grammar, and
//!   version 7, written while it was in wire version 4's;
//! * `tests/fixtures/snapshot/fig4-loop.v8.lfsn`, the start-up snapshot of
//!   `lofat serve fig4-loop`, restores to the state it describes and
//!   re-encodes to itself byte for byte, so a change to the body encoding
//!   that forgets the version bump fails here;
//! * every snapshot written while two threads open sessions and submit
//!   honest and forged evidence restores with zero live sessions and the
//!   conservation law balanced.
//!
//! Case counts honour the vendored proptest's `PROPTEST_CASES` cap.

mod common;

use lofat::session::ProverSession;
use lofat::wire::{code, SnapshotError, SnapshotMsg, SNAPSHOT_HEADER_BYTES};
use lofat::{MeasurementDatabase, Message, ServiceConfig, ServiceStats, VerifierService};
use lofat_crypto::sign::{HmacSigner, Signer};
use lofat_crypto::{DeviceKey, Digest};
use lofat_fleet::SlotBehaviour;
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

const SEED: &str = "proptest-snapshot";
const MAX_SESSIONS: usize = 6;

/// Everything the properties share, built once: the reference database and
/// pre-generated honest evidence for [`MAX_SESSIONS`] sessions.  Nonce
/// determinism means the same evidence bytes answer every fresh service
/// below, whatever its shard count.
struct Fixture {
    db: MeasurementDatabase,
    key: DeviceKey,
    inputs: Vec<Vec<u32>>,
    evidence: Vec<Vec<u8>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let input_pool = [vec![3u32], vec![4u32]];
        let (_, mut prover, verifier) = common::workload_session("fig4-loop", SEED);
        let db = MeasurementDatabase::build(
            &verifier,
            lofat::EngineConfig::default(),
            input_pool.to_vec(),
        )
        .expect("precompute reference measurements");
        let key = DeviceKey::from_seed(SEED);
        let template =
            VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::default());
        let slots = (0..MAX_SESSIONS)
            .map(|i| (input_pool[i % input_pool.len()].clone(), SlotBehaviour::Honest));
        let traffic = lofat_fleet::generate_traffic(&template, &mut prover, slots)
            .expect("pre-generate snapshot traffic");
        let mut inputs = Vec::new();
        let mut evidence = Vec::new();
        for slot in traffic {
            inputs.push(slot.input);
            evidence.push(slot.evidence);
        }
        Fixture { db, key, inputs, evidence }
    })
}

fn spent(mask: u8, slot: usize) -> bool {
    mask & (1 << slot) != 0
}

/// A fresh service in an arbitrary mid-flight state: `sessions` opened in
/// order, the `mask`-selected ones spent, the clock advanced (but short of
/// the deadline, so nothing expires underneath the properties).
fn service_with(sessions: usize, mask: u8, clock: u64, shards: usize) -> VerifierService {
    let f = fixture();
    let config = ServiceConfig { shards, ..ServiceConfig::default() };
    let service = VerifierService::new(f.db.clone(), f.key.verification_key(), config);
    for i in 0..sessions {
        service.open_session(f.inputs[i].clone()).expect("capacity");
        if spent(mask, i) {
            service.handle_bytes(&f.evidence[i]).expect("verdict encodes");
        }
    }
    service.advance_clock(clock);
    service
}

/// `tests/fixtures/snapshot/fig4-loop.v{1,2,3,4,5,6}.lfsn` are the
/// snapshots `lofat serve fig4-loop --snapshot-path` wrote at start-up when
/// the format was version 1, 2, 3, 4, 5 and 6.  Both the codec and the
/// restore path refuse each by its version.
#[test]
fn version_1_snapshots_are_refused() {
    for version in [1, 2, 3, 4, 5, 6, 7] {
        let path = format!("tests/fixtures/snapshot/fig4-loop.v{version}.lfsn");
        let bytes = std::fs::read(&path).expect("fixture");
        assert!(
            matches!(
                SnapshotMsg::decode(&bytes),
                Err(SnapshotError::UnsupportedVersion { found }) if found == version
            ),
            "{path}"
        );
        assert!(
            matches!(
                VerifierService::restore_bytes(&bytes, fixture().key.verification_key()),
                Err(SnapshotError::UnsupportedVersion { found }) if found == version
            ),
            "{path}"
        );
    }
}

/// The key seed `lofat serve` uses (see `src/bin/lofat.rs`).
const CLI_SEED: &str = "lofat-cli-fleet";
const V8_FIXTURE: &str = "tests/fixtures/snapshot/fig4-loop.v8.lfsn";

/// The packed `L`, behind its `u32` length, that an evidence payload
/// fixture of fig4-loop's default input carries after the program id and
/// `A`, each behind its length.
fn fig4_metadata(payload_fixture: &str) -> Vec<u8> {
    let path = format!("tests/fixtures/evidence/fig4-loop.{payload_fixture}.bin");
    let payload = std::fs::read(&path).expect("fixture");
    let len = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let at = 4 + len(0);
    let at = at + 4 + len(at);
    payload[at..at + 4 + len(at)].to_vec()
}

/// The current format, pinned by a document an earlier build wrote: the
/// start-up snapshot of `lofat serve fig4-loop` (4 shards, every watermark
/// at the 65 536-session reserve, clock 0, empty books, one reference for
/// the default input).  A restored service re-encodes it byte for byte.
/// Its body is its version-7 predecessor's with that reference's `L`
/// rewritten from the version-4 grammar into the version-5 one: the bytes
/// fig4-loop's version-4 and version-5 evidence fixtures carry.
#[test]
fn the_version_8_fixture_restores_and_re_encodes_byte_for_byte() {
    let bytes = std::fs::read(V8_FIXTURE).expect("fixture");
    let v7 = std::fs::read("tests/fixtures/snapshot/fig4-loop.v7.lfsn").expect("fixture");
    let v7 = &v7[SNAPSHOT_HEADER_BYTES..];
    let (v4_metadata, v5_metadata) = (fig4_metadata("v4.payload"), fig4_metadata("v5.payload"));
    assert_ne!(v4_metadata, v5_metadata, "fig4-loop's `L` differs between the grammars");
    let at: Vec<usize> = (0..v7.len()).filter(|&i| v7[i..].starts_with(&v4_metadata)).collect();
    assert_eq!(at.len(), 1, "the version-7 body holds one reference's `L`");
    let (head, tail) = (&v7[..at[0]], &v7[at[0] + v4_metadata.len()..]);
    let rewritten = [head, &v5_metadata, tail].concat();
    assert!(rewritten == bytes[SNAPSHOT_HEADER_BYTES..], "more than the reference's `L` changed");
    let key = DeviceKey::from_seed(CLI_SEED).verification_key();
    let restored = VerifierService::restore_bytes(&bytes, key).expect("the fixture restores");
    assert_eq!(restored.program_id(), "fig4-loop");
    assert_eq!(restored.shard_count(), 4);
    assert_eq!(restored.watermarks(), [65_536; 4]);
    assert_eq!(restored.now_cycles(), 0);
    assert_eq!(restored.stats(), ServiceStats::default());
    assert_eq!(restored.live_sessions(), 0);
    assert!(restored.snapshot_bytes(0).expect("re-snapshot encodes") == bytes, "not a fixed point");
}

/// Rewrites the current version's fixture from this build's `lofat serve`.
#[test]
#[ignore = "rewrites tests/fixtures/snapshot/fig4-loop.v8.lfsn"]
fn regenerate_the_version_8_fixture() {
    let path = std::env::temp_dir().join(format!("lofat-v8-fixture-{}.lfsn", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut serve = Command::new(env!("CARGO_BIN_EXE_lofat"))
        .args(["serve", "fig4-loop", "--addr", "127.0.0.1:0", "--snapshot-path"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lofat serve");
    // `serve` prints this line once its start-up snapshot is on disk.
    let stdout = BufReader::new(serve.stdout.take().expect("piped stdout"));
    let written = stdout.lines().map_while(Result::ok).any(|line| line.starts_with("snapshotting"));
    let _ = serve.kill();
    let _ = serve.wait();
    assert!(written, "`lofat serve` exited before its start-up snapshot");
    std::fs::copy(&path, V8_FIXTURE).expect("write the fixture");
    let _ = std::fs::remove_file(&path);
}

/// Snapshots written under load: two threads open sessions and submit
/// honest evidence, unsigned forgeries (refused, the session stays open)
/// and signed forgeries (rejected, the session is spent) through
/// `handle_bytes` until the test thread has written its snapshots.  Every
/// document restores with no live session and with the conservation law
/// balanced, `sessions_opened == accepted + sessions_rejected + expired`,
/// and with books that count no cache hit and one cache miss per spend.
#[test]
fn snapshots_written_under_load_restore_with_balanced_books() {
    const DOCUMENTS: usize = 200;
    let f = fixture();
    let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
    let service = VerifierService::new(f.db.clone(), f.key.verification_key(), config);
    let restore = |bytes: &[u8]| {
        let restored = VerifierService::restore_bytes(bytes, f.key.verification_key())
            .expect("a snapshot written under load restores");
        assert_eq!(restored.live_sessions(), 0);
        restored.stats()
    };
    let done = AtomicBool::new(false);
    let rounds: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|worker| {
                let (service, done) = (&service, &done);
                scope.spawn(move || {
                    let (_, mut prover, _) = common::workload_session("fig4-loop", SEED);
                    let mut signer = HmacSigner::new(f.key.clone());
                    let wants = [code::ACCEPTED, code::BAD_SIGNATURE, code::AUTHENTICATOR_MISMATCH];
                    let mut rounds = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        for (kind, want) in wants.into_iter().enumerate() {
                            let input = f.inputs[(worker + kind) % f.inputs.len()].clone();
                            let id = service.open_session(input).expect("capacity");
                            let challenge = service.challenge_envelope(id).expect("live session");
                            let (mut evidence, _) = ProverSession::new(&mut prover)
                                .respond(&challenge)
                                .expect("prover responds");
                            let Message::Evidence(msg) = &mut evidence.message else {
                                panic!("evidence")
                            };
                            if kind > 0 {
                                let mut bytes = msg.report.authenticator.as_bytes().to_vec();
                                bytes[0] ^= 1;
                                msg.report.authenticator = Digest::from_bytes(bytes);
                            }
                            if kind == 2 {
                                msg.report.signature =
                                    signer.sign(&msg.report.payload()).expect("HMAC signs");
                            }
                            let bytes = evidence.encode().expect("evidence encodes");
                            let verdict = common::decode_verdict(
                                &service.handle_bytes(&bytes).expect("verdict encodes"),
                            );
                            assert_eq!(verdict.reason_code, want, "{verdict:?}");
                        }
                        rounds += 1;
                    }
                    rounds
                })
            })
            .collect();
        for document in 0..DOCUMENTS {
            let stats = restore(&service.snapshot_bytes(0).expect("snapshot encodes"));
            assert_eq!(
                stats.sessions_opened,
                stats.accepted + stats.sessions_rejected + stats.expired,
                "document {document}: {stats:?}"
            );
            assert_eq!(
                (stats.cache_hits, stats.cache_misses),
                (0, stats.accepted + stats.sessions_rejected),
                "document {document}: {stats:?}"
            );
        }
        done.store(true, Ordering::SeqCst);
        workers.into_iter().map(|worker| worker.join().expect("worker")).sum()
    });

    // Each round spent one session on each side of the books and left one
    // open, which the last document counts as expired.
    let stats = restore(&service.snapshot_bytes(0).expect("snapshot encodes"));
    common::assert_stats_conserved(&stats, 0);
    assert_eq!(stats.sessions_opened, 3 * rounds);
    assert_eq!((stats.accepted, stats.sessions_rejected, stats.expired), (rounds, rounds, rounds));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// snapshot → restore → snapshot is the identity on the bytes.
    #[test]
    fn snapshot_restore_is_a_byte_identical_fixed_point(
        sessions in 1usize..=MAX_SESSIONS,
        mask in any::<u8>(),
        clock in 0u64..900_000,
        shards in 1usize..=3,
    ) {
        let service = service_with(sessions, mask, clock, shards);
        let bytes = service.snapshot_bytes(0).expect("snapshot encodes");
        let restored = VerifierService::restore_bytes(&bytes, fixture().key.verification_key())
            .expect("own snapshot restores");
        let again = restored.snapshot_bytes(0).expect("re-snapshot encodes");
        prop_assert_eq!(bytes, again, "snapshot is not a fixed point");
    }

    /// Truncation at any cut point is a typed refusal, never a panic.
    #[test]
    fn truncated_snapshots_are_refused(
        sessions in 1usize..=MAX_SESSIONS,
        mask in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let service = service_with(sessions, mask, 0, 2);
        let bytes = service.snapshot_bytes(0).expect("snapshot encodes");
        let cut = cut % bytes.len();
        let refused = VerifierService::restore_bytes(&bytes[..cut], fixture().key.verification_key());
        prop_assert!(refused.is_err(), "a truncated snapshot restored");
    }

    /// Arbitrary single-bit corruption is refused: the digest covers the
    /// body, and every header field (magic, version, length) has its own
    /// typed check.  A flipped snapshot never yields a service — so it can
    /// never yield one with a lowered watermark.
    #[test]
    fn bit_flipped_snapshots_are_refused(
        sessions in 1usize..=MAX_SESSIONS,
        mask in any::<u8>(),
        bit in any::<usize>(),
    ) {
        let service = service_with(sessions, mask, 7, 2);
        let mut bytes = service.snapshot_bytes(0).expect("snapshot encodes");
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let refused = VerifierService::restore_bytes(&bytes, fixture().key.verification_key());
        prop_assert!(refused.is_err(), "a corrupted snapshot restored (bit {})", bit);
    }

    /// The replay hammer across a restore: spent nonces stay spent, held
    /// sessions were interrupted and are refused, fresh ids land above both
    /// the pre-snapshot window and the write-time reserve, and the restored
    /// books stay conserved through all of it.
    #[test]
    fn restores_accept_no_pre_snapshot_nonce(
        sessions in 1usize..=MAX_SESSIONS,
        mask in any::<u8>(),
        clock in 0u64..900_000,
        shards in 1usize..=3,
        reserve in 0u64..(1 << 32),
    ) {
        let f = fixture();
        let service = service_with(sessions, mask, clock, shards);
        let bytes = service.snapshot_bytes(reserve).expect("snapshot encodes");
        let restored = VerifierService::restore_bytes(&bytes, f.key.verification_key())
            .expect("own snapshot restores");
        prop_assert_eq!(restored.live_sessions(), 0);
        for i in 0..sessions {
            let state = if spent(mask, i) { "spent" } else { "held" };
            for attempt in ["first", "second"] {
                let verdict = common::decode_verdict(
                    &restored.handle_bytes(&f.evidence[i]).expect("verdict encodes"),
                );
                prop_assert_eq!(
                    verdict.reason_code, code::NONCE_REPLAYED,
                    "slot {} ({}): {} submission after restore not refused", i, state, attempt
                );
            }
        }
        let fresh = restored.open_session(f.inputs[0].clone()).expect("capacity");
        prop_assert!(
            fresh.0 > sessions as u64,
            "fresh id {} fell inside the pre-snapshot window", fresh.0
        );
        prop_assert!(fresh.0 > reserve, "fresh id {} undercuts the reserve {}", fresh.0, reserve);
        common::assert_stats_conserved(&restored.stats(), restored.live_sessions());
    }
}
