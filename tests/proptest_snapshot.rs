//! Property tests for the durable snapshot codec and restore path.
//!
//! * `snapshot → restore → snapshot` is a byte-identical fixed point for an
//!   arbitrary service state (sessions spent/held in any pattern, any clock,
//!   any shard count);
//! * truncation at any cut point and arbitrary single-bit corruption are
//!   refused with a typed [`lofat::wire::SnapshotError`], never a panic and
//!   never a service with a *lowered* watermark;
//! * across a snapshot/restore boundary every nonce is accepted **at most
//!   once** (spent nonces stay spent, held sessions get exactly one
//!   acceptance), the books stay conserved, and fresh sessions land above
//!   both the pre-snapshot ids and the write-time reserve.
//!
//! A plain test pins that a version-1 document, written before the database
//! carried its valid-path table, is refused by version.
//!
//! Case counts honour the vendored proptest's `PROPTEST_CASES` cap.

mod common;

use lofat::wire::{code, SnapshotError, SnapshotMsg};
use lofat::{MeasurementDatabase, ServiceConfig, VerifierService};
use lofat_crypto::DeviceKey;
use lofat_fleet::SlotBehaviour;
use proptest::prelude::*;
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

/// `tests/fixtures/snapshot/fig4-loop.v1.lfsn` is the snapshot `lofat serve
/// fig4-loop --snapshot-path` wrote at start-up when the format was version
/// 1.  Both the codec and the restore path refuse it by its version.
#[test]
fn version_1_snapshots_are_refused() {
    let bytes = std::fs::read("tests/fixtures/snapshot/fig4-loop.v1.lfsn").expect("fixture");
    assert!(matches!(
        SnapshotMsg::decode(&bytes),
        Err(SnapshotError::UnsupportedVersion { found: 1 })
    ));
    assert!(matches!(
        VerifierService::restore_bytes(&bytes, fixture().key.verification_key()),
        Err(SnapshotError::UnsupportedVersion { found: 1 })
    ));
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
    /// sessions are accepted exactly once, fresh ids land above both the
    /// pre-snapshot window and the write-time reserve, and the restored
    /// books stay conserved through all of it.
    #[test]
    fn restores_grant_exactly_one_acceptance_per_nonce(
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
        for i in 0..sessions {
            let first = common::decode_verdict(
                &restored.handle_bytes(&f.evidence[i]).expect("verdict encodes"),
            );
            if spent(mask, i) {
                prop_assert_eq!(
                    first.reason_code, code::NONCE_REPLAYED,
                    "slot {}: a spent nonce was not refused after restore", i
                );
            } else {
                prop_assert!(first.accepted, "slot {}: held session refused: {:?}", i, first);
            }
            let second = common::decode_verdict(
                &restored.handle_bytes(&f.evidence[i]).expect("verdict encodes"),
            );
            prop_assert_eq!(
                second.reason_code, code::NONCE_REPLAYED,
                "slot {}: a second acceptance slipped through", i
            );
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
