//! Structure-aware wire fuzzing of the network boundary.
//!
//! The socket is where hostile bytes arrive first, so the server's contract
//! under malformed input is tested adversarially: for a seeded corpus of
//! known-hostile shapes (truncations at every cut, bad magic, future
//! versions, trailing bytes, misdirected message kinds, oversized length
//! prefixes, slow-loris partial frames) and for deterministic
//! vendored-proptest barrages of structured mutations of honest evidence
//! (byte flips, cuts, noise, rewritten headers, and the runs of its packed
//! `L` split, merged and re-counted), the server (`EventLoopServer`, the one
//! `lofat serve` runs) must
//!
//! * **never panic** — every case gets an answer, and an honest round trip
//!   still succeeds after the barrage;
//! * **never accept a forged report** — any frame that differs from the
//!   honest evidence is rejected;
//! * **always answer with the correct `wire::code`** (exact codes for the
//!   seeded corpus, a known-code bound for arbitrary mutations) **or close
//!   cleanly** (hostile length prefixes and abandoned partial frames);
//! * **keep the books** — hostile frames are counted through the shared
//!   `record_verdict` path and the conservation law holds afterwards.
//!
//! Case counts honour the vendored proptest's `PROPTEST_CASES` cap, exactly
//! like the other property suites.

mod common;

use lofat::session::ProverSession;
use lofat::wire::{code, Envelope, EvidenceMsg, Message, SessionId, VerdictMsg};
use lofat::{PackedMetadata, Prover, ServiceConfig, VerifierService};
use lofat_net::ProverClient;
use proptest::prelude::*;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

const WORKLOAD: &str = "fig4-loop";
const INPUT: &[u32] = &[4];

/// One server shared by every fuzz case in this binary: surviving the whole
/// barrage on a single instance *is* the no-panic property.
struct Harness {
    server: lofat_net::EventLoopServer,
    service: Arc<VerifierService>,
    prover: Mutex<Prover>,
}

fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let (_, service, prover) = common::workload_service_arc(
            WORKLOAD,
            "fuzz-net",
            &[INPUT.to_vec()],
            ServiceConfig::sharded(2),
        );
        let server =
            common::serve(Arc::clone(&service), common::net_server_config("fuzz_wire_net"));
        Harness { server, service, prover: Mutex::new(prover) }
    })
}

/// The tests in this binary share one [`Harness`] deliberately (one server
/// surviving the whole barrage *is* the no-panic property), but libtest runs
/// test fns on parallel threads — and the exact-count and conservation
/// assertions must not observe another test mid-`open_session` or
/// mid-submission.  Every case against the shared harness holds this lock; a
/// panicking case poisons it, and later tests strip the poison so one failure
/// does not cascade into the rest.
static BARRAGE: Mutex<()> = Mutex::new(());

fn serialised() -> std::sync::MutexGuard<'static, ()> {
    BARRAGE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Opens a fresh session and produces its honest evidence frame (the
/// mutation base).  The challenge is taken straight from the service — the
/// socket path for challenges is e14's subject; here the server is the
/// target of the *evidence* bytes.
fn fresh_evidence(h: &Harness) -> (SessionId, Vec<u8>) {
    let id = h.service.open_session(INPUT.to_vec()).expect("fuzz session capacity");
    let challenge = h.service.challenge_envelope(id).expect("challenge").encode().expect("enc");
    let evidence = ProverSession::new(&mut h.prover.lock().expect("prover lock"))
        .handle_bytes(&challenge)
        .expect("prover answers");
    (id, evidence)
}

/// Sends one frame on a fresh connection and returns the decoded verdict.
fn submit(h: &Harness, frame: &[u8]) -> VerdictMsg {
    let mut client = ProverClient::connect(h.server.local_addr()).expect("connect");
    let mut raw = client.raw();
    raw.send(frame).expect("send fuzz frame");
    let reply = raw.recv().expect("read reply").expect("server answered");
    common::decode_verdict(&reply)
}

/// syringe-pump's packed `L` at 100 units: three runs, a base with runs to
/// merge.
fn syringe_pump_metadata() -> &'static PackedMetadata {
    static METADATA: OnceLock<PackedMetadata> = OnceLock::new();
    METADATA.get_or_init(|| {
        let workload = lofat_workloads::catalog::by_name("syringe-pump").expect("workload");
        common::attest_workload(&workload, &[100]).0.metadata
    })
}

/// Every stable reason code a rejection may legitimately carry.
fn known_rejection_code(reason: u16) -> bool {
    (1..=6).contains(&reason) || (code::UNKNOWN_SESSION..=code::AT_CAPACITY).contains(&reason)
}

/// The shared postcondition of every hostile case: the interrupted session
/// is still answerable (nothing spent it), and the books balance.
fn assert_survivable(h: &Harness, id: SessionId, honest: &[u8]) {
    let verdict = submit(h, honest);
    assert!(verdict.accepted, "session {id} no longer answerable: {verdict:?}");
    common::assert_stats_conserved(&h.service.stats(), h.service.live_sessions());
}

// ---------------------------------------------------------------------------
// Seeded corpus: exact codes for every known-hostile shape
// ---------------------------------------------------------------------------

#[test]
fn corpus_truncations_at_every_cut_are_malformed() {
    let _serial = serialised();
    let h = harness();
    let (id, honest) = fresh_evidence(h);
    for cut in 0..honest.len() {
        let verdict = submit(h, &honest[..cut]);
        assert!(!verdict.accepted, "cut {cut} accepted");
        assert_eq!(verdict.reason_code, code::MALFORMED, "cut {cut}: {verdict:?}");
    }
    assert_survivable(h, id, &honest);
}

#[test]
fn corpus_bad_magic_and_versions_carry_their_codes() {
    let _serial = serialised();
    let h = harness();
    let (id, honest) = fresh_evidence(h);
    for byte in [0usize, 1, 2, 3] {
        let mut bad_magic = honest.clone();
        bad_magic[byte] ^= 0xff;
        let verdict = submit(h, &bad_magic);
        assert_eq!(verdict.reason_code, code::MALFORMED, "magic byte {byte}: {verdict:?}");
    }
    // Version 1 is what a prover built before `L` travelled packed sends,
    // version 2 one built before `L` travelled run-length and signed,
    // version 3 one built before the version-4 grammar of `L`, and version
    // 4 one built before the version-5 grammar.
    for version in [0u16, 1, 2, 3, 4, 6, 7, 0xffff] {
        let mut bumped = honest.clone();
        bumped[4..6].copy_from_slice(&version.to_le_bytes());
        let verdict = submit(h, &bumped);
        assert_eq!(
            verdict.reason_code,
            code::UNSUPPORTED_VERSION,
            "version {version}: {verdict:?}"
        );
    }
    let mut trailing = honest.clone();
    trailing.push(0xAA);
    assert_eq!(submit(h, &trailing).reason_code, code::MALFORMED);
    assert_survivable(h, id, &honest);
}

#[test]
fn corpus_misdirected_kinds_carry_their_codes() {
    let _serial = serialised();
    let h = harness();
    let (id, honest) = fresh_evidence(h);

    // A challenge re-sent at the server lands on the live session and is
    // refused by kind.
    let challenge = h.service.challenge_envelope(id).expect("live").encode().expect("enc");
    assert_eq!(submit(h, &challenge).reason_code, code::UNEXPECTED_MESSAGE);

    // A verdict aimed at a session nobody opened.
    let stray = Envelope::new(SessionId(0), Message::Verdict(VerdictMsg::accepted(None)))
        .encode()
        .expect("enc");
    assert_eq!(submit(h, &stray).reason_code, code::UNKNOWN_SESSION);

    // Evidence for a session id far beyond anything issued.
    let mut misrouted = Envelope::decode(&honest).expect("honest decodes");
    misrouted.session = SessionId(u64::MAX);
    let verdict = submit(h, &misrouted.encode().expect("enc"));
    assert_eq!(verdict.reason_code, code::UNKNOWN_SESSION, "{verdict:?}");

    assert_survivable(h, id, &honest);
}

#[test]
fn corpus_oversized_prefixes_answer_then_close() {
    let _serial = serialised();
    let h = harness();
    let (id, honest) = fresh_evidence(h);
    let wire_errors_before = h.service.stats().wire_errors;
    for hostile_len in [(1u32 << 20) + 1, u32::MAX / 2, u32::MAX] {
        let mut raw = std::net::TcpStream::connect(h.server.local_addr()).expect("connect raw");
        raw.write_all(&hostile_len.to_le_bytes()).expect("hostile prefix");
        let reply = lofat_net::frame::read_frame(&mut raw, 1 << 20)
            .expect("server answers before closing")
            .expect("a verdict frame");
        assert_eq!(common::decode_verdict(&reply).reason_code, code::MALFORMED);
        // ...and then the connection is closed cleanly: the stream cannot be
        // resynchronised after a lying length.
        assert_eq!(lofat_net::frame::read_frame(&mut raw, 1 << 20).expect("clean close"), None);
    }
    assert_eq!(h.service.stats().wire_errors, wire_errors_before + 3, "each prefix was counted");
    assert_survivable(h, id, &honest);
}

#[test]
fn corpus_slow_loris_partial_frames_close_cleanly() {
    // A dedicated server with a tight read deadline: the slow writer must be
    // disconnected by the deadline, not held forever.
    let (_, service, mut prover) = common::workload_service_arc(
        WORKLOAD,
        "fuzz-loris",
        &[INPUT.to_vec()],
        ServiceConfig::default(),
    );
    let mut config = common::net_server_config("fuzz_slow_loris");
    config.limits = config.limits.with_read_timeout(Some(std::time::Duration::from_millis(200)));
    let server = common::serve(Arc::clone(&service), config);

    // ① Partial frame, then the peer gives up: counted once observed.
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&64u32.to_le_bytes()).expect("header");
        raw.write_all(b"only a few bytes").expect("partial body");
        drop(raw);
    }
    // ② Partial frame, then the peer stalls: the read deadline closes it.
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&64u32.to_le_bytes()).expect("header");
        raw.write_all(b"then silence").expect("partial body");
        let mut probe = [0u8; 1];
        // The server closes the connection without answering; give it until
        // well past the deadline.
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("probe timeout");
        let read = std::io::Read::read(&mut raw, &mut probe).expect("close observed");
        assert_eq!(read, 0, "the server closed the slow-loris connection");
    }
    // The abandoned partial frame (①) entered the books; the stalled one (②)
    // timed out at a frame boundary mid-frame and was dropped on the floor by
    // the deadline — poll briefly for the asynchronous close handling.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while service.stats().wire_errors < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(service.stats().wire_errors >= 1, "{:?}", service.stats());

    // The server is still alive and still verifying.
    let id = service.open_session(INPUT.to_vec()).expect("capacity");
    let challenge = service.challenge_envelope(id).expect("challenge").encode().expect("enc");
    let evidence = ProverSession::new(&mut prover).handle_bytes(&challenge).expect("prover");
    let mut client = ProverClient::connect(server.local_addr()).expect("connect");
    let (_, verdict) = client.submit_evidence(&evidence).expect("honest round trip");
    assert!(verdict.accepted, "{verdict:?}");
    common::assert_stats_conserved(&service.stats(), service.live_sessions());
    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Deterministic structured mutation barrages (vendored-proptest style)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary single-byte corruption of honest evidence: never accepted,
    /// always answered with a known stable code, never spends the session.
    #[test]
    fn flipped_evidence_is_never_accepted(index in any::<usize>(), flip in 1u8..=255) {
        let _serial = serialised();
        let h = harness();
        let (id, honest) = fresh_evidence(h);
        let mut mutated = honest.clone();
        let index = index % mutated.len();
        mutated[index] ^= flip;
        let verdict = submit(h, &mutated);
        prop_assert!(!verdict.accepted, "byte {index} ^ {flip:#04x} accepted: {verdict:?}");
        prop_assert!(
            known_rejection_code(verdict.reason_code),
            "byte {index} ^ {flip:#04x} produced unknown code {}",
            verdict.reason_code
        );
        assert_survivable(h, id, &honest);
    }

    /// Random cuts of honest evidence (frame-level truncation): always the
    /// MALFORMED code, never a hang, never a panic.
    #[test]
    fn random_truncations_are_malformed(cut in any::<usize>()) {
        let _serial = serialised();
        let h = harness();
        let (id, honest) = fresh_evidence(h);
        let cut = cut % honest.len();
        let verdict = submit(h, &honest[..cut]);
        prop_assert_eq!(verdict.reason_code, code::MALFORMED);
        assert_survivable(h, id, &honest);
    }

    /// Pure noise frames: the decoder classifies them without panicking and
    /// the server answers every one.
    #[test]
    fn noise_frames_are_answered(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _serial = serialised();
        let h = harness();
        let verdict = submit(h, &noise);
        prop_assert!(!verdict.accepted, "noise accepted: {verdict:?}");
        prop_assert!(
            known_rejection_code(verdict.reason_code),
            "noise produced unknown code {}",
            verdict.reason_code
        );
        common::assert_stats_conserved(&h.service.stats(), h.service.live_sessions());
    }

    /// Structured header corruption: session ids and body lengths rewritten
    /// wholesale — the reply is typed, the honest session survives.
    #[test]
    fn rewritten_headers_are_typed(session in any::<u64>(), delta in 1u32..64) {
        let _serial = serialised();
        let h = harness();
        let (id, honest) = fresh_evidence(h);

        // Rewrite the addressed session outright.
        let mut readdressed = honest.clone();
        readdressed[6..14].copy_from_slice(&session.to_le_bytes());
        let verdict = submit(h, &readdressed);
        if session != id.0 {
            prop_assert!(!verdict.accepted, "readdressed to {session} accepted");
            prop_assert!(known_rejection_code(verdict.reason_code));
        }

        // Inflate the declared body length beyond the actual body.
        let mut inflated = honest.clone();
        let declared = u32::from_le_bytes(inflated[14..18].try_into().unwrap());
        inflated[14..18].copy_from_slice(&(declared + delta).to_le_bytes());
        let verdict = submit(h, &inflated);
        prop_assert_eq!(verdict.reason_code, code::MALFORMED);

        assert_survivable(h, id, &honest);
    }

    /// The runs of a packed `L` — the honest one, or syringe-pump's three —
    /// split across two stored records, merged with the next run or
    /// re-counted, and spliced into honest evidence: never accepted.  An edit
    /// that leaves a record equal to its neighbour, or more than `u32::MAX`
    /// loop executions, is malformed; any other is a valid `L` the signature
    /// does not cover.
    #[test]
    fn split_merged_and_re_counted_runs_are_never_accepted(
        syringe_pump in any::<bool>(),
        op in 0..3u8,
        pick in any::<usize>(),
        count in prop_oneof![1..1_000u64, Just(u32::MAX.into()), Just(u64::from(u32::MAX) + 1)],
    ) {
        let _serial = serialised();
        let h = harness();
        let (id, honest) = fresh_evidence(h);
        let Message::Evidence(EvidenceMsg { report }) =
            Envelope::decode(&honest).expect("honest decodes").message
        else {
            panic!("evidence")
        };
        let base = if syringe_pump { syringe_pump_metadata() } else { &report.metadata };
        let mut runs = common::runs(&base.decode());
        let at = pick % runs.len();
        match op {
            0 => {
                let (record, n) = runs[at].clone();
                let first = 1 + count % n;
                runs[at].1 = first;
                runs.insert(at + 1, (record, (n - first).max(1)));
            }
            1 if runs.len() > 1 => {
                let at = at.min(runs.len() - 2);
                let (_, n) = runs.remove(at + 1);
                runs[at].1 += n;
            }
            _ => runs[at].1 = if count == runs[at].1 { count + 1 } else { count },
        }
        let blob = common::pack_runs(&runs);
        prop_assert_ne!(&blob[..], report.metadata.as_bytes());
        let maximal = runs.windows(2).all(|pair| pair[0].0 != pair[1].0);
        let total: u64 = runs.iter().map(|(_, n)| n).sum();
        let expected = if maximal && total <= u32::MAX.into() {
            code::BAD_SIGNATURE
        } else {
            code::MALFORMED
        };
        let verdict = submit(h, &common::splice_metadata(&honest, &blob));
        prop_assert_eq!(verdict.reason_code, expected, "op {} on {:?}: {:?}", op, runs, verdict);
        assert_survivable(h, id, &honest);
    }
}

/// After the whole barrage (this runs in the same binary, so the shared
/// server has by now seen every hostile case of every other test): a final
/// honest round trip over the full client path still succeeds and the
/// conservation law still holds.
#[test]
fn zz_server_survives_the_whole_barrage() {
    let _serial = serialised();
    let h = harness();
    let mut client = ProverClient::connect(h.server.local_addr()).expect("connect");
    let outcome = client
        .attest(&mut h.prover.lock().expect("prover lock"), INPUT.to_vec())
        .expect("honest attest after the barrage");
    assert!(outcome.verdict.accepted, "{:?}", outcome.verdict);
    common::assert_stats_conserved(&h.service.stats(), h.service.live_sessions());
}
