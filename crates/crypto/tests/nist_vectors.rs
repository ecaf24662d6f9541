//! Known-answer tests against published NIST FIPS 202 vectors and an
//! independent HMAC-SHA3-256, plus sign/verify round-trips for the HMAC and
//! Lamport constructions built on top of SHA-3.
//!
//! Sources:
//! * Keccak-f[1600] intermediate values from the Keccak team's reference
//!   `KeccakF-1600-IntermediateValues.txt` (permutation of the all-zero state).
//! * SHA3-256 / SHA3-512 digests of `""`, `"abc"` and one million `a`s from the
//!   NIST FIPS 202 example values.
//! * HMAC-SHA3-256 tags from Python's standard library (`hmac` over
//!   `hashlib.sha3_256`), which shares no code with this crate.
//!
//! Every golden digest is checked twice: through the scalar sponge and through
//! the 4-lane batch path (`digest_many`), with the vector planted in each of
//! the four lane positions and in ragged tail groups of 1–3 — so the
//! multi-lane Keccak kernel is pinned to the same FIPS 202 answers in every
//! slot it can occupy.

use lofat_crypto::keccak::KeccakState;
use lofat_crypto::sign::HmacVerifier;
use lofat_crypto::{
    DeviceKey, Digest, Hmac, HmacSigner, KeccakState4, LamportKeyPair, Sha3_256, Sha3_512,
    Signature, SignatureVerifier, Signer,
};
use proptest::prelude::*;

/// First lanes of Keccak-f[1600] applied once to the all-zero state.
const KECCAK_F_ZERO_ONCE: [u64; 5] = [
    0xf125_8f79_40e1_dde7,
    0x84d5_ccf9_33c0_478a,
    0xd598_261e_a65a_a9ee,
    0xbd15_4730_6f80_494d,
    0x8b28_4e05_6253_d057,
];

/// First lanes after applying the permutation a second time.
const KECCAK_F_ZERO_TWICE: [u64; 5] = [
    0x2d5c_954d_f96e_cb3c,
    0x6a33_2cd0_7057_b56d,
    0x093d_8d12_70d7_6b6c,
    0x8a20_d9b2_5569_d094,
    0x4f9c_4f99_e5e7_f156,
];

#[test]
fn keccak_f1600_permutation_of_zero_state() {
    let mut state = KeccakState::new();
    state.permute();
    for (index, &expected) in KECCAK_F_ZERO_ONCE.iter().enumerate() {
        assert_eq!(
            state.lanes()[index],
            expected,
            "lane {index} after one permutation of the zero state"
        );
    }
    state.permute();
    for (index, &expected) in KECCAK_F_ZERO_TWICE.iter().enumerate() {
        assert_eq!(
            state.lanes()[index],
            expected,
            "lane {index} after two permutations of the zero state"
        );
    }
}

#[test]
fn sha3_256_nist_short_vectors() {
    assert_eq!(
        Sha3_256::digest(b"").to_hex(),
        "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    );
    assert_eq!(
        Sha3_256::digest(b"abc").to_hex(),
        "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    );
    assert_eq!(
        Sha3_256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
        "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"
    );
}

#[test]
fn sha3_512_nist_short_vectors() {
    assert_eq!(
        Sha3_512::digest(b"").to_hex(),
        "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
         15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26"
    );
    assert_eq!(
        Sha3_512::digest(b"abc").to_hex(),
        "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
         10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
    );
}

#[test]
fn sha3_256_nist_million_a_vector() {
    let mut hasher = Sha3_256::new();
    let chunk = [b'a'; 1000];
    for _ in 0..1000 {
        hasher.update(chunk);
    }
    assert_eq!(
        hasher.finalize().to_hex(),
        "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1"
    );
}

#[test]
fn sha3_512_nist_million_a_vector() {
    let mut hasher = Sha3_512::new();
    let chunk = [b'a'; 1000];
    for _ in 0..1000 {
        hasher.update(chunk);
    }
    assert_eq!(
        hasher.finalize().to_hex(),
        "3c3a876da14034ab60627c077bb98f7e120a2a5370212dffb3385a18d4f38859\
         ed311d0a9d5141ce9cc5c66ee689b266a8aa18ace8282a0e0db596c90b0a7b87"
    );
}

/// The FIPS 202 message/digest pairs for SHA3-256 (message, hex digest).
fn sha3_256_vectors() -> Vec<(Vec<u8>, &'static str)> {
    vec![
        (b"".to_vec(), "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"),
        (b"abc".to_vec(), "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
            "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376",
        ),
        (vec![b'a'; 1_000_000], "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1"),
    ]
}

/// The FIPS 202 message/digest pairs for SHA3-512 (message, hex digest).
fn sha3_512_vectors() -> Vec<(Vec<u8>, &'static str)> {
    vec![
        (
            b"".to_vec(),
            "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
             15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26",
        ),
        (
            b"abc".to_vec(),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
             10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0",
        ),
        (
            vec![b'a'; 1_000_000],
            "3c3a876da14034ab60627c077bb98f7e120a2a5370212dffb3385a18d4f38859\
             ed311d0a9d5141ce9cc5c66ee689b266a8aa18ace8282a0e0db596c90b0a7b87",
        ),
    ]
}

/// Distinct filler messages so the other lanes of a 4-lane group never hash
/// the same bytes as the vector under test (a lane-mixing bug cannot hide).
fn filler(slot: usize) -> Vec<u8> {
    vec![0xA5 ^ slot as u8; 17 * slot + 3]
}

/// Plants `message` in every lane position of a full 4-lane group and checks
/// the digest in that position against `expected`; the filler lanes are
/// cross-checked against the scalar one-shot digest.
fn check_all_lane_positions(
    message: &[u8],
    expected: &str,
    digest_many: impl Fn(&[&[u8]]) -> Vec<String>,
    digest_one: impl Fn(&[u8]) -> String,
) {
    for position in 0..4 {
        let group: Vec<Vec<u8>> = (0..4)
            .map(|slot| if slot == position { message.to_vec() } else { filler(slot) })
            .collect();
        let refs: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        let digests = digest_many(&refs);
        assert_eq!(digests.len(), 4);
        for (slot, digest) in digests.iter().enumerate() {
            let want =
                if slot == position { expected.to_string() } else { digest_one(&group[slot]) };
            assert_eq!(digest, &want, "lane position {position}, slot {slot}");
        }
    }
    // Ragged groups of 1–3 take the scalar tail of the batch path; the
    // vector must survive every tail length and position too.
    for len in 1..4usize {
        for position in 0..len {
            let group: Vec<Vec<u8>> = (0..len)
                .map(|slot| if slot == position { message.to_vec() } else { filler(slot) })
                .collect();
            let refs: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
            let digests = digest_many(&refs);
            assert_eq!(digests[position], expected, "ragged group of {len}, vector at {position}");
        }
    }
}

#[test]
fn sha3_256_vectors_through_every_lane_of_the_batch_path() {
    for (message, expected) in sha3_256_vectors() {
        check_all_lane_positions(
            &message,
            expected,
            |group| Sha3_256::digest_many(group).iter().map(|d| d.to_hex()).collect(),
            |msg| Sha3_256::digest(msg).to_hex(),
        );
    }
}

#[test]
fn sha3_512_vectors_through_every_lane_of_the_batch_path() {
    for (message, expected) in sha3_512_vectors() {
        check_all_lane_positions(
            &message,
            expected,
            |group| Sha3_512::digest_many(group).iter().map(|d| d.to_hex()).collect(),
            |msg| Sha3_512::digest(msg).to_hex(),
        );
    }
}

#[test]
fn keccak_f1600_zero_state_through_the_packed_permutation() {
    // All four lanes of the packed state start at zero; one packed permute
    // must land every slot on the published intermediate values.
    let mut packed = KeccakState4::new();
    packed.permute();
    let states = packed.into_states();
    for (slot, state) in states.iter().enumerate() {
        for (index, &expected) in KECCAK_F_ZERO_ONCE.iter().enumerate() {
            assert_eq!(state.lanes()[index], expected, "slot {slot}, lane {index}");
        }
    }
}

proptest! {
    /// The dispatched packed permutation (SIMD kernel or slot-wise scalar
    /// fallback) equals four independent scalar permutations on arbitrary
    /// states — and so does the portable packed reference formulation.
    #[test]
    fn packed_permutation_matches_looped_scalar_on_random_states(
        lanes in proptest::collection::vec(any::<u64>(), 100..=100),
        rounds in 1usize..3,
    ) {
        let states: [KeccakState; 4] = std::array::from_fn(|slot| {
            let mut state = [0u64; 25];
            for (index, lane) in state.iter_mut().enumerate() {
                *lane = lanes[25 * slot + index];
            }
            KeccakState::from_lanes(state)
        });
        let mut dispatched = KeccakState4::from_states(&states);
        let mut portable = KeccakState4::from_states(&states);
        let mut looped = states;
        for _ in 0..rounds {
            dispatched.permute();
            portable.permute_portable();
            for state in &mut looped {
                state.permute();
            }
        }
        let dispatched = dispatched.into_states();
        let portable = portable.into_states();
        for slot in 0..4 {
            prop_assert_eq!(dispatched[slot].lanes(), looped[slot].lanes(), "slot {}", slot);
            prop_assert_eq!(portable[slot].lanes(), looped[slot].lanes(), "portable {}", slot);
        }
    }
}

/// HMAC-SHA3-256 known answers: `(key length, message length, tag)` over
/// [`kat_key`] and [`kat_message`] bytes, written by Python's standard library:
///
/// ```text
/// python3 -c "import hmac,hashlib; [print(k, m, hmac.new(bytes((7*i+1)%256 for i in range(k)), bytes((13*i+5)%256 for i in range(m)), hashlib.sha3_256).hexdigest()) for k in (0,3,32,135,136,137,200) for m in (0,1,135,136,137,291)]"
/// ```
///
/// The keys sit around SHA3-256's 136-byte block (longer keys are hashed
/// first); the messages around its rate, and at the 291 bytes a `fleet-cold`
/// report signs.
const HMAC_SHA3_256_VECTORS: [(usize, usize, &str); 42] = [
    (0, 0, "e841c164e5b4f10c9f3985587962af72fd607a951196fc92fb3a5251941784ea"),
    (0, 1, "9017700543370939061e84c2827cbf6171f5969c7c556438d90df2c0fb365b5e"),
    (0, 135, "a42c08c43f93ec24acd1501d4a638f6000e90174d9850ce9ee7dc77f81d148a1"),
    (0, 136, "2b315aefa30314df11c2b8293a36afe770301ab0bd638e36ce4f6b77c15746b0"),
    (0, 137, "87897a6d43f662ec0f4534a523b210b9eb85a448ea00bfe832e8c0afe746d187"),
    (0, 291, "318ca757cdcef12a17297f7737a400b696d689aaa7423b38c071585270dce45d"),
    (3, 0, "3777495c3218cb0e24f9d74309dcf69e14dc5569fbc2adabd9e140b5dcdf9383"),
    (3, 1, "d1405f7c494e45a3a168b4fccadf0e03712120e682fef39ceee2eb497439801b"),
    (3, 135, "eb6f9e90f8894321c51de5437b9abe2ac2a496464e3a13e280b98c2f35388f56"),
    (3, 136, "9e52061a7a290c4dea748832161ae01c0cac31b5eb741205f2711301e78229d6"),
    (3, 137, "fb39709ec33b48bde9ad0baca4172823528f955d3679ee3754359c93432b6fc5"),
    (3, 291, "fdfce74fd722cbc14eeabc0700029aaaa1e312265dcc81117fff3720334a77bb"),
    (32, 0, "f6afb6dffb49d42679fb3c95e5d61cdf2ae991281738db3681c2d75d082a9d8c"),
    (32, 1, "1b49a46c3b272a27ddad1c1b00970c1c0600f4a53faf7b19f19fea735b4ef930"),
    (32, 135, "d995a81af663955fd6cfa9e12cfb498593d1d4296ec18bc25c6defbbf7dfe569"),
    (32, 136, "f822884ce8257ea947f78766d2a05a127d671724ec863015028cb4c162f76f6a"),
    (32, 137, "fcd4dd04b595f0621bc332ce3355443b98d05cef0fe82107877fa426a9a9466f"),
    (32, 291, "ef8ec85606cafab7433290ee616a2b26105bdd5553254f5066f9203c873ff8b6"),
    (135, 0, "f43d9d53763b7f785aaaefc39072a181941a4c11809bb4985cb2bb77488bb095"),
    (135, 1, "65a5e81d8a5c1f10117795eaab00ed960725ba753b03472cd4ffe77efceb05fd"),
    (135, 135, "bd222c69cc00b3fd797e332f2a3a4794c5508138c61933659d403637925840ef"),
    (135, 136, "a18c0d687840eee33bd9d36181ae4eef74d4915151db9a7d144f725ec17add5c"),
    (135, 137, "7f38e3c9aa964e1b55f19b3ea445cc2830fcb4e966f78a355cf2d4b7f6b38590"),
    (135, 291, "dfede4138b78c059183f7ec925c0a7ce19489b9baf7fb163b27fa09d4f5783ad"),
    (136, 0, "f06cbd7c18b50293e5bbdc310d87b624f1fbc222f8eb7cf82407d37295f8207b"),
    (136, 1, "5b912e9423dfd06699ebf51f841938a554cb065d5345049dbc3617d5eeefdf0e"),
    (136, 135, "eb1074c7ec111858546c25787e96c7a5655dca7b607139bffda3956b0995a405"),
    (136, 136, "c527b3651ad9f8f34a12636177d8e70f277e49f7161ca679f8493a1901896eb2"),
    (136, 137, "019ebd08f3fbfd24c521c71e653979e1fb4f74559717647295f31a86ee3dc3be"),
    (136, 291, "f9fd5183b0e56826b147c28a4e1e604f8ec1310cfc85db9e7043b2898e0463a1"),
    (137, 0, "82aff2661adb9a5ae09521d976b48097e4f0ecd96a5d843e6440fab65beb2b96"),
    (137, 1, "8a2f5a2a64b532b49b46998685252d6f8c14427fb199214cfda006e7a8eca142"),
    (137, 135, "c11c0a2598a4784d0a18da51b47b0a87d0d2c8ba4a57eaa5a0b5839649b3f869"),
    (137, 136, "2d11ffd402cbbdfb1ca8fc3df13ab2e6937802ed3cbc91b92238b4e0dadaef74"),
    (137, 137, "9c299e33c48e2fa7a482cb744ca6f34331ce66a7e4eb768c983bfcc08fa7d42f"),
    (137, 291, "f63f5763a15a16c6c03b98b1060f0f9cb4f2e04b30b4fb9c3957ce929d10b4b0"),
    (200, 0, "a473353097957460b7598079441795d0169510baa981df07d026b3cdc7c26b0b"),
    (200, 1, "91f96b2176541995b1544b3bbd5213ef3c2d3026ce221a657bd83b55288505eb"),
    (200, 135, "e735246ab7d6867953803a4fabdc8c0cbceabfcc2e4963b0b05728ddbb07ce2c"),
    (200, 136, "be7071d30292bf62fbf256c9f6ff106b3aaae0d2e406290a444242299f5a3ee7"),
    (200, 137, "b72b4d54e594a7a80d110c7865d3846cc3432b8cf68a1f5630c06862fa389240"),
    (200, 291, "b1893b83a0a7251e7560f0cf7b85b94d844d314c9a0deb68eb2595365c973b8e"),
];

/// `DeviceKey::from_seed("golden-evidence")` (the first 32 bytes of its
/// SHA3-512 digest) and its tags over [`kat_message`]s of each length:
///
/// ```text
/// python3 -c "import hmac,hashlib; k=hashlib.sha3_512(b'golden-evidence').digest()[:32]; [print(m, hmac.new(k, bytes((13*i+5)%256 for i in range(m)), hashlib.sha3_256).hexdigest()) for m in (0,113,291)]"
/// ```
const SEEDED_KEY_VECTORS: [(usize, &str); 3] = [
    (0, "0801d5b392ce52217879c43988df0bb5f779a26f9c3cf3160c1517046c9db771"),
    (113, "36248ffdf2796669859c7ad96c7b5226ba47718e74417fc06c8e93f3d76fe6f8"),
    (291, "6b34fe4ed5bb61b0a1cb4b7064196d20bbdda5cc80a2fd510526da83f4525a12"),
];

/// The key bytes of a known answer: byte `i` is `7i + 1` mod 256.
fn kat_key(len: usize) -> Vec<u8> {
    (0..len).map(|i| (7 * i + 1) as u8).collect()
}

/// The message bytes of a known answer: byte `i` is `13i + 5` mod 256.
fn kat_message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (13 * i + 5) as u8).collect()
}

#[test]
fn hmac_sha3_256_known_answers_one_shot_and_incremental() {
    for (key_len, message_len, expected) in HMAC_SHA3_256_VECTORS {
        let (key, message) = (kat_key(key_len), kat_message(message_len));
        let vector = format!("key {key_len} B, message {message_len} B");
        assert_eq!(Hmac::mac(&key, &message).to_hex(), expected, "{vector}");
        // Split points at the lane and block edges of the inner hash.
        for cut in [0, 1, 7, 8, 72, 135, 136, 137, message_len / 2, message_len] {
            let cut = cut.min(message_len);
            let mut mac = Hmac::new(&key);
            mac.update(&message[..cut]);
            mac.update(&message[cut..]);
            assert_eq!(mac.finalize().to_hex(), expected, "{vector}, cut at {cut}");
        }
        for chunk in [1, 3, 8, 136] {
            let mut mac = Hmac::new(&key);
            for piece in message.chunks(chunk) {
                mac.update(piece);
            }
            assert_eq!(mac.finalize().to_hex(), expected, "{vector}, {chunk}-byte chunks");
        }
    }
}

#[test]
fn hmac_sha3_256_known_answers_through_every_lane_of_finalize_many() {
    // In-flight fillers under their own key and of assorted lengths, so a
    // lane that mixes in another's key or bytes cannot hide.
    let filler_key = kat_key(17);
    let filler = |slot: usize| {
        let mut mac = Hmac::new(&filler_key);
        mac.update(vec![0xA5 ^ slot as u8; 41 * slot + 3]);
        mac
    };
    let filler_tag = |slot: usize| Hmac::mac(&filler_key, &vec![0xA5 ^ slot as u8; 41 * slot + 3]);
    assert!(Hmac::finalize_many(Vec::new()).is_empty());
    for (key_len, message_len, expected) in HMAC_SHA3_256_VECTORS {
        let (key, message) = (kat_key(key_len), kat_message(message_len));
        // Batches of 1 to 9: full 4-lane groups and ragged tails of 0 to 3.
        for count in 1..=9usize {
            for position in 0..count {
                let macs: Vec<Hmac> = (0..count)
                    .map(|slot| {
                        if slot != position {
                            return filler(slot);
                        }
                        let mut mac = Hmac::new(&key);
                        mac.update(&message);
                        mac
                    })
                    .collect();
                let tags = Hmac::finalize_many(macs);
                assert_eq!(tags.len(), count);
                for (slot, tag) in tags.iter().enumerate() {
                    if slot == position {
                        let vector = format!("key {key_len} B, message {message_len} B");
                        assert_eq!(tag.to_hex(), expected, "{vector}, {position} of {count}");
                    } else {
                        assert_eq!(tag, &filler_tag(slot), "filler {slot} of {count}");
                    }
                }
            }
        }
    }
}

#[test]
fn hmac_sha3_256_known_answers_through_mac_many() {
    for key_len in [0, 3, 32, 135, 136, 137, 200] {
        let key = kat_key(key_len);
        let vectors: Vec<(usize, &str)> = HMAC_SHA3_256_VECTORS
            .iter()
            .filter(|(k, _, _)| *k == key_len)
            .map(|&(_, message_len, tag)| (message_len, tag))
            .collect();
        assert_eq!(vectors.len(), 6);
        // Every rotation puts each message in each lockstep lane and in the
        // scalar tail once.
        for rotation in 0..vectors.len() {
            let mut order = vectors.clone();
            order.rotate_left(rotation);
            let messages: Vec<Vec<u8>> = order.iter().map(|&(len, _)| kat_message(len)).collect();
            let tags = Hmac::mac_many(&key, &messages);
            for ((message_len, expected), tag) in order.iter().zip(&tags) {
                let vector = format!("key {key_len} B, message {message_len} B");
                assert_eq!(tag.to_hex(), *expected, "{vector}, rotation {rotation}");
            }
        }
    }
}

#[test]
fn hmac_sha3_256_known_answers_through_the_signer_and_verifier() {
    let keyed: Vec<(DeviceKey, usize, &str)> = HMAC_SHA3_256_VECTORS
        .iter()
        .filter(|(key_len, _, _)| *key_len == 32)
        .map(|&(_, len, tag)| (DeviceKey::from_bytes(&kat_key(32)).expect("32 bytes"), len, tag))
        .chain(
            SEEDED_KEY_VECTORS
                .iter()
                .map(|&(len, tag)| (DeviceKey::from_seed("golden-evidence"), len, tag)),
        )
        .collect();
    assert_eq!(keyed.len(), 9);
    for (key, message_len, expected) in keyed {
        let message = kat_message(message_len);
        let verifier = HmacVerifier::new(key.verification_key());
        let mut signer = HmacSigner::new(key);
        let signature = signer.sign(&message).expect("sign");
        assert_eq!(Digest::from_bytes(signature.as_bytes().to_vec()).to_hex(), expected);
        assert!(verifier.verify(&message, &signature).is_ok(), "{message_len} B");
        let mut forged = signature.as_bytes().to_vec();
        forged[31] ^= 0x80;
        assert!(verifier.verify(&message, &Signature::from_bytes(forged)).is_err());
    }
}

#[test]
fn hmac_mac_and_verify_round_trip() {
    let key = b"lofat hmac key";
    let message = b"attestation report payload";
    let tag = Hmac::mac(key, message);
    assert!(Hmac::verify(key, message, &tag));
    assert!(!Hmac::verify(key, b"attestation report payloae", &tag));
    assert!(!Hmac::verify(b"other key", message, &tag));

    // Incremental MAC equals one-shot MAC across arbitrary split points.
    let mut incremental = Hmac::new(key);
    incremental.update(&message[..7]);
    incremental.update(&message[7..]);
    assert_eq!(incremental.finalize(), tag);
}

#[test]
fn hmac_signer_round_trip_through_device_key() {
    let key = DeviceKey::from_seed("nist-kat-device");
    let mut signer = HmacSigner::new(key.clone());
    let payload = b"A || L || N";
    let signature = signer.sign(payload).expect("sign");
    let verifier = HmacVerifier::new(key.verification_key());
    assert!(verifier.verify(payload, &signature).is_ok());
    assert!(verifier.verify(b"A || L || N'", &signature).is_err());
}

#[test]
fn lamport_sign_verify_round_trip() {
    let mut keypair = LamportKeyPair::from_seed(b"nist-kat-lamport");
    let public = keypair.public_key();
    let message = b"one-time attestation";
    let signature = keypair.sign(message).expect("first signature");
    assert!(public.verify(message, &signature).is_ok());
    assert!(public.verify(b"another message", &signature).is_err());
    assert!(keypair.sign(message).is_err(), "Lamport keys are strictly one-time");
}
