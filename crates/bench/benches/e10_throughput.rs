//! E10 — hot-path throughput: the attested and plain syringe-pump runs, a
//! branch-dense crc32 replay, SHA-3-512 and the Keccak-f\[1600\] permutation,
//! timed with Criterion.
//!
//! Unlike E1–E9 (which regenerate tables of the paper), E10 times the
//! *simulator's own* hot paths.  `lofat bench-json` measures their rates for
//! the paired bench gate (`scripts/bench_pair.py`); this bench times the
//! underlying operations.  Set `E10_SMOKE=1` for two Criterion samples per
//! case instead of ten (CI).

use criterion::{criterion_group, criterion_main, Criterion};
use lofat::{EngineConfig, Verifier};
use lofat_bench::throughput::SYRINGE_UNITS;
use lofat_bench::{run_attested, run_plain};
use lofat_crypto::keccak::KeccakState;
use lofat_crypto::{DeviceKey, Sha3_512};
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;

/// Inputs of the branch-dense replay case: crc32 buffers of 16-64 words, the
/// sizes a verifier's reference database covers in the round-trip benchmark.
const REPLAY_INPUTS: usize = 256;

fn smoke_mode() -> bool {
    std::env::var("E10_SMOKE").map(|v| v != "0").unwrap_or(false)
}

fn bench(c: &mut Criterion) {
    let workload = catalog::by_name("syringe-pump").expect("workload");
    let program = workload.program().expect("assemble");
    let input = [SYRINGE_UNITS];

    let mut group = c.benchmark_group("e10_throughput");
    group.sample_size(if smoke_mode() { 2 } else { 10 });
    group.bench_function("attested_syringe_pump", |b| {
        b.iter(|| run_attested(&program, &input, EngineConfig::default()))
    });
    group.bench_function("plain_syringe_pump", |b| b.iter(|| run_plain(&program, &input)));

    // Branch-dense attested replay (about 2.8 retired instructions per branch
    // event): the golden replay a verifier runs per reference input, which is
    // where the engine's per-event cost shows.  Not gated.
    let crc32 = catalog::by_name("crc32").expect("workload");
    let verifier = Verifier::new(
        crc32.program().expect("assemble"),
        "crc32",
        DeviceKey::from_seed("e10-replay").verification_key(),
    )
    .expect("verifier");
    let mut generator = InputGenerator::new(10);
    let inputs: Vec<Vec<u32>> =
        (0..REPLAY_INPUTS).map(|i| generator.input_for(&crc32, 16 + i % 49)).collect();
    group.bench_function("replay_crc32_256_inputs", |b| {
        b.iter(|| {
            inputs
                .iter()
                .map(|input| verifier.expected_measurement(input).expect("replay").1.instructions)
                .sum::<u64>()
        })
    });
    let buf = vec![0xA5u8; 1 << 20];
    group.bench_function("sha3_512_1mib", |b| b.iter(|| Sha3_512::digest(&buf)));
    group.bench_function("keccak_f1600_permutation", |b| {
        let mut state = KeccakState::new();
        b.iter(|| {
            state.permute();
            state.lanes()[0]
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
