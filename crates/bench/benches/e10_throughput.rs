//! E10 — hot-path throughput trajectory: attested instructions/sec, hashed
//! bytes/sec and ns/permutation, against the recorded pre-PR baseline.
//!
//! Unlike E1–E9 (which regenerate tables of the paper), E10 tracks the
//! *simulator's own* performance over time: every hot-path PR must keep these
//! numbers moving in the right direction.  The JSON trajectory file is written
//! by `lofat bench-json` (see `BENCH_e10.json` at the repository root); this
//! bench prints the same measurements and times the underlying operations with
//! Criterion.  Set `E10_SMOKE=1` to use short measurement windows (CI).

use criterion::{criterion_group, criterion_main, Criterion};
use lofat::{EngineConfig, Verifier};
use lofat_bench::throughput::{measure, BASELINE, SYRINGE_UNITS};
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

fn print_table() {
    let (window, reps) = if smoke_mode() { (0.02, 1) } else { (0.5, 2) };
    let current = measure(window, reps);
    println!("\n=== E10: hot-path throughput (best of {reps} × {window}s windows) ===");
    println!("{:<34} {:>14} {:>14} {:>8}", "metric", "baseline", "current", "speedup");
    // (name, baseline, current, lower_is_better) — speedup is always >1 for wins.
    let rows = [
        (
            "attested instructions/sec",
            BASELINE.attested_instructions_per_sec,
            current.attested_instructions_per_sec,
            false,
        ),
        (
            "plain instructions/sec",
            BASELINE.plain_instructions_per_sec,
            current.plain_instructions_per_sec,
            false,
        ),
        ("hashed bytes/sec", BASELINE.hashed_bytes_per_sec, current.hashed_bytes_per_sec, false),
        ("ns/permutation", BASELINE.ns_per_permutation, current.ns_per_permutation, true),
    ];
    for (name, base, cur, lower_is_better) in rows {
        let speedup = if lower_is_better { base / cur } else { cur / base };
        println!("{name:<34} {base:>14.0} {cur:>14.0} {speedup:>7.2}x");
    }
    println!(
        "(baseline: pre-PR commit ae46754; regenerate BENCH_e10.json with `lofat bench-json`)"
    );
}

fn bench(c: &mut Criterion) {
    print_table();

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
