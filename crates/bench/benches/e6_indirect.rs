//! E6 — indirect branches in loops: CAM encoding of targets, capacity 2ⁿ − 1, and
//! all-zero overflow code (§5.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lofat::EngineConfig;
use lofat_bench::run_attested;
use lofat_workloads::catalog;

fn print_table() {
    println!("\n=== E6: indirect-branch target encoding ===");
    let workload = catalog::by_name("dispatch").expect("workload");
    let program = workload.program().expect("assemble");
    // Input exercising all four handlers repeatedly.
    let input: Vec<u32> = (0..16u32).map(|i| i % 4).collect();

    println!(
        "{:>3} {:>10} {:>18} {:>14} {:>14}",
        "n", "capacity", "targets recorded", "CAM overflows", "metadata bytes"
    );
    for bits in [1u32, 2, 3, 4, 8] {
        let config = EngineConfig::builder().indirect_target_bits(bits).build().expect("config");
        let (measurement, _) = run_attested(&program, &input, config);
        let targets: usize =
            measurement.metadata.decode().loops.iter().map(|l| l.indirect_targets.len()).sum();
        println!(
            "{:>3} {:>10} {:>18} {:>14} {:>14}",
            bits,
            config.max_indirect_targets(),
            targets,
            measurement.stats.cam_overflows,
            measurement.metadata.size_bytes(),
        );
    }
    println!("(paper: n = 4 → up to 15 targets per loop; overflow reported as the all-zero code)");
}

fn bench(c: &mut Criterion) {
    print_table();

    let workload = catalog::by_name("dispatch").expect("workload");
    let program = workload.program().expect("assemble");

    let mut group = c.benchmark_group("e6_indirect");
    group.sample_size(20);
    // `dispatch` holds 64 opcodes (`input: .space 256`).
    for opcodes in [8usize, 32, 64] {
        let input: Vec<u32> = (0..opcodes as u32).map(|i| i % 4).collect();
        group.bench_with_input(
            BenchmarkId::new("attest_dispatch_opcodes", opcodes),
            &input,
            |b, input| b.iter(|| run_attested(&program, input, EngineConfig::default())),
        );
    }
    group.bench_function("cam_encode_lookup", |b| {
        b.iter(|| {
            let mut cam = lofat::cam::IndirectTargetCam::new(4);
            let mut acc = 0u32;
            for i in 0..1_000u32 {
                acc = acc.wrapping_add(cam.encode(0x2000 + (i % 12) * 0x40));
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
