//! E7 — size of the auxiliary metadata L as a function of the number of loops,
//! distinct paths per loop and indirect targets; independent of iteration counts
//! (§6.1).  Each table prints the paper's fixed-width layout (`L bytes`) beside
//! the packed, run-length form that travels and is signed (`packed`).  The
//! crc32 table shows the traffic of the benchmark's `fleet-cold` workload:
//! about one stored run per loop execution, each a record of the loop before
//! it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lofat::EngineConfig;
use lofat_bench::run_attested;
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;

fn print_table() {
    println!("\n=== E7: metadata size L ===");

    println!("-- sweep of loop iterations (syringe-pump; size should stay flat per record) --");
    println!(
        "{:>12} {:>12} {:>6} {:>14} {:>14} {:>8}",
        "units", "loop records", "runs", "iterations", "L bytes", "packed"
    );
    let pump = catalog::by_name("syringe-pump").expect("workload").program().expect("assemble");
    for units in [5u32, 20, 80, 320] {
        let (m, _) = run_attested(&pump, &[units], EngineConfig::default());
        println!(
            "{:>12} {:>12} {:>6} {:>14} {:>14} {:>8}",
            units,
            m.metadata.loop_count(),
            m.metadata.run_count(),
            m.metadata.decode().total_iterations(),
            m.metadata.size_bytes(),
            m.metadata.packed_len()
        );
    }

    println!("-- sweep of distinct paths per loop (diamond-paths) --");
    println!("{:>12} {:>15} {:>14} {:>8}", "iterations", "distinct paths", "L bytes", "packed");
    let diamond = catalog::by_name("diamond-paths").expect("workload").program().expect("assemble");
    for n in [2u32, 4, 8, 16, 64] {
        let (m, _) = run_attested(&diamond, &[n], EngineConfig::default());
        println!(
            "{:>12} {:>15} {:>14} {:>8}",
            n,
            m.metadata.decode().total_distinct_paths(),
            m.metadata.size_bytes(),
            m.metadata.packed_len()
        );
    }

    println!("-- sweep of indirect targets (dispatch) --");
    println!(
        "{:>14} {:>18} {:>14} {:>8}",
        "handlers used", "targets recorded", "L bytes", "packed"
    );
    let dispatch = catalog::by_name("dispatch").expect("workload").program().expect("assemble");
    for handlers in [1u32, 2, 3, 4] {
        let input: Vec<u32> = (0..12u32).map(|i| i % handlers).collect();
        let (m, _) = run_attested(&dispatch, &input, EngineConfig::default());
        let targets: usize =
            m.metadata.decode().loops.iter().map(|l| l.indirect_targets.len()).sum();
        let (fixed, packed) = (m.metadata.size_bytes(), m.metadata.packed_len());
        println!("{:>14} {:>18} {:>14} {:>8}", handlers, targets, fixed, packed);
    }
    println!("-- sweep of buffer length (crc32, generated buffers of 16-64 words) --");
    println!(
        "{:>8} {:>12} {:>6} {:>8} {:>14} {:>10}",
        "words", "loop records", "runs", "packed", "L bytes", "packed/loop"
    );
    let workload = catalog::by_name("crc32").expect("workload");
    let crc32 = workload.program().expect("assemble");
    let mut generator = InputGenerator::new(7);
    for words in [16usize, 32, 48, 64] {
        let input = generator.input_for(&workload, words);
        let (m, _) = run_attested(&crc32, &input, EngineConfig::default());
        let (loops, packed) = (m.metadata.loop_count(), m.metadata.packed_len());
        println!(
            "{:>8} {:>12} {:>6} {:>8} {:>14} {:>10.2}",
            words,
            loops,
            m.metadata.run_count(),
            packed,
            m.metadata.size_bytes(),
            packed as f64 / loops as f64
        );
    }
    println!("(paper: |L| depends on loops, paths per loop and indirect targets — not iterations)");
}

fn bench(c: &mut Criterion) {
    print_table();

    let mut group = c.benchmark_group("e7_metadata");
    group.sample_size(20);
    let diamond = catalog::by_name("diamond-paths").expect("workload").program().expect("assemble");
    for n in [8u32, 64] {
        group.bench_with_input(BenchmarkId::new("attest_and_serialise", n), &n, |b, &n| {
            b.iter(|| {
                let (m, _) = run_attested(&diamond, &[n], EngineConfig::default());
                m.metadata.to_bytes().len()
            })
        });
    }
    group.bench_function("metadata_serialisation_only", |b| {
        let (m, _) = run_attested(&diamond, &[64], EngineConfig::default());
        b.iter(|| m.metadata.to_bytes())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
