//! Golden engine corpus — every observable output of the LO-FAT engine,
//! pinned per (workload, config) group.
//!
//! Each group replays one input set under one engine configuration and folds
//! every run's exit information, authenticator `A`, fixed-width metadata
//! bytes (`PackedMetadata::to_bytes`, every run expanded) and all 14
//! [`lofat::EngineStats`] counters into one
//! SHA3-256.  The fixture `tests/fixtures/engine/golden.txt` holds one line per
//! group: `<workload> <config> <hex digest>`.  A change to the engine's
//! internals that alters any output, for any input, under any configuration,
//! shows up as a named mismatching group.
//!
//! Inputs: every catalogue workload on its default input; seeded inputs from
//! [`InputGenerator`] for crc32 (16-64 words) and syringe-pump (volumes
//! 100-1000), the size ranges the round-trip benchmark draws from; and the
//! externally assembled `tests/fixtures/fib10.elf`.
//!
//! Configurations: the default, plus one per corner of the engine — loop
//! compression off, a 2-bit path encoder (overflows), a 1-bit indirect-target
//! CAM (overflows), one nesting level (untracked inner loops), a 1-word hash
//! input buffer (back-pressure on every word) and an attested region holding
//! only the middle half of the text.
//!
//! Regenerate the fixture (only when an output change is intended) with
//! `cargo test --test engine_golden -- --ignored regenerate`.

mod common;

use lofat::{EngineConfig, Measurement};
use lofat_crypto::{HashEngineConfig, Sha3_256};
use lofat_rv32::{ExitInfo, ExitReason, Program};
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/engine/golden.txt";

/// Seed of the generated crc32 and syringe-pump inputs.
const INPUT_SEED: u64 = 20;

/// crc32 buffer lengths, spanning the benchmark's 16-64 words.
const CRC32_LENGTHS: [usize; 5] = [16, 27, 38, 51, 64];

/// Syringe-pump volumes, spanning the benchmark's 100-1000 units.
const SYRINGE_VOLUMES: [usize; 4] = [100, 377, 642, 1000];

/// One input set: a program and the inputs it is replayed on.
struct Corpus {
    name: String,
    program: Program,
    inputs: Vec<Vec<u32>>,
}

fn corpora() -> Vec<Corpus> {
    let mut corpora: Vec<Corpus> = catalog::all()
        .into_iter()
        .map(|w| Corpus {
            name: w.name.to_string(),
            program: w.program().expect("assemble"),
            inputs: vec![w.default_input.clone()],
        })
        .collect();
    let mut generator = InputGenerator::new(INPUT_SEED);
    for (name, sizes) in [("crc32", &CRC32_LENGTHS[..]), ("syringe-pump", &SYRINGE_VOLUMES[..])] {
        let workload = catalog::by_name(name).expect("catalogue workload");
        corpora.push(Corpus {
            name: format!("{name}-seeded"),
            program: workload.program().expect("assemble"),
            inputs: sizes.iter().map(|&n| generator.input_for(&workload, n)).collect(),
        });
    }
    let elf = std::fs::read("tests/fixtures/fib10.elf").expect("read tests/fixtures/fib10.elf");
    corpora.push(Corpus {
        name: "fib10-elf".into(),
        program: lofat_rv32::elf::parse(&elf).expect("fixture parses"),
        inputs: vec![Vec::new()],
    });
    corpora
}

/// The configurations, named; `program` places the partial attest region.
fn configs(program: &Program) -> Vec<(&'static str, EngineConfig)> {
    let words = program.text.len() as u32;
    let region_start = program.text_base + 4 * (words / 4);
    let region_end = program.text_base + 4 * (3 * words / 4).max(words / 4 + 1);
    let build = |builder: lofat::EngineConfigBuilder| builder.build().expect("valid config");
    vec![
        ("default", EngineConfig::default()),
        ("no-compression", build(EngineConfig::builder().loop_compression(false))),
        ("path-bits-2", build(EngineConfig::builder().max_path_bits(2))),
        ("indirect-bits-1", build(EngineConfig::builder().indirect_target_bits(1))),
        ("nesting-1", build(EngineConfig::builder().max_nesting_depth(1))),
        (
            "hash-buffer-1",
            build(EngineConfig::builder().hash_engine(HashEngineConfig {
                input_buffer_words: 1,
                ..HashEngineConfig::default()
            })),
        ),
        ("partial-region", build(EngineConfig::builder().attest_region(region_start, region_end))),
    ]
}

/// Folds one run's every observable output into `hasher`.
fn absorb(hasher: &mut Sha3_256, measurement: &Measurement, exit: &ExitInfo) {
    let reason: u8 = match exit.reason {
        ExitReason::Ecall => 0,
        ExitReason::Ebreak => 1,
    };
    hasher.update([reason]);
    hasher.update(exit.register_a0.to_le_bytes());
    hasher.update(exit.cycles.to_le_bytes());
    hasher.update(exit.instructions.to_le_bytes());
    let authenticator = measurement.authenticator.as_bytes();
    hasher.update((authenticator.len() as u64).to_le_bytes());
    hasher.update(authenticator);
    let metadata = measurement.metadata.to_bytes();
    hasher.update((metadata.len() as u64).to_le_bytes());
    hasher.update(&metadata);
    let s = &measurement.stats;
    for counter in [
        s.instructions_observed,
        s.branch_events,
        s.loops_entered,
        s.loops_exited,
        s.untracked_loops,
        s.iterations_counted,
        s.new_paths,
        s.pairs_hashed,
        s.pairs_compressed,
        s.cam_overflows,
        s.max_nesting_observed as u64,
        s.max_call_depth as u64,
        s.internal_latency_cycles,
        s.processor_overhead_cycles,
    ] {
        hasher.update(counter.to_le_bytes());
    }
}

/// Every group's digest, in a fixed order, as fixture lines.
fn digest_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for corpus in corpora() {
        for (config_name, config) in configs(&corpus.program) {
            let mut hasher = Sha3_256::new();
            for input in &corpus.inputs {
                let (measurement, exit) = common::run_attested(&corpus.program, input, config);
                absorb(&mut hasher, &measurement, &exit);
            }
            lines.push(format!("{} {} {}", corpus.name, config_name, hasher.finalize().to_hex()));
        }
    }
    lines
}

#[test]
fn engine_outputs_match_the_golden_corpus() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("read the golden engine fixture");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.is_empty()).collect();
    let actual = digest_lines();
    let mut report = String::new();
    for line in &actual {
        let group = line.rsplit_once(' ').map_or(line.as_str(), |(group, _)| group);
        match expected.iter().find(|e| e.rsplit_once(' ').is_some_and(|(g, _)| g == group)) {
            Some(e) if *e == line => {}
            Some(_) => writeln!(report, "group `{group}`: outputs changed").unwrap(),
            None => writeln!(report, "group `{group}`: not in the fixture").unwrap(),
        }
    }
    if expected.len() != actual.len() {
        writeln!(report, "fixture has {} groups, the corpus {}", expected.len(), actual.len())
            .unwrap();
    }
    assert!(report.is_empty(), "engine outputs diverged from {FIXTURE}:\n{report}");
}

/// Rewrites the fixture from the current engine.
#[test]
#[ignore = "rewrites tests/fixtures/engine/golden.txt"]
fn regenerate() {
    std::fs::create_dir_all("tests/fixtures/engine").expect("create fixture directory");
    let mut text = digest_lines().join("\n");
    text.push('\n');
    std::fs::write(FIXTURE, text).expect("write fixture");
}
