//! Quickstart: attest a small embedded program end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example walks through the full Fig. 2 protocol of the paper: the verifier
//! derives the CFG offline, issues a challenge (input + nonce), the prover executes
//! the program under the LO-FAT engine, signs the measurement, and the verifier
//! checks signature, loop-path plausibility and the golden-replay measurement.

use lofat::protocol::run_attestation;
use lofat::{Prover, Verifier};
use lofat_crypto::DeviceKey;
use lofat_rv32::asm::assemble;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small program: sum the numbers 1..=input[0] with a loop.
    let program = assemble(
        r#"
        .data
        input:
            .space 8
        .text
        main:
            la   t0, input
            lw   t1, 0(t0)       # n
            li   a0, 0
            beqz t1, done
        sum_loop:
            add  a0, a0, t1
            addi t1, t1, -1
            bnez t1, sum_loop
        done:
            ecall
        "#,
    )?;

    // Device provisioning: the prover holds the device key in a hardware-protected
    // register; the verifier holds the matching verification key.
    let device_key = DeviceKey::from_seed("quickstart-device");
    let mut prover = Prover::new(program.clone(), "sum-1-to-n", device_key.clone());
    let mut verifier = Verifier::new(program, "sum-1-to-n", device_key.verification_key())?;

    // One challenge-response round trip with input n = 10.
    let outcome = run_attestation(&mut verifier, &mut prover, vec![10])?;

    let stats = &outcome.prover_run.stats;
    let report = &outcome.prover_run.report;
    println!("program result (a0)        : {}", outcome.prover_run.exit.register_a0);
    println!("CPU cycles                 : {}", outcome.prover_run.exit.cycles);
    println!(
        "processor overhead         : {} cycles (LO-FAT observes in parallel)",
        stats.processor_overhead_cycles
    );
    println!("control-flow events        : {}", stats.branch_events);
    println!("loops tracked              : {}", stats.loops_entered);
    println!("iterations compressed      : {}", stats.iterations_counted);
    println!("pairs hashed / compressed  : {} / {}", stats.pairs_hashed, stats.pairs_compressed);
    println!("engine latency (internal)  : {} cycles", stats.internal_latency_cycles);
    println!("authenticator A            : {}", report.authenticator);
    println!(
        "metadata L                 : {} loop record(s) in {} run(s)",
        report.metadata.loop_count(),
        report.metadata.run_count()
    );
    println!(
        "metadata bytes             : {} packed (wire, signed), {} fixed-width (paper)",
        report.metadata.packed_len(),
        report.metadata.size_bytes()
    );
    println!("report wire size           : {} bytes", report.wire_size());
    println!(
        "verifier verdict           : ACCEPTED (replay a0 = {})",
        outcome.verdict.replay_exit.register_a0
    );
    Ok(())
}
