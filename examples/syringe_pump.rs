//! The paper's motivating scenario: attesting a syringe-pump controller.
//!
//! ```text
//! cargo run --example syringe_pump
//! ```
//!
//! A medical syringe pump dispenses the requested number of units by pulsing a motor
//! in a nested loop.  A loop-counter manipulation (attack class ② of Fig. 1) makes
//! the pump dispense far more liquid than requested — a purely data-driven attack
//! that static (binary) attestation cannot see.  LO-FAT's loop metadata records the
//! iteration counts, so the verifier detects the deviation.

use lofat::protocol::{run_attestation, run_attestation_with_adversary};
use lofat::{LofatError, Prover, Verifier};
use lofat_crypto::DeviceKey;
use lofat_workloads::attack;
use lofat_workloads::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = catalog::by_name("syringe-pump").expect("catalogue entry");
    let program = workload.program()?;
    let device_key = DeviceKey::from_seed("syringe-pump-device");

    let mut prover = Prover::new(program.clone(), workload.name, device_key.clone());
    let mut verifier =
        Verifier::new(program.clone(), workload.name, device_key.verification_key())?;

    // --- Benign run: the clinician requests 3 units. --------------------------------
    let outcome = run_attestation(&mut verifier, &mut prover, vec![3])?;
    println!("benign run:");
    println!("  dispensed units          : {}", outcome.prover_run.exit.register_a0);
    let metadata = &outcome.prover_run.report.metadata;
    println!(
        "  loop records in metadata : {} in {} runs",
        metadata.loop_count(),
        metadata.run_count()
    );
    println!("  metadata bytes (packed)  : {} on the wire, signed", metadata.packed_len());
    println!("  metadata bytes (paper)   : {} fixed-width", metadata.size_bytes());
    println!("  total loop iterations    : {}", metadata.decode().total_iterations());
    println!("  verdict                  : ACCEPTED");

    // --- Attack: the adversary rewrites the requested volume in memory. -------------
    let input_addr = program.symbol("input").expect("input symbol");
    let mut fault = attack::loop_counter_attack(input_addr, 50);
    println!();
    println!("loop-counter attack (requested 3, adversary forces 50):");
    match run_attestation_with_adversary(&mut verifier, &mut prover, vec![3], &mut fault) {
        Ok(_) => println!("  verdict                  : ACCEPTED (unexpected!)"),
        Err(LofatError::Rejected(reason)) => {
            println!("  verdict                  : REJECTED — {reason}");
        }
        Err(other) => return Err(other.into()),
    }

    // --- For contrast: a pure data-only manipulation is not detected. ---------------
    let pulses_addr = program.symbol("motor_pulses").expect("motor_pulses symbol");
    let mut fault = attack::data_only_attack(pulses_addr, 9999);
    println!();
    println!("data-only attack (corrupting the pulse log, control flow unchanged):");
    match run_attestation_with_adversary(&mut verifier, &mut prover, vec![3], &mut fault) {
        Ok(_) => println!(
            "  verdict                  : ACCEPTED — control-flow attestation cannot see it (paper §3)"
        ),
        Err(LofatError::Rejected(reason)) => println!("  verdict                  : REJECTED — {reason}"),
        Err(other) => return Err(other.into()),
    }
    Ok(())
}
