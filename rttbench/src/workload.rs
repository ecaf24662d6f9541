//! The three workloads: their seeded input sets and the generator's
//! pre-measurement of every (input, behaviour) pair.

use crate::record::Source;
use lofat::wire::{ChallengeMsg, Envelope, EvidenceMsg, Message, SessionId, SessionRequestMsg};
use lofat::{
    AttestationReport, EngineConfig, EngineStats, LofatError, MeasurementDatabase, ProverSession,
    Verifier,
};
use lofat_crypto::{DeviceKey, Digest, Hmac, Nonce, Signature};
use lofat_fleet::{behaviour_for, Adversary, SlotBehaviour};
use lofat_rv32::{Cpu, Program};
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The device key of the benchmark's fleet (the one `lofat serve` uses).
pub const DEVICE_KEY_SEED: &str = "lofat-cli-fleet";

/// Cycle budget of every simulated run (the prover's default).
pub const MAX_CYCLES: u64 = lofat::prover::DEFAULT_MAX_CYCLES;

/// Seed-stream separators, so inputs, sessions and arrivals draw from
/// independent sequences of one workload seed.
pub const STREAM_INPUTS: u64 = 0x1;
/// See [`STREAM_INPUTS`].
pub const STREAM_SESSIONS: u64 = 0x2;
/// See [`STREAM_INPUTS`].
pub const STREAM_ARRIVALS: u64 = 0x3;

/// A seeded RNG for one stream of one workload seed.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Closed loop, one client connecting per session, syringe-pump.
    Device,
    /// Two held connections, fig4-loop, every verdict a cache hit.
    FleetHot,
    /// Two held connections, crc32, adversarial mix, mostly cache misses.
    FleetCold,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::Device, WorkloadKind::FleetHot, WorkloadKind::FleetCold];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Device => "device",
            WorkloadKind::FleetHot => "fleet-hot",
            WorkloadKind::FleetCold => "fleet-cold",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The catalogue program the workload attests.
    pub fn program_id(self) -> &'static str {
        match self {
            WorkloadKind::Device => "syringe-pump",
            WorkloadKind::FleetHot => "fig4-loop",
            WorkloadKind::FleetCold => "crc32",
        }
    }
}

/// Distinct crc32 inputs of `fleet-cold`: 4096 inputs on 4 shards make
/// 16 384 (input, shard) keys, 16 times the 1024-entry verdict cache.
pub const COLD_INPUTS: usize = 4096;
/// Inputs of `fleet-cold` that also get attacked variants.
pub const ATTACKED_INPUTS: usize = 128;

/// A workload's seeded input set.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The attested program.
    pub program: Program,
    /// Distinct inputs; the measurement database covers exactly these.
    pub inputs: Vec<Vec<u32>>,
}

impl Plan {
    /// Builds the input set for `kind` from `seed`: every input comes out of
    /// [`InputGenerator`] with parameters drawn from a seeded RNG.
    ///
    /// # Errors
    ///
    /// Fails only if the catalogue program does not assemble.
    pub fn new(kind: WorkloadKind, seed: u64) -> Result<Self, String> {
        let workload = catalog::by_name(kind.program_id()).expect("catalogue workload");
        let program = workload.program().map_err(|e| format!("assemble {}: {e}", workload.name))?;
        let mut generator = InputGenerator::new(seed);
        let mut rng = stream(seed, STREAM_INPUTS);
        let inputs = match kind {
            // 64 dispense volumes in 100..=1000 units, one per 1/64 stratum so
            // every seed spans the range evenly (5-45 KB of evidence).
            WorkloadKind::Device => (0..64u32)
                .map(|i| {
                    let low = 100 + i * 900 / 64;
                    let high = 100 + (i + 1) * 900 / 64;
                    generator.input_for(&workload, rng.gen_range(low..=high) as usize)
                })
                .collect(),
            // 8 distinct loop bounds: ~250 B of evidence whatever the bound.
            WorkloadKind::FleetHot => {
                let mut bounds = BTreeSet::new();
                while bounds.len() < 8 {
                    bounds.insert(rng.gen_range(1..=64usize));
                }
                bounds.into_iter().map(|n| generator.input_for(&workload, n)).collect()
            }
            // Distinct 16-64 word buffers (1.2-4.4 KB of evidence).
            WorkloadKind::FleetCold => {
                let mut seen = BTreeSet::new();
                let mut inputs = Vec::with_capacity(COLD_INPUTS);
                while inputs.len() < COLD_INPUTS {
                    let input = generator.input_for(&workload, rng.gen_range(16..=64usize));
                    if seen.insert(input.clone()) {
                        inputs.push(input);
                    }
                }
                inputs
            }
        };
        Ok(Self { kind, program, inputs })
    }

    /// The program id sessions name.
    pub fn program_id(&self) -> &'static str {
        self.kind.program_id()
    }
}

/// A pre-measured report with its signature MAC absorbed up to the nonce:
/// answering a challenge only absorbs the nonce and finalizes.
#[derive(Debug, Clone)]
pub struct Template {
    /// The report, carrying a placeholder nonce and signature.
    pub report: AttestationReport,
    /// HMAC under the device key with `report.signed_prefix()` absorbed.
    pub mac_prefix: Hmac,
}

impl Template {
    fn new(report: AttestationReport, key: &DeviceKey) -> Self {
        let mut mac_prefix = key.verification_key().mac_base();
        mac_prefix.update(report.signed_prefix());
        Self { report, mac_prefix }
    }

    /// The device's signature over this report bound to `nonce`.
    pub fn sign(&self, nonce: &Nonce) -> Signature {
        let mut mac = self.mac_prefix.clone();
        mac.update(nonce.as_bytes());
        Signature::from(mac.finalize())
    }

    /// The evidence envelope answering `session` with this report, `nonce`
    /// and `signature`; `forged` flips an authenticator bit after signing,
    /// so the signature no longer verifies.
    ///
    /// # Errors
    ///
    /// Propagates codec failures.
    pub fn frame(
        &self,
        session: SessionId,
        nonce: Nonce,
        signature: Signature,
        forged: bool,
    ) -> Result<Vec<u8>, String> {
        let mut report = self.report.clone();
        report.nonce = nonce;
        report.signature = signature;
        if forged {
            let mut authenticator = report.authenticator.as_bytes().to_vec();
            authenticator[0] ^= 0x01;
            report.authenticator = Digest::from_bytes(authenticator);
        }
        Envelope::new(session, Message::Evidence(EvidenceMsg { report }))
            .encode()
            .map_err(|e| e.to_string())
    }
}

/// What the prover does for one input, measured once before timing starts.
#[derive(Debug, Clone)]
pub struct InputProfile {
    /// Cycles of a plain (unattested) run.
    pub plain_cycles: u64,
    /// Cycles of the attested run.
    pub attested_cycles: u64,
    /// Instructions retired by the attested run.
    pub instructions: u64,
    /// Engine statistics of the attested run.
    pub engine: EngineStats,
    /// Honest evidence template.
    pub honest: Template,
    /// Encoded `SessionRequest` envelope for this input.
    pub request: Vec<u8>,
}

/// An attacked execution of one input.
#[derive(Debug, Clone)]
pub struct Attack {
    /// Index into [`Plan::inputs`].
    pub input: usize,
    /// Evidence template of the attacked run.
    pub template: Template,
    /// The measurement-mismatch code the verifier must answer.
    pub expected: u16,
}

/// Everything the generator measured before timing starts.
#[derive(Debug, Clone)]
pub struct Premeasured {
    /// One profile per input of the plan.
    pub inputs: Vec<InputProfile>,
    /// Attacked executions (`fleet-cold` only).
    pub attacks: Vec<Attack>,
    /// Wall time the pre-measurement took (excluded from `setup_s`).
    pub elapsed: Duration,
}

impl Premeasured {
    /// The input a frame source ran.
    pub fn input_of(&self, source: Source) -> usize {
        match source {
            Source::Honest(input) | Source::Forged(input) => input,
            Source::Attack(attack) => self.attacks[attack].input,
        }
    }

    /// The template a frame source names, and whether the frame is forged.
    pub fn template(&self, source: Source) -> (&Template, bool) {
        match source {
            Source::Honest(input) => (&self.inputs[input].honest, false),
            Source::Forged(input) => (&self.inputs[input].honest, true),
            Source::Attack(attack) => (&self.attacks[attack].template, false),
        }
    }
}

/// The adversary classes whose stock attacks target the `input` buffer.
pub const INPUT_ATTACKS: [Adversary; 3] =
    [Adversary::Poke, Adversary::LoopCounter, Adversary::NonControlData];

/// Loads `input` the way the prover does: the words at `input`, their count
/// at `input_len` when the program has one.
///
/// # Errors
///
/// Fails if the program lacks an `input` buffer or the words do not fit.
pub fn load_input(program: &Program, cpu: &mut Cpu, input: &[u32]) -> Result<(), String> {
    let addr = program.symbol("input").ok_or("program has no `input` symbol")?;
    let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
    cpu.memory_mut().poke_bytes(addr, &bytes).map_err(|e| e.to_string())?;
    if let Some(len_addr) = program.symbol("input_len") {
        cpu.memory_mut()
            .poke_bytes(len_addr, &(input.len() as u32).to_le_bytes())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs `input` on a plain CPU and returns its cycle count.
///
/// # Errors
///
/// Propagates load and execution faults.
pub fn plain_cycles(program: &Program, input: &[u32]) -> Result<u64, String> {
    let mut cpu = Cpu::new(program).map_err(|e| e.to_string())?;
    load_input(program, &mut cpu, input)?;
    Ok(cpu.run(MAX_CYCLES).map_err(|e| e.to_string())?.cycles)
}

/// A challenge for `input` carrying a placeholder nonce.
pub fn placeholder_challenge(program_id: &str, input: &[u32]) -> Envelope {
    Envelope::new(
        SessionId(0),
        Message::Challenge(ChallengeMsg {
            program_id: program_id.to_string(),
            input: input.to_vec(),
            nonce: Nonce::from_counter(0),
            deadline_cycles: u64::MAX,
        }),
    )
}

/// Pre-measures every input of `plan` (plain and attested run, evidence
/// template, session-request bytes) and, for `fleet-cold`, the attacked
/// runs of the first [`ATTACKED_INPUTS`] inputs.
///
/// # Errors
///
/// Propagates prover and codec failures.
pub fn premeasure(plan: &Plan) -> Result<Premeasured, String> {
    let started = Instant::now();
    let key = DeviceKey::from_seed(DEVICE_KEY_SEED);
    let mut prover = lofat::Prover::new(plan.program.clone(), plan.program_id(), key.clone());
    let mut inputs = Vec::with_capacity(plan.inputs.len());
    for input in &plan.inputs {
        let challenge = placeholder_challenge(plan.program_id(), input);
        let (_, run) =
            ProverSession::new(&mut prover).respond(&challenge).map_err(|e| e.to_string())?;
        let request = Envelope::new(
            SessionId(0),
            Message::SessionRequest(SessionRequestMsg {
                program_id: plan.program_id().to_string(),
                input: input.clone(),
            }),
        )
        .encode()
        .map_err(|e| e.to_string())?;
        inputs.push(InputProfile {
            plain_cycles: plain_cycles(&plan.program, input)?,
            attested_cycles: run.exit.cycles,
            instructions: run.exit.instructions,
            engine: run.stats,
            honest: Template::new(run.report, &key),
            request,
        });
    }
    let mut attacks = Vec::new();
    if plan.kind == WorkloadKind::FleetCold {
        // The expected verdict of each attacked run comes from the one
        // reference comparison, over the attacked inputs only.
        let verifier =
            Verifier::new(plan.program.clone(), plan.program_id(), key.verification_key())
                .map_err(|e| e.to_string())?;
        let attacked: Vec<Vec<u32>> = plan.inputs.iter().take(ATTACKED_INPUTS).cloned().collect();
        let references = MeasurementDatabase::build(&verifier, EngineConfig::default(), attacked)
            .map_err(|e| e.to_string())?;
        for (index, input) in plan.inputs.iter().enumerate().take(ATTACKED_INPUTS) {
            for class in INPUT_ATTACKS {
                let SlotBehaviour::Fault(mut fault) =
                    behaviour_for(class, &plan.program).map_err(|e| e.to_string())?
                else {
                    unreachable!("input-targeting classes are faults");
                };
                let challenge = placeholder_challenge(plan.program_id(), input);
                let (_, run) = ProverSession::new(&mut prover)
                    .respond_with_adversary(&challenge, &mut fault)
                    .map_err(|e| e.to_string())?;
                let expected = match references.check(input, &run.report) {
                    Err(LofatError::Rejected(reason)) => reason.code(),
                    // The attack left the measurement unchanged: not an attack.
                    Ok(_) => continue,
                    Err(e) => return Err(e.to_string()),
                };
                attacks.push(Attack {
                    input: index,
                    template: Template::new(run.report, &key),
                    expected,
                });
            }
        }
    }
    Ok(Premeasured { inputs, attacks, elapsed: started.elapsed() })
}
