//! `lofat` — command-line front-end to the LO-FAT reproduction.
//!
//! ```text
//! lofat workloads                          list the evaluation workload corpus
//! lofat asm <file.s>                       assemble a program and print its layout
//! lofat disasm <file.s|workload>           disassembly listing with CF-site markers
//! lofat run <file.s|workload> [inputs..]   execute and print the result/cycles
//! lofat attest <file.s|workload> [inputs..]  run under the LO-FAT engine and print
//!                                            the measurement (A, L, stats)
//! lofat verify <file.s|workload> [inputs..]  full prover/verifier round trip
//! lofat serve <workload> [--addr A]        verifier service on a TCP socket
//! lofat front --backend B [--backend C..]  fan-out front over partitioned serves
//! lofat attest <workload> --connect ADDR   attest against a remote verifier
//! lofat attest --elf <path> [inputs..]     attest an external static RV32 ELF32
//! lofat area [l n depth]                   area model for a configuration
//! lofat bench-json --out F                 measure the E10 hot-path rates into F
//! lofat fleet run <spec.fleet>             execute a declarative scenario fleet
//!                                          over every transport, write manifests
//! lofat fleet enumerate <spec.fleet>       print a fleet's deterministic job list
//! ```
//!
//! Arguments that name a file ending in `.s`/`.asm` are assembled from disk; any
//! other name is looked up in the `lofat-workloads` catalogue.

use lofat::pool::PoolConfig;
use lofat::protocol::run_attestation;
use lofat::{
    AreaModel, EngineConfig, MeasurementDatabase, Prover, ServiceConfig, Verifier, VerifierService,
};
use lofat_crypto::DeviceKey;
use lofat_fleet::spec::Adversary as FleetAdversary;
use lofat_fleet::{behaviour_for, generate_traffic, FleetSpec, SlotBehaviour};
use lofat_net::{EventLoopServer, FanOutFront, ProverClient, ServerConfig};
use lofat_rv32::asm::assemble;
use lofat_rv32::{disasm, Cpu, Program};
use lofat_workloads::catalog;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "workloads" => cmd_workloads(),
        "asm" => cmd_asm(&args[1..]),
        "disasm" => cmd_disasm(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "attest" => cmd_attest(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "sessions" => cmd_sessions(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "front" => cmd_front(&args[1..]),
        "area" => cmd_area(&args[1..]),
        "bench-json" => cmd_bench_json(&args[1..]),
        "fleet" => cmd_fleet(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: lofat <command> [args]

commands:
  workloads                          list the evaluation workload corpus
  asm <file.s>                       assemble and print the program layout
  disasm <file.s|workload>           print a disassembly listing
  run <file.s|workload> [inputs..]   execute without attestation
  attest <file.s|workload> [inputs..]  execute under the LO-FAT engine
  verify <file.s|workload> [inputs..]  full attestation round trip
  sessions [workload|--all] [--sessions N] [--tamper-every K]
                                     run N interleaved sessions (honest +
                                     adversarial mix) through VerifierService
                                     and print the service stats table
  serve <workload> [--addr A] [--shards S] [--workers K] [--inputs i1,i2 ..]
        [--deadline-cycles D] [--snapshot-path FILE] [--partition p/N]
                                     serve the VerifierService for one workload
                                     over TCP (default addr 127.0.0.1:4508),
                                     every connection on one event-loop
                                     thread, until interrupted; the session
                                     clock ticks at 1 cycle/us and stale
                                     sessions are swept (default deadline:
                                     60s);
                                     --snapshot-path restores state from FILE
                                     if it exists and then writes a crash-safe
                                     snapshot there at startup and every tick;
                                     --partition p/N serves stripe p of an
                                     N-process deployment (see `lofat front`)
  front [--addr A] --backend B [--backend C ..]
                                     stateless fan-out front (default addr
                                     127.0.0.1:4509) multiplexing clients over
                                     N partitioned `lofat serve` backends,
                                     given in partition order
  attest <workload> [inputs..] --connect ADDR
                                     attest against a remote `lofat serve`
                                     instead of the local engine
  attest --elf <path> [inputs..]     ingest an externally-assembled static
                                     RV32 ELF32 executable (ET_EXEC, one r-x
                                     PT_LOAD + optional rw PT_LOAD) and attest
                                     it under the local engine
  area [l n depth]                   print the area model estimate
  bench-json --out FILE              measure the hot-path rates (E10: attested
                                     and plain instructions/s, SHA-3, Keccak,
                                     verified sessions/s) and write them to
                                     FILE as JSON
  fleet run <spec.fleet> [--transport pool|epoll|front|all]
            [--out-dir DIR] [--scale N]
                                     expand a declarative fleet spec and drive
                                     every scenario (workload × adversary mix ×
                                     clients × arrival × fault injection) over
                                     the chosen transport(s): the in-process
                                     pool, the event-loop server `serve`
                                     runs, a fan-out front over two
                                     partitioned servers, or `all` three (the
                                     default); with more than one, assert the
                                     verdict breakdowns match, then write
                                     manifest.json / manifest.csv /
                                     manifest.golden.json under --out-dir
                                     (default target/fleet)
  fleet enumerate <spec.fleet>       print the deterministic job expansion of
                                     a fleet spec without running it";

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Loads a program either from an assembly file or from the workload catalogue.
fn load_program(name: &str) -> Result<(Program, String), Box<dyn std::error::Error>> {
    if name.ends_with(".s") || name.ends_with(".asm") {
        let source = std::fs::read_to_string(name)?;
        Ok((assemble(&source)?, name.to_string()))
    } else {
        let workload = catalog::by_name(name)
            .ok_or_else(|| format!("`{name}` is neither an .s file nor a known workload"))?;
        Ok((workload.program()?, workload.name.to_string()))
    }
}

fn parse_inputs(args: &[String]) -> Result<Vec<u32>, Box<dyn std::error::Error>> {
    args.iter()
        .map(|a| {
            let value = if let Some(hex) = a.strip_prefix("0x") {
                u32::from_str_radix(hex, 16)
            } else {
                a.parse()
            };
            value.map_err(|_| format!("invalid input word `{a}`").into())
        })
        .collect()
}

fn prepare_cpu(program: &Program, input: &[u32]) -> Result<Cpu, Box<dyn std::error::Error>> {
    let mut cpu = Cpu::new(program)?;
    if !input.is_empty() {
        let addr = program
            .symbol("input")
            .ok_or("program does not define an `input` buffer but inputs were given")?;
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        cpu.poke_data(addr, &bytes)?;
        if let Some(len) = program.symbol("input_len") {
            cpu.poke_data(len, &(input.len() as u32).to_le_bytes())?;
        }
    }
    Ok(cpu)
}

fn cmd_workloads() -> CliResult {
    println!("{:<16} {:<55} default input", "name", "description");
    for workload in catalog::all() {
        println!("{:<16} {:<55} {:?}", workload.name, workload.description, workload.default_input);
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> CliResult {
    let name = args.first().ok_or("asm: missing <file.s|workload>")?;
    let (program, label) = load_program(name)?;
    println!("program        : {label}");
    println!("text base      : {:#010x}", program.text_base);
    println!(
        "text size      : {} instructions ({} bytes)",
        program.text.len(),
        program.text.len() * 4
    );
    println!(
        "data base      : {:#010x} ({} bytes initialised)",
        program.data_base,
        program.data.len()
    );
    println!("entry point    : {:#010x}", program.entry);
    println!("control-flow sites: {}", disasm::control_flow_sites(&program));
    println!("symbols:");
    for (symbol, addr) in &program.symbols {
        println!("  {addr:#010x}  {symbol}");
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> CliResult {
    let name = args.first().ok_or("disasm: missing <file.s|workload>")?;
    let (program, label) = load_program(name)?;
    println!("; disassembly of {label} (control-flow sites marked with *)");
    print!("{}", disasm::listing(&program));
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let name = args.first().ok_or("run: missing <file.s|workload>")?;
    let (program, label) = load_program(name)?;
    let input = parse_inputs(&args[1..])?;
    let mut cpu = prepare_cpu(&program, &input)?;
    let exit = cpu.run(50_000_000)?;
    println!("program      : {label}");
    println!("input        : {input:?}");
    println!("result (a0)  : {}", exit.register_a0);
    println!("cycles       : {}", exit.cycles);
    println!("instructions : {}", exit.instructions);
    if !cpu.console().is_empty() {
        println!("console      : {:?}", cpu.console());
    }
    Ok(())
}

fn cmd_attest(args: &[String]) -> CliResult {
    // `--elf PATH` ingests an externally-assembled static RV32 ELF32 binary
    // instead of an assembly file / catalogue workload.
    if let Some(at) = args.iter().position(|a| a == "--elf") {
        let path = args.get(at + 1).ok_or("attest: --elf requires a file path")?.clone();
        if args.iter().any(|a| a == "--connect") {
            return Err("attest: --elf cannot be combined with --connect".into());
        }
        let mut rest = args.to_vec();
        rest.drain(at..=at + 1);
        let bytes = std::fs::read(&path)?;
        let program = lofat_rv32::elf::parse(&bytes)?;
        let input = parse_inputs(&rest)?;
        return attest_local(&program, &path, &input);
    }
    // `--connect ADDR` switches from the local engine to a remote verifier.
    if let Some(at) = args.iter().position(|a| a == "--connect") {
        let addr = args.get(at + 1).ok_or("attest: --connect requires an address")?.clone();
        let mut rest = args.to_vec();
        rest.drain(at..=at + 1);
        return cmd_attest_remote(&rest, &addr);
    }
    let name = args.first().ok_or("attest: missing <file.s|workload>")?;
    let (program, label) = load_program(name)?;
    let input = parse_inputs(&args[1..])?;
    attest_local(&program, &label, &input)
}

/// Runs one program under the local LO-FAT engine and prints the measurement.
fn attest_local(program: &Program, label: &str, input: &[u32]) -> CliResult {
    let mut engine = lofat::LofatEngine::for_program(program, EngineConfig::default())?;
    let mut cpu = prepare_cpu(program, input)?;
    let exit = cpu.run_traced(50_000_000, &mut engine)?;
    let measurement = engine.finalize()?;
    let stats = measurement.stats;
    println!("program              : {label}");
    println!("result (a0)          : {}", exit.register_a0);
    println!("cycles (no overhead) : {}", exit.cycles);
    println!("authenticator A      : {}", measurement.authenticator);
    let metadata = &measurement.metadata;
    println!("loop records         : {} in {} runs", metadata.loop_count(), metadata.run_count());
    println!("metadata bytes       : {} packed (wire, signed)", metadata.packed_len());
    println!("metadata fixed-width : {} (the paper's layout)", metadata.size_bytes());
    println!("branch events        : {}", stats.branch_events);
    println!("pairs hashed         : {}", stats.pairs_hashed);
    println!("pairs compressed     : {}", stats.pairs_compressed);
    println!("internal latency     : {} cycles", stats.internal_latency_cycles);
    println!("max loop nesting     : {}", stats.max_nesting_observed);
    println!("max call depth       : {}", stats.max_call_depth);
    Ok(())
}

/// `lofat attest <workload> [inputs..] --connect ADDR` — run the attested
/// execution locally and let a remote `lofat serve` judge the evidence.
fn cmd_attest_remote(args: &[String], addr: &str) -> CliResult {
    let name = args.first().ok_or("attest: missing <file.s|workload>")?;
    let (program, label) = load_program(name)?;
    let input = parse_inputs(&args[1..])?;
    let input = if input.is_empty() { default_input_for(name).unwrap_or_default() } else { input };
    let key = DeviceKey::from_seed("lofat-cli-fleet");
    let mut prover = Prover::new(program, label.clone(), key);
    let mut client = ProverClient::connect(addr)?;
    let outcome = client.attest(&mut prover, input.clone())?;
    println!("program   : {label}");
    println!("verifier  : {addr}");
    println!("session   : {}", outcome.session);
    println!("input     : {input:?}");
    if outcome.verdict.accepted {
        println!("verdict   : ACCEPTED");
        if let Some(result) = outcome.verdict.expected_result {
            println!("result    : {result}");
        }
    } else {
        println!(
            "verdict   : REJECTED — code {} ({})",
            outcome.verdict.reason_code, outcome.verdict.detail
        );
    }
    println!(
        "wire      : {} challenge + {} evidence bytes",
        outcome.challenge_bytes.len(),
        outcome.evidence_bytes.len()
    );
    Ok(())
}

/// The catalogue default input for `name`, when it names a workload.
fn default_input_for(name: &str) -> Option<Vec<u32>> {
    catalog::by_name(name).map(|w| w.default_input)
}

/// Issuance-watermark reserve used by serve-mode snapshots: the crash-safety
/// guarantee ("no nonce reissued after restore") holds as long as fewer than
/// this many sessions were opened on any one shard since the last snapshot
/// write (one write per 5-second tick, plus one at startup).
const SERVE_SNAPSHOT_RESERVE: u64 = 65_536;

/// `lofat serve` — put the sharded `VerifierService` for one workload behind
/// a TCP listener and serve until interrupted.
fn cmd_serve(args: &[String]) -> CliResult {
    let mut workload_name: Option<String> = None;
    let mut addr = "127.0.0.1:4508".to_string();
    let mut shards = 4usize;
    let mut workers = 2usize;
    // Serve mode ticks the logical clock at 1 cycle/µs (see below), so this
    // default gives an unanswered challenge 60 seconds before it is swept.
    let mut deadline_cycles = 60_000_000u64;
    let mut inputs: Option<Vec<Vec<u32>>> = None;
    let mut snapshot_path: Option<std::path::PathBuf> = None;
    let mut partition = (0u64, 1u64);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = iter.next().ok_or("serve: --addr requires host:port")?.clone(),
            "--shards" => {
                shards = iter.next().ok_or("serve: --shards needs S")?.parse()?;
            }
            "--workers" => {
                workers = iter.next().ok_or("serve: --workers needs K")?.parse()?;
            }
            "--deadline-cycles" => {
                deadline_cycles =
                    iter.next().ok_or("serve: --deadline-cycles needs a count")?.parse()?;
            }
            "--snapshot-path" => {
                let path = iter.next().ok_or("serve: --snapshot-path needs a file")?;
                snapshot_path = Some(std::path::PathBuf::from(path));
            }
            "--partition" => {
                // `p/N`: this process serves partition p of N (see
                // `lofat front`, which routes session stripes to backends).
                let spec = iter.next().ok_or("serve: --partition needs p/N")?;
                let (p, n) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("serve: --partition wants p/N, got `{spec}`"))?;
                partition = (p.trim().parse()?, n.trim().parse()?);
                if partition.1 == 0 || partition.0 >= partition.1 {
                    return Err(format!("serve: --partition {spec} is out of range").into());
                }
            }
            "--inputs" => {
                // Comma-separated words per input; repeat the flag for more.
                let list = iter.next().ok_or("serve: --inputs needs a list like 3,5")?;
                let parsed = list
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(|w| w.trim().parse())
                    .collect::<Result<Vec<u32>, _>>()
                    .map_err(|_| format!("serve: invalid --inputs list `{list}`"))?;
                inputs.get_or_insert_with(Vec::new).push(parsed);
            }
            other if !other.starts_with("--") => workload_name = Some(other.to_string()),
            other => return Err(format!("serve: unknown argument `{other}`").into()),
        }
    }
    let name = workload_name.ok_or("serve: missing <workload>")?;
    let workload = catalog::by_name(&name)
        .ok_or_else(|| format!("`{name}` is not a known workload (try `lofat workloads`)"))?;

    let key = DeviceKey::from_seed("lofat-cli-fleet");
    // Restore-if-exists: a snapshot written by a previous incarnation carries
    // the database, configuration, clock, watermarks and books, and no
    // session (a crash interrupts every open one); the CLI shape flags only
    // apply to a cold start.
    let restored = match &snapshot_path {
        Some(path) if path.exists() => {
            let service = VerifierService::restore_from_file(path, key.verification_key())
                .map_err(|e| format!("serve: cannot restore `{}`: {e}", path.display()))?;
            if service.program_id() != workload.name {
                return Err(format!(
                    "serve: snapshot `{}` attests `{}`, not `{name}`",
                    path.display(),
                    service.program_id()
                )
                .into());
            }
            eprintln!(
                "restored `{name}` from `{}`: watermarks {:?}, clock at {} cycles",
                path.display(),
                service.watermarks(),
                service.now_cycles(),
            );
            Some(service)
        }
        _ => None,
    };
    let service = match restored {
        Some(service) => Arc::new(service),
        None => {
            let program = workload.program()?;
            let inputs = inputs.unwrap_or_else(|| vec![workload.default_input.clone()]);
            let verifier = Verifier::new(program, workload.name, key.verification_key())?;
            let count = inputs.len();
            let started = std::time::Instant::now();
            let (db, threads) = MeasurementDatabase::build_counting_threads(
                &verifier,
                EngineConfig::default(),
                inputs,
            )?;
            eprintln!(
                "precomputed {count} reference measurement(s) for `{name}` in {:.1} ms on {threads} thread{}, {:.1} KiB of heap",
                started.elapsed().as_secs_f64() * 1e3,
                if threads == 1 { "" } else { "s" },
                db.heap_bytes() as f64 / 1024.0,
            );
            let config = ServiceConfig {
                session_deadline_cycles: deadline_cycles,
                shards,
                partition_index: partition.0,
                partition_count: partition.1,
                ..ServiceConfig::default()
            };
            Arc::new(VerifierService::new(db, key.verification_key(), config))
        }
    };
    let config = *service.config();
    // Durability: one snapshot before the listener exists, then one per tick
    // below.  Writing it first means the banner promises a snapshot on disk
    // and no session older than it, so even an immediate kill restores.
    // Every write rounds the issuance watermarks up by the reserve, so a
    // crash between writes can never lead to a reissued nonce.
    if let Some(path) = &snapshot_path {
        service.write_snapshot(path, SERVE_SNAPSHOT_RESERVE)?;
        println!(
            "snapshotting to `{}` every 5s (reserve {SERVE_SNAPSHOT_RESERVE})",
            path.display()
        );
    }
    let server_config =
        ServerConfig { pool: PoolConfig::with_workers(workers), ..ServerConfig::default() };
    let server = EventLoopServer::bind(addr.as_str(), Arc::clone(&service), server_config)?;
    println!(
        "serving `{name}` on {} ({} shard{}, {} worker{}, partition {}/{})",
        server.local_addr(),
        config.shards.max(1),
        if config.shards.max(1) == 1 { "" } else { "s" },
        workers,
        if workers == 1 { "" } else { "s" },
        config.partition_index,
        config.partition_count,
    );
    println!("attest against it with: lofat attest {name} --connect {}", server.local_addr());
    // The service deadline clock is logical (`VerifierService::tick`); the
    // transport deliberately never touches it (e14 relies on that), so serve
    // mode must drive it itself: one cycle per microsecond of wall time,
    // ticked every few seconds, each tick sweeping — abandoned session
    // requests expire and release capacity instead of pinning
    // `max_live_sessions` forever.  Each tick advances the clock by the wall
    // time since the previous one, so after a restore it keeps running from
    // the snapshot's value at once: it never runs backwards across a
    // restart, and never stands still.
    let mut last_tick = std::time::Instant::now();
    let mut ticks = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        let now = std::time::Instant::now();
        let swept = service.tick(now.duration_since(last_tick).as_micros() as u64);
        last_tick = now;
        if swept > 0 {
            println!("[expiry] swept {swept} stale session(s)");
        }
        if let Some(path) = &snapshot_path {
            if let Err(e) = service.write_snapshot(path, SERVE_SNAPSHOT_RESERVE) {
                eprintln!("[snapshot] write to `{}` failed: {e}", path.display());
            }
        }
        ticks += 1;
        // A stats pulse once a minute.
        if ticks.is_multiple_of(12) {
            let stats = service.stats();
            println!(
                "[stats] opened {} accepted {} rejected {} replays {} expired {} live {} codes {}",
                stats.sessions_opened,
                stats.accepted,
                stats.rejected,
                stats.replays_blocked,
                stats.expired,
                service.live_sessions(),
                stats.rejection_codes_summary(),
            );
        }
    }
}

/// `lofat front` — a stateless fan-out front over N partitioned `lofat
/// serve` backends (see [`lofat_net::FanOutFront`]).
fn cmd_front(args: &[String]) -> CliResult {
    let mut addr = "127.0.0.1:4509".to_string();
    let mut backends: Vec<std::net::SocketAddr> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = iter.next().ok_or("front: --addr requires host:port")?.clone(),
            "--backend" => {
                let spec = iter.next().ok_or("front: --backend needs host:port")?;
                backends
                    .push(spec.parse().map_err(|e| format!("front: bad backend `{spec}`: {e}"))?);
            }
            other => return Err(format!("front: unknown argument `{other}`").into()),
        }
    }
    if backends.is_empty() {
        return Err("front: at least one --backend is required (one per partition, \
                    in partition order)"
            .into());
    }
    let count = backends.len();
    let front = FanOutFront::bind(addr.as_str(), backends, ServerConfig::default())?;
    println!("fronting {count} backend(s) on {}", front.local_addr());
    for (p, backend) in front.backends().iter().enumerate() {
        println!("  partition {p}/{count} -> {backend}");
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
    }
}

fn cmd_verify(args: &[String]) -> CliResult {
    let name = args.first().ok_or("verify: missing <file.s|workload>")?;
    let (program, label) = load_program(name)?;
    let input = parse_inputs(&args[1..])?;
    let key = DeviceKey::from_seed("lofat-cli-device");
    let mut prover = Prover::new(program.clone(), label.clone(), key.clone());
    let mut verifier = Verifier::new(program, label.clone(), key.verification_key())?;
    match run_attestation(&mut verifier, &mut prover, input) {
        Ok(outcome) => {
            println!("program   : {label}");
            println!("verdict   : ACCEPTED");
            println!("result    : {}", outcome.prover_run.exit.register_a0);
            println!("report    : {} bytes on the wire", outcome.prover_run.report.wire_size());
            Ok(())
        }
        Err(lofat::LofatError::Rejected(reason)) => {
            println!("program   : {label}");
            println!("verdict   : REJECTED — {reason}");
            Ok(())
        }
        Err(other) => Err(other.into()),
    }
}

/// `lofat sessions` — drive N interleaved sessions (honest + adversarial mix)
/// per workload through a [`VerifierService`] and print the stats table.
fn cmd_sessions(args: &[String]) -> CliResult {
    let mut workload_name: Option<String> = None;
    let mut sessions_per_workload = 48usize;
    let mut tamper_every = 3usize;
    let mut deadline_cycles = 1_000_000u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => workload_name = None,
            "--sessions" => {
                sessions_per_workload =
                    iter.next().ok_or("sessions: --sessions requires a count")?.parse()?;
            }
            "--tamper-every" => {
                tamper_every = iter
                    .next()
                    .ok_or("sessions: --tamper-every requires a count (0 = honest only)")?
                    .parse()?;
            }
            "--deadline-cycles" => {
                deadline_cycles =
                    iter.next().ok_or("sessions: --deadline-cycles requires a count")?.parse()?;
            }
            other if !other.starts_with("--") => workload_name = Some(other.to_string()),
            other => return Err(format!("sessions: unknown argument `{other}`").into()),
        }
    }
    let workloads = match &workload_name {
        None => catalog::all(),
        Some(name) => vec![catalog::by_name(name)
            .ok_or_else(|| format!("`{name}` is not a known workload (try `lofat workloads`)"))?],
    };

    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}  codes",
        "workload", "sessions", "accepted", "rejected", "replays", "expired"
    );
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut by_code: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();

    for workload in &workloads {
        let program = workload.program()?;
        let input = workload.default_input.clone();
        let key = DeviceKey::from_seed("lofat-cli-fleet");
        let mut prover = Prover::new(program.clone(), workload.name, key.clone());
        let verifier = Verifier::new(program.clone(), workload.name, key.verification_key())?;
        let db =
            MeasurementDatabase::build(&verifier, EngineConfig::default(), vec![input.clone()])?;
        let config =
            ServiceConfig { session_deadline_cycles: deadline_cycles, ..ServiceConfig::default() };
        let service = VerifierService::new(db, key.verification_key(), config);

        // The tamper mix, expressed as shared-driver slot behaviours: every
        // `tamper_every`-th slot rotates through a data-memory fault, a
        // replay-class slot (honest in phase 1, re-submitted in phase 2) and
        // a flipped-authenticator forgery.  Workloads without an `input`
        // symbol fall back to forging in the fault rotation.
        let slots: Vec<(Vec<u32>, SlotBehaviour)> = (0..sessions_per_workload)
            .map(|i| {
                let tampered = tamper_every != 0 && (i + 1) % tamper_every == 0;
                let behaviour = if !tampered {
                    SlotBehaviour::Honest
                } else {
                    match (i / tamper_every) % 3 {
                        0 => behaviour_for(FleetAdversary::Poke, &program)
                            .unwrap_or(SlotBehaviour::Forge),
                        1 => SlotBehaviour::Replay,
                        _ => SlotBehaviour::Forge,
                    }
                };
                (input.clone(), behaviour)
            })
            .collect();
        // The driver opens the sessions on the service itself and answers its
        // challenges, so submission below is pure byte traffic.
        let traffic = generate_traffic(&service, &mut prover, slots)?;

        // Interleave: strided submission order.  The service clock ticks once
        // per submission, so a small `--deadline-cycles` expires the sessions
        // that are answered late.
        let n = traffic.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|i| i.wrapping_mul(7919) % n.max(1));
        for i in order {
            service.advance_clock(1);
            service.handle_bytes(&traffic[i].evidence)?;
        }
        // Phase 2: re-submit the replay-class slots — every resubmission must
        // bounce off the spent-nonce check, never be accepted twice.
        for slot in traffic.iter().filter(|s| s.replay) {
            service.handle_bytes(&slot.evidence)?;
        }

        let stats = service.stats();
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
            workload.name,
            stats.sessions_opened,
            stats.accepted,
            stats.rejected,
            stats.replays_blocked,
            stats.expired,
            stats.rejection_codes_summary(),
        );
        totals.0 += stats.sessions_opened;
        totals.1 += stats.accepted;
        totals.2 += stats.rejected;
        totals.3 += stats.replays_blocked;
        totals.4 += stats.expired;
        for (code, count) in &stats.rejections_by_code {
            *by_code.entry(*code).or_insert(0) += count;
        }
    }
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
        "total",
        totals.0,
        totals.1,
        totals.2,
        totals.3,
        totals.4,
        lofat::service::codes_summary(&by_code),
    );
    if !by_code.is_empty() {
        println!("\nrejections by stable reason code:");
        for (code, count) in &by_code {
            println!("  code {code:>3}  ×{count}");
        }
    }
    Ok(())
}

/// `lofat bench-json --out FILE` — measure the E10 hot-path rates and write
/// them as JSON; `scripts/bench_pair.py` compares two builds' documents.
fn cmd_bench_json(args: &[String]) -> CliResult {
    use lofat_bench::throughput::{measure, to_json};

    let out_path = match args {
        [flag, path] if flag == "--out" => path,
        _ => return Err("bench-json: usage: lofat bench-json --out FILE".into()),
    };
    eprintln!("measuring hot paths, best of several 1 s windows each…");
    let sample = measure();
    std::fs::write(out_path, to_json(&sample))?;
    println!(
        "attested {:.0} instr/s | plain {:.0} instr/s | sha3-512 {:.0} B/s, x4 {:.0} B/s | \
         permutation {:.1} ns | verify {:.0} sessions/s",
        sample.attested_instructions_per_sec,
        sample.plain_instructions_per_sec,
        sample.hashed_bytes_per_sec,
        sample.hashed_bytes_per_sec_x4,
        sample.ns_per_permutation,
        sample.verify_sessions_per_sec,
    );
    println!("wrote {out_path}");
    Ok(())
}

/// `lofat fleet` — expand a declarative scenario spec and either print the
/// job list (`enumerate`) or execute it (`run`), writing manifest artifacts.
fn cmd_fleet(args: &[String]) -> CliResult {
    let sub = args.first().ok_or("fleet: missing subcommand (run | enumerate)")?;
    match sub.as_str() {
        "enumerate" => cmd_fleet_enumerate(&args[1..]),
        "run" => cmd_fleet_run(&args[1..]),
        other => Err(format!("fleet: unknown subcommand `{other}` (run | enumerate)").into()),
    }
}

fn load_fleet_spec(path: &str) -> Result<FleetSpec, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("fleet: cannot read spec `{path}`: {e}"))?;
    FleetSpec::parse(&text).map_err(|e| format!("fleet: {path}: {e}").into())
}

fn cmd_fleet_enumerate(args: &[String]) -> CliResult {
    let path = args.first().ok_or("fleet enumerate: missing <spec.fleet>")?;
    let spec = load_fleet_spec(path)?;
    let jobs = lofat_fleet::enumerate_jobs(&spec)?;
    println!("fleet {} — {} scenario(s)", spec.name, jobs.len());
    print!("{}", lofat_fleet::listing(&jobs));
    Ok(())
}

fn cmd_fleet_run(args: &[String]) -> CliResult {
    use lofat_fleet::{ExecOptions, Transport};

    let mut spec_path: Option<String> = None;
    let mut out_dir = "target/fleet".to_string();
    let mut options = ExecOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--transport" => {
                let which =
                    iter.next().ok_or("fleet run: --transport needs pool|epoll|front|all")?;
                (options.pool, options.epoll, options.front) = match which.as_str() {
                    "pool" => (true, false, false),
                    "epoll" => (false, true, false),
                    "front" => (false, false, true),
                    "all" => (true, true, true),
                    other => {
                        return Err(format!(
                            "fleet run: unknown transport `{other}` (pool|epoll|front|all)"
                        )
                        .into());
                    }
                };
            }
            "--out-dir" => {
                out_dir = iter.next().ok_or("fleet run: --out-dir needs a directory")?.clone();
            }
            "--scale" => {
                options.scale_override =
                    Some(iter.next().ok_or("fleet run: --scale needs N")?.parse()?);
            }
            other if !other.starts_with("--") => spec_path = Some(other.to_string()),
            other => return Err(format!("fleet run: unknown argument `{other}`").into()),
        }
    }
    let path = spec_path.ok_or("fleet run: missing <spec.fleet>")?;
    let spec = load_fleet_spec(&path)?;
    let jobs = lofat_fleet::enumerate_jobs(&spec)?;
    eprintln!(
        "fleet {}: {} scenario(s){}{}{}",
        spec.name,
        jobs.len(),
        if options.pool { " × pool" } else { "" },
        if options.epoll { " × epoll" } else { "" },
        if options.front { " × front" } else { "" },
    );

    let report = lofat_fleet::run(&spec, options)?;
    println!(
        "{:<36} {:>7} {:>9} {:>6} {:>5}  verdicts",
        "scenario", "transpt", "accepted", "live", "cons"
    );
    for outcome in &report.outcomes {
        println!(
            "{:<36} {:>7} {:>9} {:>6} {:>5}  {}",
            outcome.job.label(),
            outcome.transport.name(),
            outcome.accepted_verdicts,
            outcome.live,
            if outcome.conserved { "ok" } else { "VIOLATED" },
            lofat::service::codes_summary(&outcome.verdicts),
        );
    }

    // Every scenario must keep the books balanced, on every transport.
    if let Some(broken) = report.outcomes.iter().find(|o| !o.conserved) {
        return Err(format!(
            "fleet run: conservation violated in {} over {}",
            broken.job.label(),
            broken.transport.name()
        )
        .into());
    }
    // With more than one transport enabled, every run of a job must agree
    // verdict-for-verdict with the first — the transports add no semantics.
    let enabled: Vec<Transport> = [
        (options.pool, Transport::Pool),
        (options.epoll, Transport::Epoll),
        (options.front, Transport::Front),
    ]
    .into_iter()
    .filter_map(|(on, t)| on.then_some(t))
    .collect();
    if enabled.len() > 1 {
        for group in report.outcomes.chunks(enabled.len()) {
            let first = &group[0];
            for (outcome, want) in group.iter().zip(&enabled) {
                assert_eq!(outcome.transport, *want);
            }
            for other in &group[1..] {
                if first.verdicts != other.verdicts {
                    return Err(format!(
                        "fleet run: verdict breakdown diverged for {}: {} {} vs {} {}",
                        first.job.label(),
                        first.transport.name(),
                        lofat::service::codes_summary(&first.verdicts),
                        other.transport.name(),
                        lofat::service::codes_summary(&other.verdicts),
                    )
                    .into());
                }
                if first.stats.accepted != other.stats.accepted
                    || first.stats.sessions_rejected != other.stats.sessions_rejected
                    || first.live != other.live
                {
                    return Err(format!(
                        "fleet run: session accounting diverged for {} ({} vs {})",
                        first.job.label(),
                        first.transport.name(),
                        other.transport.name(),
                    )
                    .into());
                }
            }
        }
        println!("transports agree: verdict breakdowns identical for every scenario");
    }

    std::fs::create_dir_all(&out_dir)?;
    let dir = std::path::Path::new(&out_dir);
    std::fs::write(dir.join("manifest.json"), lofat_fleet::manifest_json(&report))?;
    std::fs::write(dir.join("manifest.csv"), lofat_fleet::manifest_csv(&report))?;
    std::fs::write(dir.join("manifest.golden.json"), lofat_fleet::manifest_golden_json(&report))?;
    println!("wrote {out_dir}/manifest.json, manifest.csv, manifest.golden.json");
    Ok(())
}

fn cmd_area(args: &[String]) -> CliResult {
    let l = args.first().map(|a| a.parse()).transpose()?.unwrap_or(16u32);
    let n = args.get(1).map(|a| a.parse()).transpose()?.unwrap_or(4u32);
    let depth = args.get(2).map(|a| a.parse()).transpose()?.unwrap_or(3usize);
    let config = EngineConfig::builder()
        .max_path_bits(l)
        .indirect_target_bits(n)
        .max_nesting_depth(depth)
        .build()?;
    let estimate = AreaModel::new().estimate(&config);
    println!("configuration  : ℓ = {l}, n = {n}, depth = {depth}");
    println!(
        "loop memory    : {} bits ({} bits per loop)",
        estimate.total_loop_memory_bits, estimate.path_memory_bits_per_loop
    );
    println!(
        "block RAMs     : {} ({} per loop + 1 shared)",
        estimate.total_brams, estimate.brams_per_loop
    );
    println!("logic overhead : {:.1}%", estimate.logic_overhead * 100.0);
    println!(
        "registers/LUTs : {:.1}% / {:.1}%",
        estimate.register_utilisation * 100.0,
        estimate.lut_utilisation * 100.0
    );
    println!("max clock      : {:.0} MHz", estimate.max_clock_mhz);
    Ok(())
}
