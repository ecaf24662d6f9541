//! Attestation round-trip benchmark for lofat-sim.
//!
//! One run measures one workload for one seed against an in-process
//! `lofat_net::EventLoopServer` configured as `lofat serve` ships, over
//! loopback.  An untraced run reports the end-to-end metrics; a traced run
//! traces every other session, reports the per-layer metrics of the traced
//! sessions and the gap between the median latency of the traced and the
//! untraced ones as the tracing overhead.  Every run checks its
//! verdicts, the service's books, a byte-for-byte replay of every verdict,
//! and the zero-stall claim; any violation fails the run without metrics.
//! See `README.md` next to this crate for the workloads and the metrics.

#![deny(unsafe_code)]

pub mod device;
pub mod fleet;
pub mod record;
pub mod replay;
pub mod setup;
pub mod stats;
mod sys;
pub mod trace;
pub mod workload;

use crate::record::PassLog;
use crate::setup::Live;
use crate::workload::{Plan, Premeasured, WorkloadKind};
use lofat::wire::code;
use lofat::ServiceStats;
use std::collections::HashSet;
use std::path::PathBuf;

/// How late the open-loop generator may send its median session before a
/// run is invalid: later than this, the generator fell behind its schedule
/// and the offered load was no longer the one the workload claims.  The
/// tail (`gen.late_p99_us`) is reported, not gated: virtualised hosts stall
/// their vCPUs for milliseconds now and then, and a stall delays the server
/// as much as the generator — its cost lands in the latency, which is timed
/// from each session's due time.
pub const MAX_LATE_P50_US: f64 = 1000.0;

/// Round trips a latency sample needs: its p99 then has 10 samples beyond.
pub const MIN_LATENCY_SAMPLE: usize = 1000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadKind,
    /// Seed of every input, session draw and arrival time.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that did not get their expected verdict (refused, timed out
    /// or lost to a transport error).
    pub failed: u64,
    /// Metrics for the JSON result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result.
    pub lines: Vec<String>,
}

/// What one measured pass produced, after its checks passed.
struct Measured {
    log: PassLog,
    stats: ServiceStats,
    live_sessions: usize,
    frames_served: u64,
    /// Process peak RSS (`VmHWM`) when the server shut down, in MB.
    peak_rss_mb: f64,
    replay: replay::VerifierReplay,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.log.tally.attempted
    }

    fn failed(&self) -> u64 {
        self.log.tally.failed
    }

    /// Sorted round-trip latencies of the untraced sessions of the latency
    /// sample (every session of an untraced pass), in µs.
    fn latencies_us(&self) -> Vec<f64> {
        let mut sample: Vec<f64> = self
            .log
            .latency_sample()
            .filter(|s| !self.log.tracer.traces(s.key))
            .map(|s| s.latency().as_secs_f64() * 1e6)
            .collect();
        sample.sort_by(f64::total_cmp);
        sample
    }

    /// Sessions with their expected verdict per second of the throughput
    /// window (the closed loop, or the saturation phase).
    fn sessions_per_sec(&self) -> f64 {
        self.log.window_good as f64 / self.log.window_seconds
    }

    /// Process CPU time (generator and server) per session of the latency
    /// phase, in µs.
    fn cpu_us_per_session(&self) -> f64 {
        self.log.phase_cpu.as_secs_f64() * 1e6 / self.log.sessions.len().max(1) as f64
    }
}

/// Runs the workload on `live` for `seconds`, shuts the server down and
/// checks everything a pass must satisfy.
fn measure(
    plan: &Plan,
    pre: &Premeasured,
    live: Live,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<Measured, String> {
    let Live { server, service } = live;
    let addr = server.local_addr();
    let log = match plan.kind {
        WorkloadKind::Device => device::run(plan, addr, seconds, seed, traced),
        WorkloadKind::FleetHot => fleet::run(
            pre,
            fleet::Mix::HONEST,
            addr,
            fleet::Shape::for_seconds(seconds),
            seed,
            traced,
        ),
        WorkloadKind::FleetCold => fleet::run(
            pre,
            fleet::Mix::ADVERSARIAL,
            addr,
            fleet::Shape::for_seconds(seconds),
            seed,
            traced,
        ),
    };
    let frames_served = server.frames_served();
    server.shutdown();
    let mut log = log?;
    let stats = service.stats();
    let live_sessions = service.live_sessions();
    // The server's and the generator's peak, read before the checks below
    // build a database and a twin service of their own.
    let peak_rss_mb = sys::peak_rss_mb();
    drop(service);
    log.load_judged()?;
    if !stats.is_conserved(live_sessions) {
        return Err(format!("the service's books do not balance: {stats:?}, {live_sessions} live"));
    }
    let stall = stall_cycles(pre, &log);
    if stall != 0 {
        return Err(format!("attestation stalled the processor for {stall} cycles"));
    }
    let late = late_us(&log);
    if !late.is_empty() && stats::percentile(&late, 50.0) > MAX_LATE_P50_US {
        return Err(format!(
            "invalid run: the generator fell behind its schedule ({:.1} us late at the median)",
            stats::percentile(&late, 50.0)
        ));
    }
    let sample = log.latency_sample().filter(|s| !log.tracer.traces(s.key)).count();
    if sample < MIN_LATENCY_SAMPLE {
        return Err(format!(
            "only {sample} round trips in the latency sample: p99 needs {MIN_LATENCY_SAMPLE}"
        ));
    }
    let replay = replay::verifier(&setup::measurement_db(plan)?, plan, pre, &log)?;
    Ok(Measured { log, stats, live_sessions, frames_served, peak_rss_mb, replay })
}

/// Attested minus plain simulated cycles, summed over the sessions that sent
/// evidence: the live run's cycles where the session recorded them (traced
/// `device` sessions, all kept one by one), the pre-measured run's otherwise.
fn stall_cycles(pre: &Premeasured, log: &PassLog) -> i128 {
    let premeasured: i128 = log
        .tally
        .evidence_inputs
        .iter()
        .map(|(&input, &n)| {
            let profile = &pre.inputs[input];
            i128::from(n) * (i128::from(profile.attested_cycles) - i128::from(profile.plain_cycles))
        })
        .sum();
    let live: i128 = log
        .sessions
        .iter()
        .filter_map(|s| {
            s.attested_cycles
                .map(|c| i128::from(c) - i128::from(pre.inputs[s.input].attested_cycles))
        })
        .sum();
    premeasured + live
}

/// How late the generator sent each open-loop session, sorted, in µs.
fn late_us(log: &PassLog) -> Vec<f64> {
    let mut late: Vec<f64> = log.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    late.sort_by(f64::total_cmp);
    late
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: WorkloadKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.csv", workload.name()))
}

fn host_line(opts: &Options) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "# workload {} seed {} seconds {} trace {} | host nproc {cpus} simd_tier {} link loopback | \
         server event-loop 4 shards 2 workers 60M-cycle deadline 1024-entry cache default NetLimits",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        lofat_crypto::simd_tier(),
    )
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns the reason when any check fails; no metrics are reported then.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let plan = Plan::new(opts.workload, opts.seed)?;
    let pre = workload::premeasure(&plan)?;
    let mut lines = vec![host_line(opts)];
    if !opts.trace {
        // As many set-ups again after the pass as before it: a virtualised
        // host's speed swings for seconds at a time, and two batches a pass
        // apart sample it twice.
        let (live, mut setups) = setup::bring_up_repeatedly(&plan)?;
        let pass = measure(&plan, &pre, live, opts.seconds, opts.seed, false)?;
        setups.extend(setup::set_up_again(&plan, setups.len())?);
        let metrics = end_to_end(&pass, &setups, &pre, &mut lines);
        return Ok(Outcome { attempted: pass.attempted(), failed: pass.failed(), metrics, lines });
    }
    let (live, _) = setup::bring_up(&plan)?;
    let pass = measure(&plan, &pre, live, opts.seconds, opts.seed, true)?;
    let metrics = per_layer(&plan, &pre, &pass)?;
    let path = spans_path(opts.workload);
    pass.log.tracer.write_csv(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    lines.push(format!("# spans written to {}", path.display()));
    for m in &metrics {
        lines.push(format!("{:<32} {:>14.3} {}", m.name, m.value, m.unit));
    }
    Ok(Outcome { attempted: pass.attempted(), failed: pass.failed(), metrics, lines })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced pass, each printed with how it was
/// measured.  The result line carries the ones `BENCHMARK.json` bounds:
/// `setup_s`, `evidence_bytes` and `peak_rss_mb`.  The report also prints
/// the latency percentiles, `sessions_per_sec` and `cpu_us_per_session`,
/// which are not bounded: on a virtualised host they follow the host's
/// speed, which swings by tens of percent for tens of seconds at a time, so
/// ten runs of one build spread wider than any bound allows (the traced run
/// reports them per layer); and `error_rate` and `sim_stall_cycles`, which
/// read 0 on some workloads, where a bound relative to the median means
/// nothing (the result line carries them as `failed`/`attempted` and as a
/// check).
///
/// `setup_s` is the fastest of the run's set-ups: on a virtualised host a
/// set-up runs at one of two speeds about 2x apart, mixed from one set-up
/// to the next, so the median of a run's set-ups lands on either speed
/// while the fastest holds.
fn end_to_end(
    pass: &Measured,
    setups: &[f64],
    pre: &Premeasured,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let latencies = pass.latencies_us();
    let n = latencies.len();
    let beyond = |p: f64| n - (n as f64 * p / 100.0).ceil() as usize;
    let frames = pass.log.tally.evidence_frames;
    let bytes = pass.log.tally.evidence_bytes;
    let refused = pass.log.tally.refused;
    let bounded = [
        (
            metric("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min), "s"),
            format!(
                "fastest of {} set-ups, half before the pass and half after, median {:.6} s; \
                 pre-measurement {:.3} s excluded",
                setups.len(),
                stats::median(&mut setups.to_vec()),
                pre.elapsed.as_secs_f64()
            ),
        ),
        (
            metric("evidence_bytes", bytes as f64 / frames.max(1) as f64, "B"),
            format!("{frames} evidence frames"),
        ),
        (metric("peak_rss_mb", pass.peak_rss_mb, "MB"), "VmHWM at server shutdown".to_string()),
    ];
    let reported = [
        (
            metric("rtt_p50_us", stats::percentile(&latencies, 50.0), "us"),
            format!("n={n}, {} beyond", beyond(50.0)),
        ),
        (
            metric("rtt_p99_us", stats::percentile(&latencies, 99.0), "us"),
            format!("n={n}, {} beyond", beyond(99.0)),
        ),
        (
            metric("sessions_per_sec", pass.sessions_per_sec(), "1/s"),
            format!("{} good sessions in {:.2} s", pass.log.window_good, pass.log.window_seconds),
        ),
        (
            metric("cpu_us_per_session", pass.cpu_us_per_session(), "us"),
            format!("{:.3} CPU-s over the latency phase", pass.log.phase_cpu.as_secs_f64()),
        ),
        (
            metric("error_rate", pass.failed() as f64 / pass.attempted().max(1) as f64, "ratio"),
            format!(
                "{} of {} sessions: {refused} refused, {} timed out or lost",
                pass.failed(),
                pass.attempted(),
                pass.failed() - refused
            ),
        ),
        (
            metric("sim_stall_cycles", stall_cycles(pre, &pass.log) as f64, "cycles"),
            "checked: attested minus plain cycles over every session".to_string(),
        ),
    ];
    for (m, note) in &bounded {
        lines.push(format!("{:<18} {:>14.6} {:<6} ({note})", m.name, m.value, m.unit));
    }
    for (m, note) in &reported {
        lines.push(format!("{:<18} {:>14.3} {:<6} ({note}; not bounded)", m.name, m.value, m.unit));
    }
    bounded.into_iter().map(|(m, _)| m).collect()
}

/// Mean duration (µs) of the spans called `name` that belong to `keys`
/// (any session when `keys` is `None`).
fn span_mean(log: &PassLog, name: &str, keys: Option<&HashSet<u64>>) -> f64 {
    stats::mean(
        log.tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && keys.is_none_or(|k| k.contains(&s.session)))
            .map(|s| s.duration_ns() as f64 / 1e3),
    )
}

/// The per-layer metrics of a traced pass, plus the tracing overhead: the
/// median latency of its traced sessions minus that of its untraced ones.
/// The latency percentiles cover the untraced half; `sessions_per_sec` and
/// `cpu_us_per_session` the whole pass, whose time and CPU both halves share.
fn per_layer(plan: &Plan, pre: &Premeasured, traced: &Measured) -> Result<Vec<Metric>, String> {
    let log = &traced.log;
    let sample: HashSet<u64> = log.latency_sample().map(|s| s.key).collect();
    let keys = Some(&sample);
    let self_ns = log.tracer.self_times_ns();
    let unattributed = stats::mean(
        log.tracer
            .spans()
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == "session" && sample.contains(&s.session))
            .map(|(_, &ns)| ns as f64 / 1e3),
    );
    let weights = &traced.log.tally.evidence_inputs;
    let total: u64 = weights.values().sum::<u64>().max(1);
    let weighted = |f: &dyn Fn(usize) -> f64| -> f64 {
        weights.iter().map(|(&i, &n)| f(i) * n as f64).sum::<f64>() / total as f64
    };
    let prover = replay::prover(plan, weights)?;
    // The fleet's devices never run live: their respond is replayed too.
    let respond_us = if plan.kind == WorkloadKind::Device {
        span_mean(log, "prover.respond", keys)
    } else {
        prover.respond_us
    };
    let verifier = traced.replay;
    let verdict_us = span_mean(log, "net.verdict", keys);
    let stats = &traced.stats;
    let code_count = |codes: &[u16]| -> f64 {
        codes.iter().map(|c| stats.rejections_by_code.get(c).copied().unwrap_or(0)).sum::<u64>()
            as f64
    };
    let decided = stats.cache_hits + stats.cache_misses;
    let (hashed, compressed) = weights.iter().fold((0u64, 0u64), |(h, c), (&i, &n)| {
        let e = &pre.inputs[i].engine;
        (h + e.pairs_hashed * n, c + e.pairs_compressed * n)
    });
    let late = late_us(log);
    let latencies = traced.latencies_us();
    let p50 = |traced_group: bool| {
        let mut group: Vec<f64> = log
            .latency_sample()
            .filter(|s| log.tracer.traces(s.key) == traced_group)
            .map(|s| s.latency().as_secs_f64() * 1e6)
            .collect();
        if group.is_empty() {
            0.0
        } else {
            stats::median(&mut group)
        }
    };
    Ok(vec![
        metric("net.connect_us", span_mean(log, "net.connect", None), "us"),
        metric("net.challenge_us", span_mean(log, "net.challenge", keys), "us"),
        metric("prover.respond_us", respond_us, "us"),
        metric("wire.encode_us", span_mean(log, "wire.encode", keys), "us"),
        metric("net.verdict_us", verdict_us, "us"),
        metric("rtt.unattributed_us", unattributed, "us"),
        metric("rtt_p50_us", stats::percentile(&latencies, 50.0), "us"),
        metric("rtt_p99_us", stats::percentile(&latencies, 99.0), "us"),
        metric("sessions_per_sec", traced.sessions_per_sec(), "1/s"),
        metric("cpu_us_per_session", traced.cpu_us_per_session(), "us"),
        metric("rv32.run_us", prover.run_us, "us"),
        metric("engine.trace_us", prover.traced_us - prover.run_us, "us"),
        metric("engine.finalize_us", prover.finalize_us, "us"),
        metric("crypto.sign_us", prover.sign_us, "us"),
        metric(
            "prover.overhead_us",
            respond_us - prover.traced_us - prover.finalize_us - prover.sign_us,
            "us",
        ),
        metric("service.open_us", verifier.open_us, "us"),
        metric("service.verify_us", verifier.verify_us, "us"),
        metric("wire.decode_us", verifier.decode_us, "us"),
        metric("crypto.mac_verify_us", verifier.mac_verify_us, "us"),
        metric("measurement_db.check_us", verifier.check_us, "us"),
        metric("net.verdict_overhead_us", verdict_us - verifier.verify_us, "us"),
        metric("service.cache_hit_ratio", stats.cache_hits as f64 / decided.max(1) as f64, "ratio"),
        metric(
            "service.rejected_ratio",
            stats.rejected as f64 / (stats.accepted + stats.rejected).max(1) as f64,
            "ratio",
        ),
        metric("service.rejected_bad_signature", code_count(&[code::BAD_SIGNATURE]), "count"),
        metric("service.rejected_nonce_replayed", code_count(&[code::NONCE_REPLAYED]), "count"),
        metric(
            "service.rejected_measurement",
            code_count(&[
                code::INVALID_LOOP_PATH,
                code::AUTHENTICATOR_MISMATCH,
                code::METADATA_MISMATCH,
            ]),
            "count",
        ),
        metric("service.live_sessions", traced.live_sessions as f64, "count"),
        metric(
            "net.frames_per_session",
            traced.frames_served as f64 / traced.attempted().max(1) as f64,
            "frames",
        ),
        metric("net.capacity_refusals", log.capacity_refusals as f64, "count"),
        metric("rv32.instructions", weighted(&|i| pre.inputs[i].instructions as f64), "count"),
        metric(
            "engine.pairs_hashed",
            weighted(&|i| pre.inputs[i].engine.pairs_hashed as f64),
            "count",
        ),
        metric(
            "engine.compression_ratio",
            compressed as f64 / (hashed + compressed).max(1) as f64,
            "ratio",
        ),
        metric("gen.sign_us", span_mean(log, "gen.sign", keys), "us"),
        metric(
            "gen.late_p99_us",
            if late.is_empty() { 0.0 } else { stats::percentile(&late, 99.0) },
            "us",
        ),
        metric("gen.premeasure_s", pre.elapsed.as_secs_f64(), "s"),
        metric("trace.overhead_us", p50(true) - p50(false), "us"),
        metric("error_rate", traced.failed() as f64 / traced.attempted().max(1) as f64, "ratio"),
        metric("sim_stall_cycles", stall_cycles(pre, log) as f64, "cycles"),
    ])
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
