//! `lofat-rttbench --workload <device|fleet-hot|fleet-cold> --seed <n>
//! --seconds <s> --trace <0|1>`: one benchmark run.  Prints a report, then
//! the result as one JSON object on the last line; exits non-zero without a
//! result when any correctness check fails.

use lofat_rttbench::workload::WorkloadKind;
use lofat_rttbench::{result_json, run, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|opts| run(&opts));
    match outcome {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", result_json(&outcome));
        }
        Err(reason) => {
            eprintln!("lofat-rttbench: {reason}");
            std::process::exit(1);
        }
    }
}
