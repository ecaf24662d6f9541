//! Self-test at smoke scale: every workload runs its real input set for a
//! few seconds, untraced and traced, every check passes, and every metric
//! `BENCHMARK.json` names comes out with its unit.

use lofat_rttbench::workload::WorkloadKind;
use lofat_rttbench::{result_json, run, Options};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = start + text[start..].find(']').expect("section is an array");
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let rest = if key == "name" {
                    entry
                } else {
                    entry.split(&format!("\"{key}\": \"")).nth(1).expect("field present")
                };
                rest.split('"').next().expect("closing quote").to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_listed_metric() {
    // One test, run in sequence: concurrent workloads would share two CPUs
    // and push the open-loop generator off its schedule.
    for workload in WorkloadKind::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            // 10 s leaves a traced fleet pass's untraced half the 1000
            // open-loop round trips a p99 needs.
            let options = Options { workload, seed: 7, seconds: 10.0, trace };
            let outcome =
                run(&options).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let reported: Vec<(String, String)> =
                outcome.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(reported, listed(section), "{} trace={trace}", workload.name());
            assert!(
                outcome.attempted >= 1000,
                "{}: {} sessions",
                workload.name(),
                outcome.attempted
            );
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{}: an end-to-end metric read 0: {:?}",
                    workload.name(),
                    outcome.metrics
                );
            }
            let line = result_json(&outcome);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(outcome.lines.iter().any(|l| l.contains("nproc")), "host line present");
        }
    }
}
