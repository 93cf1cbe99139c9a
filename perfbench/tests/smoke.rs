//! Tiny-size runs of all four workloads through the benchmark binary:
//! every metric `BENCHMARK.json` names prints with its unit, in both
//! the human-readable lines and the final JSON line, and every
//! correctness check runs and holds.

use std::path::Path;
use std::process::Command;

/// Checks every episode of every workload runs.
const COMMON_CHECKS: [&str; 5] = [
    "no failed operation",
    "report completions and registrations match",
    "healthy workers never fail (server failures are the injected ones)",
    "every task completes exactly once",
    "IC-optimal envelope certified",
];

/// Each workload and the checks only it runs.
const WORKLOADS: [(&str, &[&str]); 4] = [
    (
        "wal_tcp",
        &[
            "wal_tcp holds at most 2 sockets",
            "trace file written",
            "trace audits clean",
            "healthy workers never fail (trace)",
        ],
    ),
    ("fleet_10k", &[]),
    (
        "mesh_optimal",
        &["trace audits clean", "healthy workers never fail (trace)"],
    ),
    (
        "wal_recover",
        &[
            "the server was killed mid-run",
            "recovery loses no completed work",
            "trace file written",
            "trace audits clean",
            "healthy workers never fail (trace)",
        ],
    ),
];

/// `(name, unit)` pairs.
type Metrics = Vec<(String, String)>;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Metrics {
    let quoted = |s: &str, key: &str| -> Option<String> {
        let rest = &s[s.find(&format!("\"{key}\""))?..];
        let rest = &rest[rest.find(':')? + 1..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    section
        .split('{')
        .filter_map(|entry| Some((quoted(entry, "name")?, quoted(entry, "unit")?)))
        .collect()
}

fn benchmark_metrics() -> (Metrics, Metrics) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
    let layers = text.find("\"per_layer\"").expect("per_layer section");
    (metrics(&text[e2e..layers]), metrics(&text[layers..]))
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_runs_every_check() {
    let (e2e, layers) = benchmark_metrics();
    assert_eq!(e2e.len(), 7, "end-to-end metrics: {e2e:?}");
    assert!(layers.len() >= 30, "per-layer metrics: {layers:?}");
    for (workload, own) in WORKLOADS {
        for trace in [0, 1] {
            let out = run(workload, trace);
            let last = out.lines().last().unwrap_or("");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{last}");
            for (name, unit) in if trace == 0 { &e2e } else { &layers } {
                let line = format!("\n{name} ");
                let at = out
                    .find(&line)
                    .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
                let printed = out[at + 1..].lines().next().unwrap_or("");
                assert!(
                    printed.split(' ').nth(2) == Some(unit.as_str()),
                    "{workload}: {printed:?} lacks unit {unit}"
                );
                let key = format!("\"{name}\": {{\"value\": ");
                let entry = last
                    .find(&key)
                    .map(|at| &last[at..])
                    .and_then(|rest| rest.split('}').next());
                assert!(
                    entry.is_some_and(|e| e.ends_with(&format!("\"unit\": \"{unit}\""))),
                    "{workload}: JSON lacks {name} in {unit}"
                );
            }
            let traced: &[&str] = if trace == 1 {
                &["re-timed replay reproduces every reply"]
            } else {
                &[]
            };
            for check in COMMON_CHECKS.iter().chain(own).chain(traced) {
                assert!(
                    out.contains(&format!("check ok   {check} (")),
                    "{workload} --trace {trace}: check {check:?} did not run and hold:\n{out}"
                );
            }
        }
    }
}
