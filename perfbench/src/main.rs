//! The serving benchmark of the IC task server.
//!
//! ```text
//! perfbench --workload <wal_tcp|fleet_10k|mesh_optimal|wal_recover>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs episodes of one workload until `--seconds` have passed, checks
//! every episode's outputs, prints each metric by name with its unit
//! and sample count, and ends with one JSON line. `--trace 0` reports
//! the end-to-end metrics, measured with tracing off; `--trace 1`
//! alternates untraced and traced episodes and reports the per-layer
//! rows of the traced ones. `--smoke` shrinks every workload to a tiny
//! size for the benchmark's own tests. Exits 1 if any correctness check
//! fails, 2 on bad arguments.

mod gen;
mod probe;
mod retime;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{episode, Episode, Size, Workload};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("assign_p50_us", "us"),
    ("assign_p99_us", "us"),
    ("first_assign_s", "s"),
    ("pool_envelope_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. The `_ns` rows of the reactor,
/// trace, wire, machine and timer layers, plus `reactor.residue_ns`,
/// add up to `reactor.wall_ns`.
const PER_LAYER: [(&str, &str); 36] = [
    ("reactor.wall_ns", "ns"),
    ("reactor.poll_busy_ns", "ns"),
    ("reactor.poll_idle_ns", "ns"),
    ("reactor.send_ns", "ns"),
    ("trace.record_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("machine.step_ns", "ns"),
    ("timer.ns", "ns"),
    ("reactor.residue_ns", "ns"),
    ("reactor.polls", "count"),
    ("reactor.events_in", "count"),
    ("reactor.bytes_in", "bytes"),
    ("reactor.sends", "count"),
    ("reactor.bytes_out", "bytes"),
    ("reactor.clock_reads", "count"),
    ("trace.records", "count"),
    ("trace.bytes", "bytes"),
    ("trace.parse_ns", "ns"),
    ("wire.frames_in", "count"),
    ("wire.frames_out", "count"),
    ("machine.events", "count"),
    ("machine.allocations", "count"),
    ("machine.realloc_ratio", "ratio"),
    ("machine.waits", "count"),
    ("machine.resumes", "count"),
    ("timer.armed", "count"),
    ("sched.setup_ns", "ns"),
    ("dag.build_ns", "ns"),
    ("recovery.read_ns", "ns"),
    ("recovery.restore_ns", "ns"),
    ("recovery.events", "count"),
    ("recovery.first_assign_ns", "ns"),
    ("client.busy_ns", "ns"),
    ("client.idle_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
];

/// The rows between `reactor.wall_ns` and the residue: the attributed
/// layer times.
const ATTRIBUTED: std::ops::Range<usize> = 1..9;

/// Fewest episodes a run makes, so every median has company.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: (&'static str, Workload),
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|(name, _)| *name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The value a tenth of the samples reach or beat (nearest rank).
fn fastest_tenth(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(10) - 1]
}

/// One reported metric: its value and how it was aggregated.
struct Row {
    value: f64,
    note: String,
}

/// The end-to-end rows: medians over the measured episodes, except
/// `first_assign_s`, and the memory of the warm-up, which as the
/// process's first episode is a fresh server's.
///
/// `first_assign_s` is the fastest tenth of the episodes. It is one
/// start-up per episode, mostly single-threaded set-up and WAL parsing,
/// and the host's other tenants slow such code by up to half for
/// minutes at a time: they only ever add time, so the fast end of the
/// episodes follows the program's own cost while their median follows
/// the neighbours' load. The median is printed beside it.
fn end_to_end(warmup: &Episode, eps: &[&Episode]) -> BTreeMap<&'static str, Row> {
    let of = |f: fn(&Episode) -> f64| {
        let v: Vec<f64> = eps.iter().map(|e| f(e)).collect();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Row {
            note: format!("median of {} episodes, range {lo:.6}..{hi:.6}", v.len()),
            value: median(v),
        }
    };
    let first_assign = {
        let v: Vec<f64> = eps.iter().map(|e| e.first_assign_s).collect();
        Row {
            note: format!(
                "fastest tenth of {} episodes; their median is {:.6}",
                v.len(),
                median(v.clone())
            ),
            value: fastest_tenth(v),
        }
    };
    let sum = |f: fn(&Episode) -> usize| eps.iter().map(|e| f(e)).sum::<usize>();
    let samples = format!(
        "; {} steady samples, excluded {} registration and {} drain; {} waits",
        sum(|e| e.latency.samples),
        sum(|e| e.latency.registration),
        sum(|e| e.latency.drain),
        sum(|e| e.latency.waits as usize),
    );
    let mut p50 = of(|e| e.latency.p50_us);
    let mut p99 = of(|e| e.latency.p99_us);
    p50.note.push_str(&samples);
    p99.note.push_str(&samples);
    BTreeMap::from([
        ("setup_s", of(|e| e.setup_s)),
        ("tasks_per_s", of(|e| e.tasks_per_s)),
        ("assign_p50_us", p50),
        ("assign_p99_us", p99),
        ("first_assign_s", first_assign),
        ("pool_envelope_ratio", of(|e| e.envelope_ratio)),
        (
            "peak_rss_mb",
            Row {
                value: warmup.peak_rss_mb,
                note: "the warm-up episode, first in the process".to_string(),
            },
        ),
    ])
}

fn per_layer(untraced: &[&Episode], traced: &[&Episode]) -> BTreeMap<&'static str, Row> {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for e in traced {
        for (&k, &v) in e.layers.iter().flatten() {
            *sums.entry(k).or_default() += v / traced.len() as f64;
        }
    }
    let tps = |eps: &[&Episode]| median(eps.iter().map(|e| e.tasks_per_s).collect());
    let note = format!("mean of {} traced episodes", traced.len());
    let mut rows: BTreeMap<&'static str, Row> = sums
        .into_iter()
        .map(|(k, value)| {
            (
                k,
                Row {
                    value,
                    note: note.clone(),
                },
            )
        })
        .collect();
    rows.insert(
        "bench.trace_overhead",
        Row {
            value: tps(untraced) / tps(traced),
            note: format!(
                "median tasks_per_s of {} untraced over {} traced episodes",
                untraced.len(),
                traced.len()
            ),
        },
    );
    rows
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (name, workload) = args.workload;
    let size = Size::of(workload, args.smoke);
    let dir = Path::new(".bench_work");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let stopwatch = retime::stopwatch_ns();
    println!(
        "# perfbench {name}: {} tasks, {} workers, seed {}, {} s, trace {}, {} cores",
        size.tasks,
        size.workers,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let min = if args.trace {
        2 * MIN_EPISODES
    } else {
        MIN_EPISODES
    };
    // The first episode warms the allocator and caches; it is checked,
    // and only its memory is measured.
    let warmup = episode(workload, size, args.seed, 0, args.trace, dir, stopwatch);
    let mut eps: Vec<Episode> = Vec::new();
    while eps.len() < min || start.elapsed() < budget {
        let traced = args.trace && eps.len() % 2 == 1;
        eps.push(episode(
            workload,
            size,
            args.seed,
            eps.len() + 1,
            traced,
            dir,
            stopwatch,
        ));
    }
    let _ = std::fs::remove_dir(dir);

    let all = || std::iter::once(&warmup).chain(&eps);
    let mut checks: BTreeMap<&str, (usize, Vec<String>)> = BTreeMap::new();
    for e in all() {
        for c in &e.checks {
            let entry = checks.entry(c.name).or_default();
            entry.0 += 1;
            entry.1.extend(c.problem.clone());
        }
    }
    let attempted: u64 = all().map(|e| e.attempted).sum();
    let op_failures: usize = all().map(|e| e.failures.len()).sum();
    let check_failures = checks
        .iter()
        .filter(|(name, _)| **name != "no failed operation")
        .map(|(_, (_, problems))| problems.len())
        .sum::<usize>();
    let failed = op_failures + check_failures;
    for (name, (runs, problems)) in &checks {
        match problems.first() {
            None => println!("check ok   {name} ({runs} episodes)"),
            Some(p) => println!(
                "check FAIL {name} ({} of {runs} episodes): {p}",
                problems.len()
            ),
        }
    }
    println!(
        "error_rate {} ratio ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );

    let untraced: Vec<&Episode> = eps.iter().filter(|e| e.layers.is_none()).collect();
    let traced: Vec<&Episode> = eps.iter().filter(|e| e.layers.is_some()).collect();
    let (table, rows): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER[..], per_layer(&untraced, &traced))
    } else {
        (&END_TO_END[..], end_to_end(&warmup, &untraced))
    };
    let value = |metric: &str| rows.get(metric).map_or(f64::NAN, |r| r.value);
    for &(metric, unit) in table {
        let note = rows.get(metric).map_or("", |r| r.note.as_str());
        println!("{metric} {} {unit} ({note})", json_number(value(metric)));
    }
    if args.trace {
        let attributed: f64 = PER_LAYER[ATTRIBUTED]
            .iter()
            .map(|(m, _)| value(m))
            .sum::<f64>()
            + value("reactor.residue_ns");
        println!(
            "# {} plus reactor.residue_ns sum to {} ns; reactor.wall_ns is {} ns",
            PER_LAYER[ATTRIBUTED]
                .iter()
                .map(|(m, _)| *m)
                .collect::<Vec<_>>()
                .join(" + "),
            json_number(attributed),
            json_number(value("reactor.wall_ns")),
        );
    }

    let finite = table.iter().all(|(m, _)| value(m).is_finite());
    let correct = failed == 0 && finite;
    let body: Vec<String> = table
        .iter()
        .map(|&(metric, unit)| {
            format!(
                "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value(metric))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
