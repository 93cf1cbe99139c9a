//! Trace-pipeline property tests: for randomly generated dags, a
//! simulated run's trace must (1) round-trip through the JSONL format
//! byte-exactly at the event level, (2) reproduce the run's metrics
//! from the parsed trace alone (`SimResult::from_trace` is the single
//! source of truth), and (3) replay clean under the IC04xx audit. The
//! symbolic-certification path is exercised on a family dag past the
//! exhaustive envelope limit. The single-pass event decoder of
//! `TraceReader` is checked against a reference reader built on the
//! `Json` tree, over mutated and truncated event lines.

use ic_scheduling::audit::audit_trace;
use ic_scheduling::audit::Severity;
use ic_scheduling::dag::rng::XorShift64;
use ic_scheduling::dag::testgen::random_dags;
use ic_scheduling::dag::{Dag, NodeId};
use ic_scheduling::families::mesh;
use ic_scheduling::sched::heuristics::Policy;
use ic_scheduling::sched::AllocationPolicy;
use ic_scheduling::sim::json::{self, Json};
use ic_scheduling::sim::trace::{MemorySink, TraceReader};
use ic_scheduling::sim::{
    simulate_traced, ClientProfile, SimConfig, SimResult, Trace, TraceEvent, TraceHeader,
};

fn run(dag: &Dag, policy: &dyn AllocationPolicy, clients: usize, seed: u64) -> (SimResult, Trace) {
    let cfg = SimConfig {
        clients: ClientProfile {
            num_clients: clients,
            ..ClientProfile::default()
        },
        seed,
        ..SimConfig::default()
    };
    let mut sink = MemorySink::new();
    let r = simulate_traced(dag, policy, &cfg, &mut sink);
    (r, sink.into_trace().expect("header recorded"))
}

#[test]
fn jsonl_round_trips_exactly_on_random_dags() {
    for (i, dag) in random_dags(0xA11CE, 25, 14, 35).iter().enumerate() {
        let clients = 1 + i % 4;
        let (_, trace) = run(dag, &Policy::Fifo, clients, i as u64);
        let text = trace.to_jsonl();
        let parsed = Trace::from_jsonl(&text).expect("own output parses");
        assert_eq!(parsed.header, trace.header, "case {i}");
        assert_eq!(parsed.events, trace.events, "case {i}");
        // Serialization is deterministic: a second round is identical.
        assert_eq!(parsed.to_jsonl(), text, "case {i}");
    }
}

#[test]
fn metrics_survive_serialization_on_random_dags() {
    for (i, dag) in random_dags(0xBEA7, 20, 12, 40).iter().enumerate() {
        let policies: [&dyn AllocationPolicy; 3] = [
            &Policy::Fifo,
            &Policy::GreedyEligibility,
            &Policy::Random(i as u64),
        ];
        let p = policies[i % policies.len()];
        let (r, trace) = run(dag, p, 1 + i % 3, 1000 + i as u64);
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(SimResult::from_trace(&parsed), r, "case {i}");
    }
}

#[test]
fn random_runs_replay_clean_under_the_trace_audit() {
    for (i, dag) in random_dags(0x7ACE, 20, 12, 40).iter().enumerate() {
        let (_, trace) = run(dag, &Policy::GreedyEligibility, 1 + i % 4, i as u64);
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        let diags = audit_trace(&parsed);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "case {i}: {diags:?}"
        );
    }
}

#[test]
fn failures_reallocate_and_still_replay_clean() {
    let mut cfg = SimConfig {
        clients: ClientProfile {
            num_clients: 3,
            failure_prob: 0.25,
            ..ClientProfile::default()
        },
        ..SimConfig::default()
    };
    for (i, dag) in random_dags(0xFA17, 10, 10, 40).iter().enumerate() {
        cfg.seed = i as u64;
        let mut sink = MemorySink::new();
        simulate_traced(dag, &Policy::Fifo, &cfg, &mut sink);
        let trace = sink.into_trace().unwrap();
        let has_failure = trace
            .events
            .iter()
            .any(|e| matches!(e, ic_scheduling::sim::TraceEvent::Failed { .. }));
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        let diags = audit_trace(&parsed);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "case {i} (failures: {has_failure}): {diags:?}"
        );
    }
}

#[test]
fn symbolic_certification_covers_dags_past_the_exhaustive_limit() {
    // 55 nodes — the down-set lattice is out of reach, but the mesh is
    // recognized and its closed-form envelope applied.
    let g = mesh::out_mesh(10);
    let s = mesh::out_mesh_schedule(&g);
    let (_, optimal) = run(&g, &s, 1, 3);
    let parsed = Trace::from_jsonl(&optimal.to_jsonl()).unwrap();
    assert!(
        audit_trace(&parsed).is_empty(),
        "optimal run is fully clean"
    );

    let (_, lifo) = run(&g, &Policy::Lifo, 1, 3);
    let parsed = Trace::from_jsonl(&lifo.to_jsonl()).unwrap();
    let diags = audit_trace(&parsed);
    assert!(
        diags
            .iter()
            .any(|d| d.code == ic_scheduling::audit::diag::ENVELOPE_DEPARTURE),
        "LIFO departs from the symbolic envelope: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.severity == Severity::Warning),
        "envelope departure alone is advisory"
    );
}

/// What reading one trace text produced, in a form both readers share:
/// the events, the torn tail and the intact-prefix length, or the hard
/// error's `(line, message)`.
type Outcome = Result<(Vec<TraceEvent>, Option<(usize, String)>, u64), (usize, String)>;

fn decoded(text: &str) -> Outcome {
    match TraceReader::read(text) {
        Ok(r) => Ok((
            r.trace.events,
            r.torn.map(|t| (t.line, t.message)),
            r.valid_bytes,
        )),
        Err(e) => Err((e.line, e.message)),
    }
}

/// The reference reader: every line is parsed whole into a `Json` tree
/// by `json::parse`, and the event is read off the tree field by field,
/// with the same line splitting and torn-tail rule as `TraceReader`.
fn tree_decoded(text: &str) -> Outcome {
    let (mut pos, mut lineno, mut consumed) = (0, 0, 0);
    let mut header_seen = false;
    let mut events = Vec::new();
    let mut torn = None;
    while pos < text.len() {
        let rest = &text[pos..];
        let (raw, end) = match rest.find('\n') {
            Some(i) => (&rest[..i], pos + i + 1),
            None => (rest, text.len()),
        };
        pos = end;
        lineno += 1;
        let line = raw.trim();
        if line.is_empty() {
            consumed = end;
            continue;
        }
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                if text[pos..].lines().any(|l| !l.trim().is_empty()) {
                    return Err((lineno, e));
                }
                torn = Some((lineno, e));
                break;
            }
        };
        consumed = end;
        if !header_seen {
            assert_eq!(v.get("type").and_then(Json::as_str), Some("header"));
            header_seen = true;
            continue;
        }
        events.push(tree_event(&v).map_err(|m| (lineno, m))?);
    }
    Ok((events, torn, consumed as u64))
}

fn tree_event(v: &Json) -> Result<TraceEvent, String> {
    let kind = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing \"type\" field")?;
    if kind == "header" {
        return Err("duplicate header".into());
    }
    let field = |key: &str| v.get(key).ok_or(format!("missing \"{key}\" field"));
    let bad = |key: &str| format!("invalid \"{key}\" field");
    let step = field("step")?.as_u64().ok_or_else(|| bad("step"))?;
    let time = field("t")?.as_f64().ok_or_else(|| bad("t"))?;
    let client = field("client")?.as_usize().ok_or_else(|| bad("client"))?;
    if kind == "idle" {
        return Ok(TraceEvent::Idle { step, time, client });
    }
    if !matches!(
        kind,
        "alloc" | "complete" | "fail" | "resume" | "spec" | "revoke"
    ) {
        return Err(format!("unknown event type \"{kind}\""));
    }
    let task = NodeId(
        field("task")?
            .as_u64()
            .and_then(|u| u32::try_from(u).ok())
            .ok_or_else(|| bad("task"))?,
    );
    let pool = match v.get("pool") {
        Some(p) => Some(p.as_usize().ok_or_else(|| bad("pool"))?),
        None => None,
    };
    Ok(match kind {
        "alloc" => TraceEvent::Allocated {
            step,
            time,
            client,
            task,
            pool,
        },
        "complete" => TraceEvent::Completed {
            step,
            time,
            client,
            task,
            pool,
        },
        "fail" => TraceEvent::Failed {
            step,
            time,
            client,
            task,
            pool,
        },
        "spec" => TraceEvent::Speculated {
            step,
            time,
            client,
            task,
            pool,
        },
        "resume" => TraceEvent::Resumed {
            step,
            time,
            client,
            task,
        },
        _ => TraceEvent::Revoked {
            step,
            time,
            client,
            task,
        },
    })
}

/// One event of a random kind, with field values that include the
/// extremes the writer can emit.
fn random_event(rng: &mut XorShift64, step: u64) -> TraceEvent {
    let times = [0.0, 1.25, 7.0, 1e-7, 1e21, -0.0, f64::INFINITY];
    let time = match rng.gen_range(3) {
        0 => times[rng.gen_range(times.len())],
        _ => rng.gen_f64() * 1000.0,
    };
    let step = if rng.gen_bool(0.1) { u64::MAX } else { step };
    let client = rng.gen_range(6);
    let task = NodeId(if rng.gen_bool(0.1) {
        u32::MAX
    } else {
        rng.gen_range(50) as u32
    });
    let pool = rng.gen_bool(0.7).then(|| rng.gen_range(40));
    match rng.gen_range(7) {
        0 => TraceEvent::Allocated {
            step,
            time,
            client,
            task,
            pool,
        },
        1 => TraceEvent::Completed {
            step,
            time,
            client,
            task,
            pool,
        },
        2 => TraceEvent::Failed {
            step,
            time,
            client,
            task,
            pool,
        },
        3 => TraceEvent::Speculated {
            step,
            time,
            client,
            task,
            pool,
        },
        4 => TraceEvent::Idle { step, time, client },
        5 => TraceEvent::Resumed {
            step,
            time,
            client,
            task,
        },
        _ => TraceEvent::Revoked {
            step,
            time,
            client,
            task,
        },
    }
}

/// Values a mutated field may take: numeric strings, leading zeros,
/// `u64` and `u32` overflow, negative, fractional and exponent numbers,
/// nested and literal values, escapes, and a few syntax errors.
const VALUES: &[&str] = &[
    "\"5\"",
    "\"+5\"",
    "\"\"",
    "\"\\u0035\"",
    "\"1.5\"",
    "007",
    "00",
    "0",
    "-0",
    "-3",
    "2.5",
    "1e3",
    "1E+2",
    "01.5",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "true",
    "false",
    "null",
    "[]",
    "[1,{\"a\":null}]",
    "{}",
    "{\"k\":[true,\"✓\"]}",
    "\"alloc\"",
    "\"idle\"",
    "\"header\"",
    "\"warp\"",
    "\"\\u0061lloc\"",
    "\"comp\\u006cete\"",
    "-",
    "1-2",
    "1e",
    "tru",
    "[1,]",
    "\"open",
    "\"bad\\q\"",
];

const KEYS: &[&str] = &[
    "\"type\"",
    "\"step\"",
    "\"t\"",
    "\"client\"",
    "\"task\"",
    "\"pool\"",
];

const WHITESPACE: &[&str] = &["", "", " ", "\t", "  ", "\r", " \t "];

/// Re-emit an object from its `(key, value)` texts, with random
/// whitespace around every token.
fn emit(pairs: &[(String, String)], rng: &mut XorShift64) -> String {
    let mut ws = || WHITESPACE[rng.gen_range(WHITESPACE.len())];
    let mut out = format!("{}{{", ws());
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}{k}{}:{}{v}{}", ws(), ws(), ws(), ws()));
    }
    out.push_str(&format!("{}}}{}", ws(), ws()));
    out
}

/// The writer's line, then mutations of it.
fn event_lines(ev: &TraceEvent, rng: &mut XorShift64) -> Vec<String> {
    let line = ev.to_json_line().trim_end().to_string();
    let Ok(Json::Obj(fields)) = json::parse(&line) else {
        // A non-finite time is no JSON number: only the raw line.
        return vec![line];
    };
    let pairs: Vec<(String, String)> = fields
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Json::Num(raw) => raw.clone(),
                Json::Str(s) => json::json_string(s),
                other => panic!("writer emitted {other:?}"),
            };
            (json::json_string(k), v)
        })
        .collect();
    let mut out = vec![line];
    // Reordered keys and added whitespace.
    for _ in 0..2 {
        let mut p = pairs.clone();
        rng.shuffle(&mut p);
        out.push(emit(&p, rng));
    }
    // A changed value, a duplicate key before or after the original,
    // an unknown key, a missing key, and an escaped key.
    for _ in 0..6 {
        let mut p = pairs.clone();
        let i = rng.gen_range(p.len());
        let value = VALUES[rng.gen_range(VALUES.len())].to_string();
        match rng.gen_range(6) {
            0 => p[i].1 = value,
            1 => p.insert(i, (p[i].0.clone(), value)),
            2 => p.insert(i + 1, (p[i].0.clone(), value)),
            3 => p.insert(i, ("\"extra\"".into(), value)),
            4 => {
                p.remove(i);
            }
            _ => p[i].0 = p[i].0.replacen('t', "\\u0074", 1),
        }
        out.push(emit(&p, rng));
    }
    // A key the line lacks, with a random value.
    let mut p = pairs.clone();
    p.push((
        KEYS[rng.gen_range(KEYS.len())].to_string(),
        VALUES[rng.gen_range(VALUES.len())].to_string(),
    ));
    out.push(emit(&p, rng));
    // An integral time and an escaped type.
    let mut p = pairs.clone();
    p[2].1 = "0".into();
    p[0].1 = p[0].1.replacen('e', "\\u0065", 1);
    out.push(emit(&p, rng));
    // Not an object at all; surrounding Unicode whitespace.
    out.push(format!("[{}]", pairs[1].1));
    out.push(format!("\u{3000}{}\u{a0}", out[0]));
    out
}

fn assert_same(text: &str) {
    assert_eq!(decoded(text), tree_decoded(text), "input: {text:?}");
}

#[test]
fn event_decoder_matches_the_json_tree_reader() {
    let header = TraceHeader {
        version: 3,
        nodes: 50,
        arcs: vec![(0, 1)],
        clients: 6,
        seed: 7,
        policy: "FIFO".into(),
        workers: Vec::new(),
        fed: None,
    }
    .to_json_line();
    let mut rng = XorShift64::new(0xDEC0DE);
    let mut prev = random_event(&mut rng, 0).to_json_line();
    let mut inputs = 0usize;
    for step in 1..40u64 {
        let ev = random_event(&mut rng, step);
        let next = random_event(&mut rng, step + 1).to_json_line();
        for line in event_lines(&ev, &mut rng) {
            let blank = if rng.gen_bool(0.2) { "  \n" } else { "" };
            let before = format!("{header}{prev}{blank}");
            // Whole line: as the final line (with and without its
            // newline) and mid-file.
            assert_same(&format!("{before}{line}"));
            assert_same(&format!("{before}{line}\n"));
            assert_same(&format!("{before}{line}\n{next}"));
            // Cut at every byte: a torn tail when final, a hard error
            // (or a valid shorter line) mid-file.
            for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
                let part = &line[..cut];
                assert_same(&format!("{before}{part}"));
                assert_same(&format!("{before}{part}\n{next}"));
            }
            inputs += 3 + 2 * line.len();
        }
        prev = next;
    }
    assert!(inputs > 50_000, "{inputs} inputs");
}
