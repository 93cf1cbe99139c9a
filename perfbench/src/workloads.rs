//! The four serving workloads, one episode at a time.
//!
//! An episode builds a server from scratch, serves one dag to
//! completion under the closed-loop generator, and then — outside every
//! timed window — checks the outputs. A traced episode also re-times
//! the reactor's inner layers from the captured I/O stream.

use std::collections::BTreeMap;
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ic_dag::Dag;
use ic_net::machine::LeaseMachine;
use ic_net::{
    loopback, Driver, MonotonicClock, Poller, Reactor, Recovery, RecoveryConfig, ServeReport,
    ServerConfig, TcpPoller,
};
use ic_sched::Schedule;
use ic_sim::trace::{FileSink, MemorySink, NullSink, Trace, TraceEvent, TraceReader, TraceSink};

use crate::gen::{drive, Dial, Faults, Latency, Tally, TcpDial, Worker};
use crate::probe::{self, Probe, ProbeClock, ProbePoller, ProbeSink, Shared};
use crate::retime::{retime, Retimed};

/// Which workload, at which size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two TCP workers against the write-ahead-logged server.
    WalTcp,
    /// Ten thousand loopback workers against the untraced server.
    Fleet10k,
    /// The IC-optimal mesh schedule served to 256 batching workers.
    MeshOptimal,
    /// Restart from the write-ahead log of a killed `wal_tcp`-shaped run.
    WalRecover,
}

impl Workload {
    /// Every workload, by name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("wal_tcp", Workload::WalTcp),
        ("fleet_10k", Workload::Fleet10k),
        ("mesh_optimal", Workload::MeshOptimal),
        ("wal_recover", Workload::WalRecover),
    ];
}

/// Sizes of one workload's episode.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Tasks of a flat dag, or diagonals of the mesh.
    pub tasks: usize,
    /// Worker connections.
    pub workers: usize,
}

impl Size {
    /// The measured size, or a tiny one for the smoke test.
    pub fn of(w: Workload, smoke: bool) -> Size {
        let (tasks, workers) = match (w, smoke) {
            (Workload::WalTcp, false) => (3_000, 2),
            (Workload::WalTcp, true) => (200, 2),
            (Workload::Fleet10k, false) => (60_000, 10_000),
            (Workload::Fleet10k, true) => (400, 64),
            (Workload::MeshOptimal, false) => (200, 256),
            (Workload::MeshOptimal, true) => (24, 16),
            (Workload::WalRecover, false) => (40_000, 2),
            (Workload::WalRecover, true) => (400, 2),
        };
        Size { tasks, workers }
    }
}

/// One named correctness check and whether it held.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// `None` when it held, else what went wrong.
    pub problem: Option<String>,
}

/// Everything one episode measured and checked.
#[derive(Debug)]
pub struct Episode {
    /// Start until the server accepted its first hello.
    pub setup_s: f64,
    /// Accepted completions per second of serving.
    pub tasks_per_s: f64,
    /// Start (on `wal_recover`: opening the WAL) until a worker
    /// received its first assign.
    pub first_assign_s: f64,
    /// Realized eligibility profile over the IC-optimal envelope.
    pub envelope_ratio: f64,
    /// Peak resident memory while serving, in MiB.
    pub peak_rss_mb: f64,
    /// Request→assign latency (the restart's, on `wal_recover`).
    pub latency: Latency,
    /// Failed operations, every phase included.
    pub failures: Vec<String>,
    /// Frames sent that expect a reply, every phase included.
    pub attempted: u64,
    /// The correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer rows of a traced episode.
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

/// Per-episode seed, so the same `--seed` gives the same inputs.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    let mut z = seed ^ (episode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Restart the process's peak-resident-memory mark, so an episode's
/// peak is its own (on top of the heap earlier episodes left mapped).
/// Best effort: if the kernel refuses, the peak covers the whole run.
fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last reset, in MiB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn secs(from: Instant, to: Option<Instant>) -> f64 {
    to.map_or(f64::NAN, |t| {
        t.saturating_duration_since(from).as_secs_f64()
    })
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn check(checks: &mut Vec<Check>, name: &'static str, problem: Option<String>) {
    checks.push(Check { name, problem });
}

fn config(w: Workload, size: Size, seed: u64) -> ServerConfig {
    let b = ServerConfig::builder()
        .lease_ms(30_000)
        // No backoff: a failed task is eligible again at once, which
        // keeps the machine's decisions a function of event order only,
        // so the re-timed replay reproduces the run byte for byte.
        .backoff_base_ms(0)
        .expect_workers(size.workers)
        .seed(seed);
    match w {
        Workload::WalTcp | Workload::WalRecover => b.wait_ms(2).batch(1),
        Workload::Fleet10k => b.wait_ms(2).batch(1).shards(64).poll_timeout(1),
        Workload::MeshOptimal => b.wait_ms(5).batch(4).poll_timeout(1),
    }
    .build()
}

/// The `wal_tcp`/`wal_recover` pair: one healthy worker, and one that
/// fails ~10% of its tasks and severs every 100–199 completions. Severs
/// then touch well under 1% of requests, so `assign_p99_us` measures
/// the request path rather than flipping between it and reconnects.
fn wal_workers(seed: u64) -> Vec<Worker> {
    let every = 100 + (seed % 100) as u32;
    vec![
        Worker::new("healthy".into(), Faults::HEALTHY, 1, seed),
        Worker::new(
            "flaky".into(),
            Faults {
                flaky: true,
                sever_every: Some(every),
            },
            1,
            seed.rotate_left(17),
        ),
    ]
}

/// The fleet mix: of every 16 workers one is flaky and one severs
/// (after 1–4 completions, by seed) and resumes with its token.
fn fleet_workers(n: usize, seed: u64) -> Vec<Worker> {
    (0..n)
        .map(|i| {
            let s = episode_seed(seed, i + 1);
            let faults = match i % 16 {
                7 => Faults {
                    flaky: true,
                    sever_every: None,
                },
                11 => Faults {
                    flaky: false,
                    sever_every: Some(1 + (s % 4) as u32),
                },
                _ => Faults::HEALTHY,
            };
            Worker::new(format!("w{i}"), faults, 1, s)
        })
        .collect()
}

/// Workers whose faults were injected; every other worker is healthy.
fn faulty_ids(workers: &[Worker]) -> Vec<String> {
    workers
        .iter()
        .filter(|w| !w.is_healthy())
        .map(|w| w.id().to_string())
        .collect()
}

/// What one serving run left behind.
struct Served {
    report: Option<ServeReport>,
    wall: Duration,
    probe: Probe,
    /// The clock's zero, for mapping captured instants to clock time.
    epoch: Instant,
    /// Peak resident memory up to the end of serving, in MiB.
    peak_rss_mb: f64,
    /// When the reactor and sink were ready.
    built: Instant,
    /// When the reactor started serving.
    started: Instant,
}

impl Served {
    /// Server time from `t0` to `at`, leaving out the generator's
    /// connection burst between building the server and starting it.
    fn since(&self, t0: Instant, at: Option<Instant>) -> f64 {
        secs(t0, Some(self.built)) + secs(self.started, at)
    }
}

/// The generator side of a serving run.
struct Load<'w, D> {
    dial: D,
    workers: &'w mut [Worker],
    tally: &'w mut Tally,
    /// The server is expected to be killed mid-run.
    killed: bool,
}

/// Serve with the reactor on this thread and the generator on one
/// other. The reactor starts once every worker's hello is on its way,
/// and is dropped before the generator is joined, so a killed server's
/// connections close under the workers.
fn serve<D: Dial + Send>(
    mut reactor: Reactor<'_>,
    sink: &mut dyn TraceSink,
    (probe, epoch): (&Shared, Instant),
    load: Load<'_, D>,
) -> Served {
    let built = Instant::now();
    let Load {
        mut dial,
        workers,
        tally,
        killed,
    } = load;
    let (report, wall, started) = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let gen = s.spawn(move || {
            drive(&mut dial, workers, tally, killed, || {
                let _ = tx.send(());
            })
        });
        // A generator that died before connecting is reported by join.
        let _ = rx.recv();
        let t0 = Instant::now();
        let report = reactor.run_until_drain(sink).ok();
        let wall = t0.elapsed();
        drop(reactor);
        gen.join().expect("generator thread");
        (report, wall, t0)
    });
    Served {
        report,
        wall,
        probe: std::mem::take(&mut *probe.borrow_mut()),
        epoch,
        peak_rss_mb: peak_rss_mb(),
        built,
        started,
    }
}

/// The production clock and `poller`, each behind its probe shim, and
/// the instant the clock reads zero.
fn driver(probe: &Shared, poller: impl Poller + 'static) -> (Driver, Instant) {
    let epoch = Instant::now();
    let clock = ProbeClock::new(MonotonicClock::new(), probe);
    let poller = ProbePoller::new(poller, probe);
    (Driver::new(Box::new(clock), Box::new(poller)), epoch)
}

/// Build the dag and its schedule, timing each.
fn build(w: Workload, size: Size) -> (Dag, Schedule, Duration, Duration) {
    let t0 = Instant::now();
    let dag = match w {
        Workload::MeshOptimal => ic_families::mesh::out_mesh(size.tasks),
        _ => ic_dag::builder::from_arcs(size.tasks, &[]).expect("a flat dag"),
    };
    let t1 = Instant::now();
    let policy = match w {
        Workload::MeshOptimal => ic_families::mesh::out_mesh_schedule(&dag),
        _ => Schedule::in_id_order(&dag),
    };
    let t2 = Instant::now();
    (dag, policy, t1 - t0, t2 - t1)
}

/// Realized eligibility profile of `order` summed over the run, divided
/// by the IC-optimal envelope summed the same way: 1 when every step
/// keeps as many tasks eligible as the paper's optimal schedule.
fn envelope_ratio(dag: &Dag, order: impl IntoIterator<Item = u32>) -> Option<f64> {
    let envelope = if dag.num_arcs() == 0 {
        let n = dag.num_nodes();
        (0..=n).map(|k| n - k).collect()
    } else {
        ic_families::symbolic::certify(dag)?.envelope
    };
    let order = order.into_iter().map(ic_dag::NodeId).collect();
    let profile = Schedule::new_unchecked(order).profile(dag);
    let sum = |v: &[usize]| v.iter().map(|&x| x as f64).sum::<f64>();
    Some(sum(&profile) / sum(&envelope))
}

/// Parse and audit a trace; every `Failed` event must belong to a
/// worker with injected faults.
fn audit(text: &str, faulty: &[String], checks: &mut Vec<Check>) -> (Option<Trace>, Duration) {
    let t0 = Instant::now();
    let read = TraceReader::read(text);
    let parse = t0.elapsed();
    let trace = match read {
        Ok(r) => r.trace,
        Err(e) => {
            check(checks, "trace parses", Some(e.to_string()));
            return (None, parse);
        }
    };
    let errors: Vec<String> = ic_audit::audit_trace(&trace)
        .into_iter()
        .filter(|d| d.severity == ic_audit::Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();
    check(
        checks,
        "trace audits clean",
        (!errors.is_empty()).then(|| errors.join("; ")),
    );
    let healthy_failed = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Failed { client, .. } => Some(*client),
            _ => None,
        })
        .filter(|&c| {
            trace
                .header
                .workers
                .get(c)
                .is_none_or(|w| !faulty.contains(&w.id))
        })
        .count();
    check(
        checks,
        "healthy workers never fail (trace)",
        (healthy_failed > 0)
            .then(|| format!("{healthy_failed} Failed event(s) on healthy workers")),
    );
    (Some(trace), parse)
}

/// The checks every workload shares.
fn common_checks(
    tally: &Tally,
    report: Option<&ServeReport>,
    tasks: usize,
    workers: usize,
    injected: usize,
    checks: &mut Vec<Check>,
) {
    check(
        checks,
        "no failed operation",
        (!tally.failures.is_empty()).then(|| {
            let mut f = tally.failures.clone();
            f.truncate(5);
            f.join("; ")
        }),
    );
    let Some(r) = report else {
        check(
            checks,
            "server ran to drain",
            Some("run_until_drain failed".into()),
        );
        return;
    };
    check(
        checks,
        "report completions and registrations match",
        (r.completions != tasks || r.workers_registered != workers).then(|| {
            format!(
                "{} completions of {tasks}, {} registrations of {workers}",
                r.completions, r.workers_registered
            )
        }),
    );
    check(
        checks,
        "healthy workers never fail (server failures are the injected ones)",
        (r.failures != injected).then(|| {
            format!(
                "server recorded {} failures, {injected} were injected",
                r.failures
            )
        }),
    );
}

/// Per-layer rows of one traced serving run.
#[allow(clippy::too_many_arguments)]
fn layers(
    s: &Served,
    rt: &Retimed,
    tally: &Tally,
    tasks: usize,
    base: Option<&ServeReport>,
    build: (Duration, Duration),
    trace_bytes: u64,
    parse: Duration,
) -> BTreeMap<&'static str, f64> {
    let p = &s.probe;
    let report = s.report.as_ref();
    let count =
        |f: fn(&ServeReport) -> usize| report.map_or(0, f) as f64 - base.map_or(0, f) as f64;
    let allocations = count(|r| r.allocations);
    let wall = nanos(s.wall);
    let attributed = [
        p.poll_busy_ns,
        p.poll_idle_ns,
        p.send_ns,
        p.record_ns,
        rt.decode_ns,
        rt.encode_ns,
        rt.step_ns,
        rt.timer_ns,
    ]
    .iter()
    .map(|&ns| ns as f64)
    .sum::<f64>();
    BTreeMap::from([
        ("reactor.wall_ns", wall),
        ("reactor.poll_busy_ns", p.poll_busy_ns as f64),
        ("reactor.poll_idle_ns", p.poll_idle_ns as f64),
        ("reactor.polls", p.polls as f64),
        ("reactor.events_in", p.events_in as f64),
        ("reactor.bytes_in", p.bytes_in as f64),
        ("reactor.send_ns", p.send_ns as f64),
        ("reactor.sends", p.sends as f64),
        ("reactor.bytes_out", p.bytes_out as f64),
        ("reactor.clock_reads", p.clock_reads as f64),
        ("reactor.residue_ns", wall - attributed),
        ("trace.record_ns", p.record_ns as f64),
        ("trace.records", p.records as f64),
        ("trace.bytes", trace_bytes as f64),
        ("trace.parse_ns", nanos(parse)),
        ("wire.frames_in", rt.frames_in as f64),
        ("wire.frames_out", rt.frames_out as f64),
        ("wire.decode_ns", rt.decode_ns as f64),
        ("wire.encode_ns", rt.encode_ns as f64),
        ("machine.step_ns", rt.step_ns as f64),
        ("machine.events", rt.events as f64),
        ("machine.allocations", allocations),
        ("machine.realloc_ratio", allocations / tasks.max(1) as f64),
        ("machine.waits", rt.waits as f64),
        ("machine.resumes", count(|r| r.resumes)),
        ("timer.ns", rt.timer_ns as f64),
        ("timer.armed", rt.armed as f64),
        ("dag.build_ns", nanos(build.0)),
        ("sched.setup_ns", nanos(build.1)),
        ("recovery.read_ns", 0.0),
        ("recovery.restore_ns", 0.0),
        ("recovery.events", 0.0),
        ("recovery.first_assign_ns", 0.0),
        ("client.busy_ns", tally.busy_ns as f64),
        ("client.idle_ns", tally.idle_ns as f64),
    ])
}

/// Accepted completions over the serving window: from the registration
/// barrier (or, with no header written, the first hello accepted) to
/// the last accepted report.
fn throughput(s: &Served, tally: &Tally) -> f64 {
    let start = s.probe.header_at.or(s.probe.first_send);
    let done = tally.acked.iter().map(|&n| n as f64).sum::<f64>();
    match (start, tally.last_ack) {
        (Some(a), Some(b)) if b > a => done / (b - a).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// A unique scratch path inside the working directory.
fn scratch(dir: &Path, w: &str, episode: usize) -> PathBuf {
    dir.join(format!("{w}-{}-{episode}.wal", std::process::id()))
}

/// Run one episode of `w`.
pub fn episode(
    w: Workload,
    size: Size,
    seed: u64,
    episode: usize,
    traced: bool,
    dir: &Path,
    stopwatch: u64,
) -> Episode {
    let seed = episode_seed(seed, episode);
    reset_peak_rss();
    match w {
        Workload::WalRecover => recover_episode(size, seed, episode, traced, dir, stopwatch),
        _ => serve_episode(w, size, seed, episode, traced, dir, stopwatch),
    }
}

fn serve_episode(
    w: Workload,
    size: Size,
    seed: u64,
    episode: usize,
    traced: bool,
    dir: &Path,
    stopwatch: u64,
) -> Episode {
    let t0 = Instant::now();
    let (dag, policy, dag_t, sched_t) = build(w, size);
    let n = dag.num_nodes();
    let cfg = config(w, size, seed);
    let probe = probe::probe(traced);
    let mut workers = match w {
        Workload::WalTcp => wal_workers(seed),
        Workload::Fleet10k => fleet_workers(size.workers, seed),
        _ => (0..size.workers)
            .map(|i| Worker::new(format!("w{i}"), Faults::HEALTHY, 4, seed))
            .collect(),
    };
    let faulty = faulty_ids(&workers);
    let mut tally = Tally::new(n, size.workers);
    let mut checks = Vec::new();

    let (served, trace_text, trace_bytes) = match w {
        Workload::WalTcp => {
            let wal = scratch(dir, "wal_tcp", episode);
            let file = FileSink::create(&wal).expect("create the write-ahead log");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind 127.0.0.1");
            let addr = listener.local_addr().expect("listener address");
            let poller = TcpPoller::new(listener, cfg.shards).expect("tcp poller");
            let (drv, epoch) = driver(&probe, poller);
            let reactor = Reactor::new(&dag, &policy, cfg.clone(), drv);
            let mut sink = ProbeSink::new(file, &probe);
            let dial = TcpDial(addr);
            let s = serve(
                reactor,
                &mut sink,
                (&probe, epoch),
                Load {
                    dial,
                    workers: &mut workers,
                    tally: &mut tally,
                    killed: false,
                },
            );
            check(
                &mut checks,
                "wal_tcp holds at most 2 sockets",
                (tally.peak_conns > 2).then(|| format!("{} sockets open", tally.peak_conns)),
            );
            let finished = sink.inner.finish();
            check(
                &mut checks,
                "trace file written",
                finished.err().map(|e| e.to_string()),
            );
            let text = fs::read_to_string(&wal).unwrap_or_default();
            let _ = fs::remove_file(&wal);
            let bytes = text.len() as u64;
            (s, Some(text), bytes)
        }
        Workload::Fleet10k => {
            let (poller, handle) = loopback(cfg.shards);
            let (drv, epoch) = driver(&probe, poller);
            let reactor = Reactor::new(&dag, &policy, cfg.clone(), drv);
            let mut sink = ProbeSink::new(NullSink, &probe);
            let s = serve(
                reactor,
                &mut sink,
                (&probe, epoch),
                Load {
                    dial: handle,
                    workers: &mut workers,
                    tally: &mut tally,
                    killed: false,
                },
            );
            (s, None, 0)
        }
        _ => {
            let (poller, handle) = loopback(cfg.shards);
            let (drv, epoch) = driver(&probe, poller);
            let reactor = Reactor::new(&dag, &policy, cfg.clone(), drv);
            let mut sink = ProbeSink::new(MemorySink::new(), &probe);
            let s = serve(
                reactor,
                &mut sink,
                (&probe, epoch),
                Load {
                    dial: handle,
                    workers: &mut workers,
                    tally: &mut tally,
                    killed: false,
                },
            );
            let text = sink.inner.into_trace().map(|t| t.to_jsonl());
            let bytes = text.as_ref().map_or(0, |t| t.len() as u64);
            (s, text, bytes)
        }
    };

    // Everything below is outside the timed windows.
    let setup_s = served.since(t0, served.probe.first_send);
    let tasks_per_s = throughput(&served, &tally);
    common_checks(
        &tally,
        served.report.as_ref(),
        n,
        size.workers,
        tally.injected,
        &mut checks,
    );
    check(
        &mut checks,
        "every task completes exactly once",
        tally.exactly_once(),
    );
    let (trace, parse) = match &trace_text {
        Some(text) => audit(text, &faulty, &mut checks),
        None => (None, Duration::ZERO),
    };
    let order: Vec<u32> = match &trace {
        Some(t) => t.completion_order().iter().map(|v| v.0).collect(),
        None => tally.ack_order.clone(),
    };
    let envelope_ratio = envelope_ratio(&dag, order).unwrap_or(f64::NAN);
    check(
        &mut checks,
        "IC-optimal envelope certified",
        envelope_ratio
            .is_nan()
            .then(|| "no closed-form envelope for this dag".to_string()),
    );
    let layers = traced.then(|| {
        let machine = LeaseMachine::new(&dag, &policy, cfg.clone());
        let rt = replay(machine, &cfg, &served, 0, stopwatch, &mut checks);
        layers(
            &served,
            &rt,
            &tally,
            n,
            None,
            (dag_t, sched_t),
            trace_bytes,
            parse,
        )
    });
    Episode {
        setup_s,
        tasks_per_s,
        first_assign_s: served.since(t0, tally.first_assign),
        envelope_ratio,
        peak_rss_mb: served.peak_rss_mb,
        attempted: tally.attempted,
        latency: tally.latency(),
        failures: tally.failures,
        checks,
        layers,
    }
}

/// Re-time the captured run and check the replay reproduced it.
fn replay(
    machine: LeaseMachine<'_, '_>,
    cfg: &ServerConfig,
    s: &Served,
    offset_us: u64,
    stopwatch: u64,
    checks: &mut Vec<Check>,
) -> Retimed {
    let epoch = s.epoch;
    let clock_us = |at: Instant| {
        u64::try_from(at.saturating_duration_since(epoch).as_micros())
            .unwrap_or(u64::MAX)
            .saturating_add(offset_us)
    };
    let rt = retime(machine, cfg, &s.probe.log, epoch, clock_us, stopwatch);
    check(
        checks,
        "re-timed replay reproduces every reply",
        (rt.diverged > 0).then(|| format!("{} connection(s) diverged", rt.diverged)),
    );
    rt
}

fn recover_episode(
    size: Size,
    seed: u64,
    episode: usize,
    traced: bool,
    dir: &Path,
    stopwatch: u64,
) -> Episode {
    let w = Workload::WalRecover;
    let n = size.tasks;
    let cfg = config(w, size, seed);
    let wal = scratch(dir, "wal_recover", episode);
    let mut workers = wal_workers(seed);
    let faulty = faulty_ids(&workers);
    let mut checks = Vec::new();

    // Untimed: serve a wal_tcp-shaped run over loopback and kill the
    // server once half the dag has completed.
    let mut before = Tally::new(n, size.workers);
    {
        let (dag, policy, _, _) = build(w, size);
        let probe = probe::probe(false);
        probe.borrow_mut().kill_after = Some(n / 2);
        let file = FileSink::create(&wal).expect("create the write-ahead log");
        let (poller, handle) = loopback(cfg.shards);
        let (drv, epoch) = driver(&probe, poller);
        let reactor = Reactor::new(&dag, &policy, cfg.clone(), drv);
        let mut sink = ProbeSink::new(file, &probe);
        let s = serve(
            reactor,
            &mut sink,
            (&probe, epoch),
            Load {
                dial: handle,
                workers: &mut workers,
                tally: &mut before,
                killed: true,
            },
        );
        check(
            &mut checks,
            "the server was killed mid-run",
            s.report.is_some().then(|| "the run completed".to_string()),
        );
        let _ = sink.inner.finish();
    }
    // The kill tore the line being written. A copy of the intact log
    // lets a traced episode re-time reading it.
    let pre_text = fs::read_to_string(&wal).unwrap_or_default();
    let pre_copy = wal.with_extension("pre");
    if traced {
        let _ = fs::write(&pre_copy, &pre_text);
    }
    let torn = "{\"type\":\"alloc\",\"step\":";
    let _ = fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .and_then(|mut f| std::io::Write::write_all(&mut f, torn.as_bytes()));

    // Timed: the restarted server.
    reset_peak_rss();
    let probe = probe::probe(traced);
    let t0 = Instant::now();
    let (dag, policy, dag_t, sched_t) = build(w, size);
    let t_wal = Instant::now();
    let recovery = Recovery::replay(&dag, &policy, cfg.clone(), RecoveryConfig::default(), &wal);
    let replayed = Instant::now();
    let recovery = match recovery {
        Ok(r) => r,
        Err(e) => {
            check(&mut checks, "the WAL replays", Some(e.to_string()));
            let _ = fs::remove_file(&wal);
            return Episode {
                setup_s: f64::NAN,
                tasks_per_s: f64::NAN,
                first_assign_s: f64::NAN,
                envelope_ratio: f64::NAN,
                peak_rss_mb: f64::NAN,
                attempted: before.attempted,
                latency: before.latency(),
                failures: before.failures,
                checks,
                layers: None,
            };
        }
    };
    let events_replayed = recovery.report().events_replayed;
    let base = recovery.machine().summary(0);
    let lost = before
        .acked
        .iter()
        .enumerate()
        .filter(|&(v, &k)| {
            k > 0
                && !recovery
                    .machine()
                    .exec()
                    .is_executed(ic_dag::NodeId(v as u32))
        })
        .count();
    check(
        &mut checks,
        "recovery loses no completed work",
        (lost > 0).then(|| format!("{lost} acked task(s) not executed after replay")),
    );
    let (poller, handle) = loopback(cfg.shards);
    let (drv, epoch) = driver(&probe, poller);
    let reactor = recovery.into_reactor(drv);
    let file = FileSink::append(&wal).expect("append to the write-ahead log");
    let mut sink = ProbeSink::new(file, &probe);
    let mut after = Tally::new(n, size.workers);
    let served = serve(
        reactor,
        &mut sink,
        (&probe, epoch),
        Load {
            dial: handle,
            workers: &mut workers,
            tally: &mut after,
            killed: false,
        },
    );
    let finished = sink.inner.finish();

    // Everything below is outside the timed windows.
    check(
        &mut checks,
        "trace file written",
        finished.err().map(|e| e.to_string()),
    );
    let setup_s = served.since(t0, served.probe.first_send);
    let tasks_per_s = throughput(&served, &after);
    let remainder = n - base.completions;
    common_checks(
        &after,
        served.report.as_ref(),
        n,
        size.workers,
        before.injected + after.injected,
        &mut checks,
    );
    for (a, b) in after.acked.iter_mut().zip(&before.acked) {
        *a += b;
    }
    check(
        &mut checks,
        "every task completes exactly once",
        after.exactly_once(),
    );
    let text = fs::read_to_string(&wal).unwrap_or_default();
    let _ = fs::remove_file(&wal);
    let (trace, _) = audit(&text, &faulty, &mut checks);
    let order: Vec<u32> = trace
        .map(|t| t.completion_order().iter().map(|v| v.0).collect())
        .unwrap_or_default();
    let envelope_ratio = envelope_ratio(&dag, order).unwrap_or(f64::NAN);
    check(
        &mut checks,
        "IC-optimal envelope certified",
        envelope_ratio
            .is_nan()
            .then(|| "no closed-form envelope for this dag".to_string()),
    );

    let layers = traced.then(|| {
        let read_t0 = Instant::now();
        let reread = fs::read_to_string(&pre_copy);
        let read = read_t0.elapsed();
        let _ = fs::remove_file(&pre_copy);
        std::hint::black_box(reread.map(|t| t.len()).unwrap_or(0));
        let parse_t0 = Instant::now();
        let pre = TraceReader::read(&pre_text);
        let parse = parse_t0.elapsed();
        let pre = pre.expect("the pre-crash WAL parsed once already").trace;
        let resumed_at_us = pre
            .events
            .last()
            .map_or(0, |e| (e.time().max(0.0) * 1e6) as u64);
        let mut machine = LeaseMachine::restore(
            &dag,
            &policy,
            cfg.clone(),
            &pre.header,
            &pre.events,
            resumed_at_us,
        )
        .expect("the pre-crash WAL restored once already");
        machine.await_resumes(
            resumed_at_us.saturating_add(RecoveryConfig::default().resume_window_ms * 1000),
        );
        let rt = replay(
            machine,
            &cfg,
            &served,
            resumed_at_us,
            stopwatch,
            &mut checks,
        );
        let mut rows = layers(
            &served,
            &rt,
            &after,
            remainder,
            Some(&base),
            (dag_t, sched_t),
            text.len().saturating_sub(pre_text.len()) as u64,
            parse,
        );
        let replay = nanos(replayed - t_wal);
        rows.insert("recovery.read_ns", nanos(read));
        rows.insert("recovery.restore_ns", replay - nanos(read) - nanos(parse));
        rows.insert("recovery.events", events_replayed as f64);
        rows.insert(
            "recovery.first_assign_ns",
            served.since(replayed, after.first_assign) * 1e9,
        );
        rows
    });
    Episode {
        setup_s,
        tasks_per_s,
        first_assign_s: served.since(t_wal, after.first_assign),
        envelope_ratio,
        peak_rss_mb: served.peak_rss_mb,
        attempted: before.attempted + after.attempted,
        latency: after.latency(),
        failures: [before.failures, after.failures].concat(),
        checks,
        layers,
    }
}
