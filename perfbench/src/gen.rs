//! The closed-loop load generator: one thread driving every worker of
//! a workload over loopback channels or TCP sockets.
//!
//! Each worker sends its next request only after the previous reply,
//! and tasks take zero time, so the server sets the pace. The client
//! side speaks protocol v2 through `Frame`/`Decoder` only.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ic_net::{Decoder, Frame, LoopbackConn, LoopbackHandle, Message, PROTO_V2};

/// How a worker misbehaves. Injected faults are the workload, not
/// failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Faults {
    /// Reports ~10% of its tasks as failed (`done ok:false`).
    pub flaky: bool,
    /// Severs its connection mid-lease after this many completions,
    /// then resumes on a new connection with its v2 token.
    pub sever_every: Option<u32>,
}

impl Faults {
    /// A worker that never fails a task and never severs.
    pub const HEALTHY: Faults = Faults {
        flaky: false,
        sever_every: None,
    };

    fn healthy(self) -> bool {
        self == Faults::HEALTHY
    }
}

/// Outcomes the generator saw, checked after the run.
#[derive(Debug)]
pub struct Tally {
    tasks: usize,
    workers: usize,
    /// Accepted successful reports per task.
    pub acked: Vec<u32>,
    /// Tasks in the order their successful acks arrived.
    pub ack_order: Vec<u32>,
    assigned: Vec<bool>,
    assigned_distinct: usize,
    /// Request→assign latencies in the steady window, nanoseconds.
    pub steady_ns: Vec<u64>,
    /// Fresh registrations welcomed so far.
    registered: usize,
    /// Excluded samples: each worker's first assign after registering.
    pub registration: usize,
    /// Excluded samples: assigns once fewer unassigned tasks remain
    /// than there are workers.
    pub drain: usize,
    /// Requests answered with `Wait`.
    pub waits: u64,
    /// Frames sent that expect a reply.
    pub attempted: u64,
    /// Failed operations, with a reason each.
    pub failures: Vec<String>,
    /// Accepted `done ok:false` reports (the injected failures).
    pub injected: usize,
    /// First `Assign` any worker received.
    pub first_assign: Option<Instant>,
    /// Last accepted successful report.
    pub last_ack: Option<Instant>,
    /// Largest number of connections open at once.
    pub peak_conns: usize,
    /// Time in generator sweeps that handled a frame.
    pub busy_ns: u64,
    /// Time in sweeps that found nothing to do.
    pub idle_ns: u64,
}

impl Tally {
    /// A tally for `tasks` tasks served to `workers` workers.
    pub fn new(tasks: usize, workers: usize) -> Tally {
        Tally {
            tasks,
            workers,
            acked: vec![0; tasks],
            ack_order: Vec::with_capacity(tasks),
            assigned: vec![false; tasks],
            assigned_distinct: 0,
            steady_ns: Vec::new(),
            registered: 0,
            registration: 0,
            drain: 0,
            waits: 0,
            attempted: 0,
            failures: Vec::new(),
            injected: 0,
            first_assign: None,
            last_ack: None,
            peak_conns: 0,
            busy_ns: 0,
            idle_ns: 0,
        }
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// The latency summary of the steady window.
    pub fn latency(&self) -> Latency {
        let mut sorted = self.steady_ns.clone();
        sorted.sort_unstable();
        Latency {
            p50_us: percentile_us(&sorted, 50.0),
            p99_us: percentile_us(&sorted, 99.0),
            samples: sorted.len(),
            registration: self.registration,
            drain: self.drain,
            waits: self.waits,
        }
    }

    /// Tasks acked more or less than once, as check failures.
    pub fn exactly_once(&self) -> Option<String> {
        let bad = self.acked.iter().filter(|&&n| n != 1).count();
        (bad > 0).then(|| format!("{bad} task(s) not acked exactly once"))
    }

    fn task(&self, task: u64) -> Option<usize> {
        usize::try_from(task).ok().filter(|&t| t < self.tasks)
    }
}

/// Request→assign latency of one episode's steady window.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Samples in the steady window.
    pub samples: usize,
    /// Excluded first assigns after registering.
    pub registration: usize,
    /// Excluded assigns of the drain tail.
    pub drain: usize,
    /// Requests answered with `Wait`.
    pub waits: u64,
}

/// Nearest-rank percentile of sorted nanosecond samples, in
/// microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Hello sent, welcome not yet received.
    Registering,
    /// Registered; the first request waits until the whole fleet is.
    Ready,
    /// Waiting out a `Wait` before asking again.
    Backoff(Instant),
    /// A request is out since this instant.
    Requested(Instant),
    /// Reports are out; the next request follows the last ack.
    Reporting,
    /// Drained (or gone for good).
    Finished,
}

/// What the transport must do after a frame was handled.
#[derive(Debug, PartialEq, Eq)]
enum Next {
    Continue,
    /// Drop the connection and resume on a new one.
    Sever,
    Finished,
}

/// One worker's protocol state.
#[derive(Debug)]
pub struct Worker {
    id: String,
    faults: Faults,
    batch: u64,
    rng: u64,
    token: Option<String>,
    phase: Phase,
    /// Reports awaiting their ack: `(task, ok)`.
    outstanding: Vec<(u64, bool)>,
    /// The next assign is the first since a fresh registration.
    fresh: bool,
    since_sever: u32,
}

impl Worker {
    /// A worker asking for up to `batch` tasks per request; `seed`
    /// drives its flaky dice.
    pub fn new(id: String, faults: Faults, batch: u64, seed: u64) -> Worker {
        Worker {
            id,
            faults,
            batch,
            rng: seed | 1,
            token: None,
            phase: Phase::Registering,
            outstanding: Vec::new(),
            fresh: true,
            since_sever: 0,
        }
    }

    /// The worker's self-declared id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether no fault is injected into this worker.
    pub fn is_healthy(&self) -> bool {
        self.faults.healthy()
    }

    /// The hello for a (re)connection: resume when a token is held.
    fn hello(&mut self) -> Message {
        self.phase = Phase::Registering;
        self.outstanding.clear();
        Message::Hello {
            id: self.id.clone(),
            speed: 1.0,
            proto: PROTO_V2,
            resume: self.token.clone(),
        }
    }

    fn task_ok(&mut self) -> bool {
        if !self.faults.flaky {
            return true;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        !(self.rng >> 33).is_multiple_of(10)
    }

    fn request(&mut self, now: Instant, out: &mut Vec<Message>) {
        out.push(Message::Request { max: self.batch });
        self.phase = Phase::Requested(now);
    }

    fn report(&mut self, tasks: &[u64], out: &mut Vec<Message>) {
        for &task in tasks {
            let ok = self.task_ok();
            out.push(Message::Done { task, ok });
            self.outstanding.push((task, ok));
        }
        self.phase = Phase::Reporting;
    }

    /// Ask for work once a `Wait` backoff ran out, or once the whole
    /// fleet has registered.
    fn tick(&mut self, now: Instant, t: &Tally, out: &mut Vec<Message>) {
        let due = match self.phase {
            Phase::Backoff(at) => now >= at,
            Phase::Ready => t.registered >= t.workers,
            _ => false,
        };
        if due {
            self.request(now, out);
        }
    }

    fn on_msg(
        &mut self,
        msg: Message,
        now: Instant,
        t: &mut Tally,
        out: &mut Vec<Message>,
    ) -> Next {
        match (msg, self.phase) {
            (
                Message::Welcome {
                    resume,
                    tasks: held,
                    ..
                },
                Phase::Registering,
            ) => {
                self.fresh = self.token.is_none();
                self.token = resume;
                if self.fresh {
                    // The load starts once every worker is registered,
                    // so the registration barrier never answers `Wait`.
                    t.registered += 1;
                    self.phase = Phase::Ready;
                } else if held.is_empty() {
                    self.request(now, out);
                } else {
                    self.report(&held, out);
                }
            }
            (Message::Assign { tasks }, Phase::Requested(at)) => {
                t.first_assign.get_or_insert(now);
                for &task in &tasks {
                    if let Some(i) = t.task(task) {
                        if !t.assigned[i] {
                            t.assigned[i] = true;
                            t.assigned_distinct += 1;
                        }
                    }
                }
                if std::mem::take(&mut self.fresh) {
                    t.registration += 1;
                } else if t.tasks - t.assigned_distinct < t.workers {
                    t.drain += 1;
                } else {
                    t.steady_ns
                        .push(u64::try_from((now - at).as_nanos()).unwrap_or(u64::MAX));
                }
                if self
                    .faults
                    .sever_every
                    .is_some_and(|k| self.since_sever >= k)
                {
                    // Vanish mid-lease; the resume welcome hands the
                    // leases back.
                    self.since_sever = 0;
                    return Next::Sever;
                }
                self.report(&tasks, out);
            }
            (Message::Ack { task, accepted }, Phase::Reporting) => {
                let Some(pos) = self.outstanding.iter().position(|&(o, _)| o == task) else {
                    t.fail(format!("{}: ack for unreported task {task}", self.id));
                    return Next::Continue;
                };
                let (_, ok) = self.outstanding.swap_remove(pos);
                match (ok, accepted) {
                    (true, true) => {
                        if let Some(i) = t.task(task) {
                            t.acked[i] += 1;
                            t.ack_order.push(task as u32);
                        }
                        t.last_ack = Some(now);
                        self.since_sever += 1;
                    }
                    (false, true) => t.injected += 1,
                    (_, false) => {
                        let kind = if self.faults.healthy() {
                            "healthy "
                        } else {
                            ""
                        };
                        t.fail(format!("{kind}worker {} lost task {task}", self.id));
                    }
                }
                if self.outstanding.is_empty() {
                    self.request(now, out);
                }
            }
            (Message::Wait { ms }, Phase::Requested(_)) => {
                t.waits += 1;
                self.phase = Phase::Backoff(now + Duration::from_millis(ms.clamp(1, 20)));
            }
            (Message::Drain, Phase::Requested(_)) => {
                self.phase = Phase::Finished;
                return Next::Finished;
            }
            (msg, phase) => {
                t.fail(format!("{}: unexpected {msg:?} while {phase:?}", self.id));
                self.phase = Phase::Finished;
                return Next::Finished;
            }
        }
        Next::Continue
    }
}

/// What a transport read produced.
pub enum Recv {
    /// One complete frame.
    Msg(Message),
    /// Nothing complete yet.
    Empty,
    /// The server closed the connection (or broke the framing).
    Closed,
}

/// One client connection.
pub trait Link {
    /// Send one frame; `false` once the server is gone.
    fn send(&mut self, msg: &Message) -> bool;
    /// Read the next frame without blocking.
    fn recv(&mut self) -> Recv;
}

/// Opens client connections to the server under test.
pub trait Dial {
    /// The connection type.
    type Link: Link;
    /// Open one connection.
    fn dial(&mut self) -> io::Result<Self::Link>;
}

impl Link for LoopbackConn {
    fn send(&mut self, msg: &Message) -> bool {
        LoopbackConn::send(self, msg).is_ok()
    }

    fn recv(&mut self) -> Recv {
        match self.try_recv() {
            Ok(Some(msg)) => Recv::Msg(msg),
            Ok(None) => Recv::Empty,
            Err(_) => Recv::Closed,
        }
    }
}

impl Dial for LoopbackHandle {
    type Link = LoopbackConn;

    fn dial(&mut self) -> io::Result<LoopbackConn> {
        Ok(self.connect())
    }
}

/// A nonblocking TCP client connection framed by `Frame`/`Decoder`.
pub struct TcpLink {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    rbuf: Box<[u8; 4096]>,
}

impl TcpLink {
    fn flush(&mut self) -> bool {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

impl Link for TcpLink {
    fn send(&mut self, msg: &Message) -> bool {
        Frame::encode_into(msg, &mut self.wbuf);
        self.flush()
    }

    fn recv(&mut self) -> Recv {
        loop {
            match self.dec.next_msg() {
                Ok(Some(msg)) => return Recv::Msg(msg),
                Ok(None) => {}
                Err(_) => return Recv::Closed,
            }
            if !self.flush() {
                return Recv::Closed;
            }
            match self.stream.read(&mut self.rbuf[..]) {
                Ok(0) => return Recv::Closed,
                Ok(n) => self.dec.feed(&self.rbuf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Recv::Empty,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Recv::Closed,
            }
        }
    }
}

/// Dials the server's TCP listener.
pub struct TcpDial(pub SocketAddr);

impl Dial for TcpDial {
    type Link = TcpLink;

    fn dial(&mut self) -> io::Result<TcpLink> {
        let stream = TcpStream::connect(self.0)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpLink {
            stream,
            dec: Decoder::new(),
            wbuf: Vec::new(),
            rbuf: Box::new([0; 4096]),
        })
    }
}

/// Send every queued frame, counting each as an attempted request.
fn send_all(link: &mut impl Link, out: &mut Vec<Message>, t: &mut Tally) -> bool {
    t.attempted += out.len() as u64;
    let mut ok = true;
    for msg in out.drain(..) {
        ok &= link.send(&msg);
    }
    ok
}

/// Open a connection for `w` and send its hello.
fn connect<D: Dial>(dial: &mut D, w: &mut Worker, t: &mut Tally, killed: bool) -> Option<D::Link> {
    let mut link = match dial.dial() {
        Ok(link) => link,
        Err(e) => {
            t.fail(format!("{}: cannot connect: {e}", w.id));
            return None;
        }
    };
    let mut hello = vec![w.hello()];
    if send_all(&mut link, &mut hello, t) {
        Some(link)
    } else {
        if !killed {
            t.fail(format!("{}: hello not delivered", w.id));
        }
        None
    }
}

/// Handle every frame that has arrived on `link`, then any backoff
/// that ran out. Returns what the connection must do next and whether
/// anything happened.
fn service(
    link: &mut impl Link,
    w: &mut Worker,
    t: &mut Tally,
    out: &mut Vec<Message>,
    killed: bool,
) -> (Next, bool) {
    let mut progressed = false;
    let next = loop {
        match link.recv() {
            Recv::Msg(msg) => {
                progressed = true;
                let next = w.on_msg(msg, Instant::now(), t, out);
                if next != Next::Continue {
                    break next;
                }
            }
            Recv::Empty => {
                w.tick(Instant::now(), t, out);
                break Next::Continue;
            }
            Recv::Closed => {
                if !killed {
                    t.fail(format!("{}: connection dropped without drain", w.id));
                }
                w.phase = Phase::Finished;
                break Next::Finished;
            }
        }
        if !send_all(link, out, t) && !killed {
            t.fail(format!("{}: send failed", w.id));
        }
    };
    if !out.is_empty() {
        progressed = true;
        if !send_all(link, out, t) && !killed {
            t.fail(format!("{}: send failed", w.id));
        }
    }
    (next, progressed)
}

/// Drive `workers` until each drains. Every worker connects and sends
/// its hello first; `connected` is called then, so the server can start
/// with the whole registration burst already queued. With `killed`, the
/// server is expected to die mid-run: lost connections then end the
/// drive instead of counting as failures.
pub fn drive<D: Dial>(
    dial: &mut D,
    workers: &mut [Worker],
    t: &mut Tally,
    killed: bool,
    connected: impl FnOnce(),
) {
    let mut out: Vec<Message> = Vec::new();
    let mut links: Vec<Option<D::Link>> = workers
        .iter_mut()
        .map(|w| connect(dial, w, t, killed))
        .collect();
    connected();
    let mut live = links.iter().filter(|l| l.is_some()).count();
    t.peak_conns = t.peak_conns.max(live);
    while live > 0 {
        let sweep = Instant::now();
        let mut progressed = false;
        for (slot, w) in links.iter_mut().zip(workers.iter_mut()) {
            let Some(link) = slot.as_mut() else {
                continue;
            };
            let (next, busy) = service(link, w, t, &mut out, killed);
            progressed |= busy;
            match next {
                Next::Continue => {}
                Next::Sever => {
                    // Close first, so a worker never holds two sockets.
                    *slot = None;
                    *slot = connect(dial, w, t, killed);
                }
                Next::Finished => *slot = None,
            }
            if slot.is_none() {
                live -= 1;
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
        let took = u64::try_from(sweep.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if progressed {
            t.busy_ns += took;
        } else {
            t.idle_ns += took;
        }
    }
}
