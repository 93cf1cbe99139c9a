//! Re-time the layers the reactor calls between polls.
//!
//! The poller shim captured every byte the reactor read and sent. This
//! module feeds that stream back through the same public pieces the
//! reactor is built from — `Decoder::feed`/`next_msg`,
//! `LeaseMachine::step`, `TimerWheel::schedule`/`advance` and
//! `Frame::encode_into` — dispatching frames the way the reactor does,
//! and times each call. The replay must reproduce every byte the live
//! server sent; a connection whose replies differ is reported, because
//! its timings would then describe different work.

use std::collections::HashMap;
use std::time::Instant;

use ic_net::machine::{Effect, Event, LeaseMachine};
use ic_net::{ConnId, Decoder, Frame, Message, ServerConfig, TimerWheel};

use crate::probe::Logged;

/// What the replay measured, in nanoseconds and counts.
#[derive(Debug, Default)]
pub struct Retimed {
    /// `Decoder::feed` plus `Decoder::next_msg`.
    pub decode_ns: u64,
    /// `Frame::encode_into`.
    pub encode_ns: u64,
    /// `LeaseMachine::step` (and `boot`).
    pub step_ns: u64,
    /// `TimerWheel::schedule` plus `advance`.
    pub timer_ns: u64,
    /// Frames decoded.
    pub frames_in: u64,
    /// Frames encoded.
    pub frames_out: u64,
    /// Machine events stepped.
    pub events: u64,
    /// `Wait` replies.
    pub waits: u64,
    /// Lease timers armed.
    pub armed: u64,
    /// Connections whose replayed replies differ from the live bytes.
    pub diverged: usize,
}

/// The cost of one empty `Instant` pair, subtracted from each timed
/// call so the rows measure the layer and not the stopwatch.
pub fn stopwatch_ns() -> u64 {
    const N: u32 = 20_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..N {
        let t = Instant::now();
        acc = acc.wrapping_add(u64::from(t.elapsed().subsec_nanos()));
    }
    std::hint::black_box(acc);
    u64::try_from(start.elapsed().as_nanos() / u128::from(N)).unwrap_or(0)
}

/// Accumulates one layer's time net of the stopwatch cost.
struct Meter {
    overhead: u64,
}

impl Meter {
    fn time<R>(&self, acc: &mut u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let took = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        *acc += took.saturating_sub(self.overhead);
        r
    }
}

#[derive(Default)]
struct Conn {
    dec: Decoder,
    reg: Option<(usize, u64)>,
}

struct Replay<'m, 'a> {
    m: LeaseMachine<'a, 'a>,
    lease_us: u64,
    wheel: TimerWheel<(usize, u64)>,
    conns: HashMap<ConnId, Conn>,
    replies: HashMap<ConnId, Vec<u8>>,
    meter: &'m Meter,
    r: Retimed,
}

impl Replay<'_, '_> {
    fn step(&mut self, ev: Event) -> Vec<Effect> {
        self.r.events += 1;
        let m = &mut self.m;
        self.meter.time(&mut self.r.step_ns, || m.step(ev))
    }

    fn arm(&mut self, worker: usize, task: u64, now: u64) {
        self.r.armed += 1;
        let wheel = &mut self.wheel;
        let deadline = now.saturating_add(self.lease_us);
        self.meter.time(&mut self.r.timer_ns, || {
            wheel.schedule(deadline, (worker, task))
        });
    }

    fn send(&mut self, id: ConnId, msg: &Message) {
        self.r.frames_out += 1;
        if matches!(msg, Message::Wait { .. }) {
            self.r.waits += 1;
        }
        let buf = self.replies.entry(id).or_default();
        self.meter
            .time(&mut self.r.encode_ns, || Frame::encode_into(msg, buf));
    }

    /// Step a `Sever`; its effects are trace records only.
    fn sever(&mut self, worker: usize, epoch: u64, now_us: u64) {
        self.step(Event::Sever {
            worker,
            epoch,
            now_us,
        });
    }

    fn data(&mut self, id: ConnId, bytes: &[u8], now: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        self.meter
            .time(&mut self.r.decode_ns, || conn.dec.feed(bytes));
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let msg = match self
                .meter
                .time(&mut self.r.decode_ns, || conn.dec.next_msg())
            {
                Ok(Some(msg)) => msg,
                Ok(None) => return,
                Err(_) => {
                    if let Some((worker, epoch)) = self.conns.remove(&id).and_then(|c| c.reg) {
                        self.sever(worker, epoch, now);
                    }
                    return;
                }
            };
            self.r.frames_in += 1;
            match conn.reg {
                None => self.unregistered(id, msg, now),
                Some((worker, epoch)) => self.registered(id, worker, epoch, msg, now),
            }
        }
    }

    fn refuse(&mut self, id: ConnId) {
        self.send(
            id,
            &Message::error("expected hello with a positive finite speed"),
        );
        self.conns.remove(&id);
    }

    fn unregistered(&mut self, id: ConnId, msg: Message, now_us: u64) {
        let Message::Hello {
            id: wid,
            speed,
            proto,
            resume,
        } = msg
        else {
            self.refuse(id);
            return;
        };
        if !(speed.is_finite() && speed > 0.0) {
            self.refuse(id);
            return;
        }
        for e in self.step(Event::Hello {
            id: wid,
            speed,
            proto,
            resume,
            now_us,
        }) {
            if let Effect::Registered { msg, worker, epoch } = e {
                let accepted = matches!(msg, Message::Welcome { .. });
                if let Message::Welcome { ref tasks, .. } = msg {
                    for &task in tasks {
                        self.arm(worker, task, now_us);
                    }
                }
                self.send(id, &msg);
                match self.conns.get_mut(&id) {
                    Some(conn) if accepted => conn.reg = Some((worker, epoch)),
                    _ => {
                        self.conns.remove(&id);
                    }
                }
            }
        }
    }

    fn registered(&mut self, id: ConnId, worker: usize, epoch: u64, msg: Message, now_us: u64) {
        let event = match msg {
            Message::Request { max } => Event::Request {
                worker,
                max,
                now_us,
            },
            Message::Done { task, ok } => Event::Done {
                worker,
                task,
                ok,
                now_us,
            },
            Message::Heartbeat { task } => Event::Heartbeat {
                worker,
                task,
                now_us,
            },
            other => {
                if other != Message::Bye {
                    self.send(
                        id,
                        &Message::error("unexpected server-side message from a worker"),
                    );
                }
                self.conns.remove(&id);
                self.sever(worker, epoch, now_us);
                return;
            }
        };
        let mut draining = false;
        for e in self.step(event) {
            let Effect::Reply(msg) = e else { continue };
            match &msg {
                Message::Assign { tasks } => {
                    for &task in tasks {
                        self.arm(worker, task, now_us);
                    }
                }
                Message::Ack {
                    task,
                    accepted: true,
                } => self.arm(worker, *task, now_us),
                Message::Drain => draining = true,
                _ => {}
            }
            self.send(id, &msg);
        }
        if draining {
            self.conns.remove(&id);
            self.sever(worker, epoch, now_us);
        }
    }

    fn advance(&mut self, now_us: u64) {
        let mut fired = Vec::new();
        let wheel = &mut self.wheel;
        self.meter
            .time(&mut self.r.timer_ns, || wheel.advance(now_us, &mut fired));
        for (worker, task) in fired {
            self.step(Event::Expire {
                worker,
                task,
                now_us,
            });
        }
    }
}

/// Replay `log` through `machine`, which must be in the state the live
/// reactor started from. `clock_us` maps a captured instant to the
/// reactor's clock; `overhead_ns` is [`stopwatch_ns`].
pub fn retime(
    machine: LeaseMachine<'_, '_>,
    cfg: &ServerConfig,
    log: &[Logged],
    start: Instant,
    clock_us: impl Fn(Instant) -> u64,
    overhead_ns: u64,
) -> Retimed {
    let meter = Meter {
        overhead: overhead_ns,
    };
    let start_us = clock_us(start);
    let mut rp = Replay {
        m: machine,
        lease_us: cfg.lease_ms.saturating_mul(1000),
        wheel: TimerWheel::new(start_us),
        conns: HashMap::new(),
        replies: HashMap::new(),
        meter: &meter,
        r: Retimed::default(),
    };
    // A recovered machine re-arms every lease it rebuilt.
    for lease in rp.m.lease_views() {
        rp.arm(lease.worker, lease.task.index() as u64, start_us);
    }
    let m = &mut rp.m;
    meter.time(&mut rp.r.step_ns, || m.boot(start_us));

    let mut live: HashMap<ConnId, Vec<u8>> = HashMap::new();
    let mut now = start_us;
    for entry in log {
        match entry {
            Logged::Round(at) => {
                rp.advance(now);
                now = clock_us(*at);
            }
            Logged::Open(id) => {
                rp.conns.insert(*id, Conn::default());
            }
            Logged::Data(id, bytes) => rp.data(*id, bytes, now),
            Logged::Closed(id) => {
                if let Some((worker, epoch)) = rp.conns.remove(id).and_then(|c| c.reg) {
                    rp.sever(worker, epoch, now);
                }
            }
            Logged::Sent(id, bytes) => live.entry(*id).or_default().extend_from_slice(bytes),
        }
    }
    rp.advance(now);
    let mut ids: Vec<ConnId> = live.keys().chain(rp.replies.keys()).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    rp.r.diverged = ids
        .iter()
        .filter(|id| live.get(id) != rp.replies.get(id))
        .count();
    rp.r
}
