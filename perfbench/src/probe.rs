//! Timing and counting shims for the reactor's three injected seams:
//! the [`Clock`], the [`Poller`] (both through `Driver::new`) and the
//! [`TraceSink`] handed to `run_until_drain`.
//!
//! Untraced, a shim only notes the two instants the end-to-end metrics
//! need (the first frame the server sends, and the trace header that
//! marks the registration barrier). Traced, it also times every call,
//! counts events and bytes, and captures the I/O stream so
//! [`crate::retime`] can re-time the layers the reactor calls between
//! polls.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ic_net::{Clock, ConnId, IoEvent, Poller};
use ic_sim::trace::{TraceEvent, TraceHeader, TraceSink};

/// One captured step of the reactor's I/O, in the order it happened.
#[derive(Debug)]
pub enum Logged {
    /// A poll returned at this instant; the events after it are its.
    Round(Instant),
    /// A connection opened.
    Open(ConnId),
    /// Bytes arrived on a connection.
    Data(ConnId, Vec<u8>),
    /// A connection closed under the reactor.
    Closed(ConnId),
    /// The reactor sent these bytes on a connection.
    Sent(ConnId, Vec<u8>),
}

/// Counters shared by the shims of one serving run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Time and capture every call (the traced run).
    pub traced: bool,
    /// When the reactor sent its first frame: the first hello accepted.
    pub first_send: Option<Instant>,
    /// When the trace header was written: the registration barrier.
    pub header_at: Option<Instant>,
    /// Fail the next poll once this many completions were recorded —
    /// how the harness kills a server mid-run.
    pub kill_after: Option<usize>,
    /// `Completed` events recorded so far.
    pub completions: usize,
    /// Time in polls that returned events.
    pub poll_busy_ns: u64,
    /// Time in polls that returned none (the nap or channel wait).
    pub poll_idle_ns: u64,
    /// Polls made.
    pub polls: u64,
    /// I/O events the polls returned.
    pub events_in: u64,
    /// Bytes the polls delivered.
    pub bytes_in: u64,
    /// Time in `Poller::send`.
    pub send_ns: u64,
    /// `Poller::send` calls.
    pub sends: u64,
    /// Bytes handed to `Poller::send`.
    pub bytes_out: u64,
    /// `Clock::now_us` calls.
    pub clock_reads: u64,
    /// Time in `TraceSink::header`/`record`.
    pub record_ns: u64,
    /// Trace events recorded.
    pub records: u64,
    /// The captured I/O stream (traced runs only).
    pub log: Vec<Logged>,
}

/// A [`Probe`] shared between the shims and the harness.
pub type Shared = Rc<RefCell<Probe>>;

/// A fresh probe.
pub fn probe(traced: bool) -> Shared {
    Rc::new(RefCell::new(Probe {
        traced,
        ..Probe::default()
    }))
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Counts clock reads.
pub struct ProbeClock<C> {
    inner: C,
    probe: Shared,
    traced: bool,
}

impl<C: Clock> ProbeClock<C> {
    /// Wrap `inner`.
    pub fn new(inner: C, probe: &Shared) -> ProbeClock<C> {
        let traced = probe.borrow().traced;
        ProbeClock {
            inner,
            probe: Rc::clone(probe),
            traced,
        }
    }
}

impl<C: Clock> Clock for ProbeClock<C> {
    fn now_us(&self) -> u64 {
        if self.traced {
            self.probe.borrow_mut().clock_reads += 1;
        }
        self.inner.now_us()
    }
}

/// Times polls and sends, and captures the I/O stream when traced.
pub struct ProbePoller<P> {
    inner: P,
    probe: Shared,
    traced: bool,
    sent_any: bool,
}

impl<P: Poller> ProbePoller<P> {
    /// Wrap `inner`.
    pub fn new(inner: P, probe: &Shared) -> ProbePoller<P> {
        let traced = probe.borrow().traced;
        ProbePoller {
            inner,
            probe: Rc::clone(probe),
            traced,
            sent_any: false,
        }
    }
}

impl<P: Poller> Poller for ProbePoller<P> {
    fn poll(&mut self, timeout: Duration, out: &mut Vec<IoEvent>) -> io::Result<()> {
        {
            let p = self.probe.borrow();
            if p.kill_after.is_some_and(|k| p.completions >= k) {
                return Err(io::Error::other("server killed by the benchmark"));
            }
        }
        if !self.traced {
            return self.inner.poll(timeout, out);
        }
        let before = out.len();
        let t0 = Instant::now();
        let r = self.inner.poll(timeout, out);
        let t1 = Instant::now();
        let mut p = self.probe.borrow_mut();
        let fresh = &out[before..];
        if fresh.is_empty() {
            p.poll_idle_ns += ns(t1 - t0);
        } else {
            p.poll_busy_ns += ns(t1 - t0);
        }
        p.polls += 1;
        p.events_in += fresh.len() as u64;
        p.log.push(Logged::Round(t1));
        for ev in fresh {
            let logged = match ev {
                IoEvent::Open(id) => Logged::Open(*id),
                IoEvent::Data(id, bytes) => {
                    p.bytes_in += bytes.len() as u64;
                    Logged::Data(*id, bytes.clone())
                }
                IoEvent::Closed(id) => Logged::Closed(*id),
            };
            p.log.push(logged);
        }
        r
    }

    fn send(&mut self, conn: ConnId, bytes: &[u8]) {
        if !self.sent_any {
            self.sent_any = true;
            self.probe.borrow_mut().first_send = Some(Instant::now());
        }
        if !self.traced {
            return self.inner.send(conn, bytes);
        }
        let t0 = Instant::now();
        self.inner.send(conn, bytes);
        let took = ns(t0.elapsed());
        let mut p = self.probe.borrow_mut();
        p.send_ns += took;
        p.sends += 1;
        p.bytes_out += bytes.len() as u64;
        p.log.push(Logged::Sent(conn, bytes.to_vec()));
    }

    fn close(&mut self, conn: ConnId) {
        self.inner.close(conn);
    }
}

/// Times trace writes and counts records.
pub struct ProbeSink<S> {
    /// The wrapped sink, handed back to the harness after the run.
    pub inner: S,
    probe: Shared,
    traced: bool,
    counting: bool,
}

impl<S: TraceSink> ProbeSink<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, probe: &Shared) -> ProbeSink<S> {
        let (traced, counting) = {
            let p = probe.borrow();
            (p.traced, p.kill_after.is_some())
        };
        ProbeSink {
            inner,
            probe: Rc::clone(probe),
            traced,
            counting,
        }
    }
}

impl<S: TraceSink> TraceSink for ProbeSink<S> {
    fn header(&mut self, header: &TraceHeader) {
        let t0 = Instant::now();
        self.inner.header(header);
        let mut p = self.probe.borrow_mut();
        p.header_at = Some(t0);
        if self.traced {
            p.record_ns += ns(t0.elapsed());
        }
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.counting && matches!(event, TraceEvent::Completed { .. }) {
            self.probe.borrow_mut().completions += 1;
        }
        if !self.traced {
            return self.inner.record(event);
        }
        let t0 = Instant::now();
        self.inner.record(event);
        let took = ns(t0.elapsed());
        let mut p = self.probe.borrow_mut();
        p.record_ns += took;
        p.records += 1;
    }
}
