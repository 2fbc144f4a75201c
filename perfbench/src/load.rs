//! The load generator: one loop per workload shape, each sending the
//! seeded request stream over loopback TCP and checking every response.
//!
//! * [`pipelined`]: one connection, a fixed window of requests in flight.
//! * [`closed_loop`]: one connection, one request in flight.
//! * [`ingest`]: a closed-loop writer connection and a reader connection
//!   paced on a fixed schedule, on two threads.
//!
//! Latencies are nanoseconds. A closed loop's request is due when its
//! predecessor's response arrived (a pipelined one when its window slot
//! freed); a paced request is due on its schedule, and its latency counts
//! from that due time. Generator lateness is send time minus due time.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::gen::{Inputs, Op, OpStream};
use crate::oracle::Oracle;
use crate::reference::{self, Reference};

/// Requests in flight on the pipelined connection.
pub const WINDOW: usize = 8;
/// The `ingest_mixed` reader's schedule: one request every 500 µs.
pub const READER_PERIOD: Duration = Duration::from_micros(500);

/// One client span handed to the tracer after the window: name, start,
/// end (ns since the tracer origin) and request sequence number.
pub type RawSpan = (&'static str, u64, u64, u64);

/// What one connection observed during one window.
#[derive(Debug, Default)]
pub struct Recorder {
    /// `count` latencies.
    pub query: Vec<u64>,
    /// `batch` latencies.
    pub batch: Vec<u64>,
    /// `insert` latencies.
    pub insert: Vec<u64>,
    /// `flush` latencies.
    pub flush: Vec<u64>,
    /// Generator lateness per request.
    pub late: Vec<u64>,
    /// Echo round trips of the transport reference, interleaved with the
    /// requests.
    pub reference: Vec<u64>,
    /// Response bytes received (newlines included).
    pub response_bytes: u64,
    /// Requests sent and checked.
    pub attempted: u64,
    /// Error lines, timeouts and mismatches.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Client spans, when tracing.
    pub spans: Vec<RawSpan>,
    /// Batch responses to check against the oracle after the window.
    pub deferred: Vec<([u32; crate::gen::BATCH_QUERIES], u64)>,
}

impl Recorder {
    /// Completed request lines.
    pub fn lines(&self) -> u64 {
        (self.query.len() + self.batch.len() + self.insert.len() + self.flush.len()) as u64
    }

    /// Counts one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn latency(&mut self, op: Op, ns: u64) {
        match op {
            Op::Hot(_) | Op::Cold(_) => self.query.push(ns),
            Op::Batch(_) => self.batch.push(ns),
            Op::Insert(_) => self.insert.push(ns),
            Op::Flush => self.flush.push(ns),
        }
    }

    /// Checks a query or batch response against the oracle (batches are
    /// deferred: they are hashed now and recomputed after the window).
    fn check(&mut self, oracle: &Oracle, op: Op, got: &str) {
        match op {
            Op::Batch(qs) => self.deferred.push((qs, hash(got))),
            _ => {
                let want = oracle.expected(op);
                if got != want {
                    self.fail(format!("{op:?}: got `{got}`, want `{want}`"));
                }
            }
        }
    }

    /// Recomputes every deferred batch answer; mismatches count as failed.
    pub fn check_deferred(&mut self, oracle: &Oracle, inputs: &Inputs) {
        for (qs, got) in std::mem::take(&mut self.deferred) {
            let want = oracle.answer(&inputs.line(Op::Batch(qs)));
            if hash(&want) != got {
                self.fail(format!("batch {qs:?}: response differs from `{want}`"));
            }
        }
    }
}

fn hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn ns(origin: Instant, t: Instant) -> u64 {
    t.duration_since(origin).as_nanos() as u64
}

/// Pipelined loop: keeps [`WINDOW`] requests in flight until `dur`
/// elapses, then drains. Responses already buffered are taken together,
/// and the slots they free are refilled with one write. Every response is
/// compared with the oracle.
///
/// # Errors
///
/// A transport failure (timeout, closed connection) ends the window; the
/// requests still in flight are counted as failed.
pub fn pipelined(
    conn: &mut Conn,
    inputs: &Inputs,
    stream: &mut OpStream,
    oracle: &Oracle,
    dur: Duration,
    rec: &mut Recorder,
    trace: Option<Instant>,
) -> Result<f64, String> {
    let start = Instant::now();
    let deadline = start + dur;
    let mut inflight: VecDeque<(Op, Instant, u64)> = VecDeque::with_capacity(WINDOW);
    let mut buf = String::with_capacity(256);
    let mut seq = rec.attempted;
    let mut due = start;
    loop {
        let fresh = inflight.len();
        while inflight.len() < WINDOW && Instant::now() < deadline {
            let op = stream.next().expect("streams are endless");
            conn.queue(&inputs.line(op));
            inflight.push_back((op, start, seq));
            seq += 1;
        }
        if inflight.len() > fresh {
            let sent = Instant::now();
            let late = sent.duration_since(due).as_nanos() as u64;
            for entry in inflight.iter_mut().skip(fresh) {
                entry.1 = sent;
                rec.late.push(late);
            }
            if let Err(e) = conn.send_queued() {
                return Err(abandon(rec, inflight.len(), e));
            }
        }
        if inflight.is_empty() {
            break;
        }
        loop {
            let (op, sent, id) = inflight.pop_front().expect("checked non-empty");
            rec.attempted += 1;
            if let Err(e) = conn.recv(&mut buf) {
                rec.attempted -= 1;
                return Err(abandon(rec, inflight.len() + 1, e));
            }
            let got = Instant::now();
            due = got;
            rec.latency(op, got.duration_since(sent).as_nanos() as u64);
            rec.response_bytes += buf.len() as u64 + 1;
            if let Some(origin) = trace {
                rec.spans
                    .push(("client.request", ns(origin, sent), ns(origin, got), id));
            }
            rec.check(oracle, op, &buf);
            if inflight.is_empty() || !conn.has_buffered_line() {
                break;
            }
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Counts `lost` requests that will never be answered as attempted and
/// failed, and passes the transport error on.
fn abandon(rec: &mut Recorder, lost: usize, e: String) -> String {
    for _ in 0..lost {
        rec.attempted += 1;
        rec.fail(e.clone());
    }
    e
}

/// Closed loop: one request in flight until `dur` elapses. With an
/// `echo` reference, a sample of echo round trips follows every
/// [`reference::EVERY`] requests, so both see the host in the same state.
///
/// # Errors
///
/// As [`pipelined`].
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    stream: &mut OpStream,
    oracle: &Oracle,
    dur: Duration,
    rec: &mut Recorder,
    trace: Option<Instant>,
    mut echo: Option<&mut Reference>,
) -> Result<f64, String> {
    let start = Instant::now();
    let deadline = start + dur;
    let mut buf = String::with_capacity(1024);
    let mut due = start;
    while due < deadline {
        let op = stream.next().expect("streams are endless");
        let line = inputs.line(op);
        let id = rec.attempted;
        rec.attempted += 1;
        let sent = Instant::now();
        if let Err(e) = conn.send(&line).and_then(|()| conn.recv(&mut buf)) {
            rec.fail(e.clone());
            return Err(e);
        }
        let got = Instant::now();
        rec.late.push(sent.duration_since(due).as_nanos() as u64);
        due = got;
        rec.latency(op, got.duration_since(sent).as_nanos() as u64);
        rec.response_bytes += buf.len() as u64 + 1;
        if let Some(origin) = trace {
            rec.spans
                .push(("client.request", ns(origin, sent), ns(origin, got), id));
        }
        rec.check(oracle, op, &buf);
        if let Some(r) = echo.as_deref_mut() {
            if id.is_multiple_of(reference::EVERY) {
                r.sample(&mut rec.reference)?;
                due = Instant::now();
            }
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The writer's running totals, carried across windows.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriterState {
    /// Inserts the server acknowledged.
    pub acked: u64,
    /// Acknowledged inserts that triggered a re-publication (each is a WAL
    /// event of its own).
    pub republished: u64,
}

impl WriterState {
    /// Checks one writer response. An insert must be acknowledged; a
    /// flush must report `flushed events=N` for exactly the WAL events the
    /// writer caused: every acknowledged insert plus every re-publication
    /// those inserts reported.
    fn check(&mut self, op: Op, got: &str, rec: &mut Recorder) {
        if op == Op::Flush {
            let want = self.acked + self.republished;
            if got
                .strip_prefix("flushed events=")
                .and_then(|n| n.parse().ok())
                != Some(want)
            {
                rec.fail(format!("flush: got `{got}`, want `flushed events={want}`"));
            }
        } else if got.starts_with("inserted group_size=") {
            self.acked += 1;
            if got.ends_with(" republished=true") {
                self.republished += 1;
            }
        } else {
            rec.fail(format!("{op:?}: got `{got}`"));
        }
    }

    /// Sends one unscheduled `flush` (the run's closing durability point),
    /// checked like every other.
    pub fn flush(&mut self, conn: &mut Conn, rec: &mut Recorder) -> Result<(), String> {
        rec.attempted += 1;
        let sent = Instant::now();
        let got = conn.call("flush").inspect_err(|e| rec.fail(e.clone()))?;
        rec.latency(Op::Flush, sent.elapsed().as_nanos() as u64);
        rec.response_bytes += got.len() as u64 + 1;
        self.check(Op::Flush, &got, rec);
        Ok(())
    }
}

/// The `ingest_mixed` loops, on two threads until `dur` elapses: a
/// closed-loop writer sending inserts with a flush after every 64, and a
/// reader sending hot-set counts paced every [`READER_PERIOD`] (sent when
/// due, or as soon as its predecessor's response arrives if that is
/// later, with latency counted from the due time).
///
/// # Errors
///
/// A transport failure on either connection.
#[allow(clippy::too_many_arguments)]
pub fn ingest(
    writer: &mut Conn,
    reader: &mut Conn,
    inputs: &Inputs,
    writes: &mut OpStream,
    reads: &mut OpStream,
    state: &mut WriterState,
    oracle: &Oracle,
    dur: Duration,
    w: &mut Recorder,
    r: &mut Recorder,
    trace: Option<Instant>,
) -> Result<f64, String> {
    let start = Instant::now();
    let deadline = start + dur;
    let (wres, rres) = std::thread::scope(|s| {
        let wh = s.spawn(|| {
            let check = |op, got: &str, rec: &mut Recorder| state.check(op, got, rec);
            paced(
                writer, inputs, writes, None, start, deadline, w, trace, check,
            )
        });
        let rh = s.spawn(|| {
            // Answers on a live release move with every insert, so the
            // reader checks what inserts cannot change: an answer line
            // whose support is at least the base release's.
            let check = |op, got: &str, rec: &mut Recorder| {
                let base = support_of(oracle.expected(op));
                if !got.starts_with("est=") || base.is_none() || support_of(got) < base {
                    rec.fail(format!(
                        "{op:?}: got `{got}`, base `{}`",
                        oracle.expected(op)
                    ));
                }
            };
            paced(
                reader,
                inputs,
                reads,
                Some(READER_PERIOD),
                start,
                deadline,
                r,
                trace,
                check,
            )
        });
        (
            wh.join()
                .unwrap_or_else(|_| Err("writer thread panicked".into())),
            rh.join()
                .unwrap_or_else(|_| Err("reader thread panicked".into())),
        )
    });
    wres.and(rres)?;
    Ok(start.elapsed().as_secs_f64())
}

/// One connection with one request in flight. With a `period`, request
/// `k` is due at `start + k * period`; without one (closed loop), each
/// request is due when its predecessor's response arrives.
#[allow(clippy::too_many_arguments)]
fn paced(
    conn: &mut Conn,
    inputs: &Inputs,
    stream: &mut OpStream,
    period: Option<Duration>,
    start: Instant,
    deadline: Instant,
    rec: &mut Recorder,
    trace: Option<Instant>,
    mut check: impl FnMut(Op, &str, &mut Recorder),
) -> Result<(), String> {
    let mut buf = String::with_capacity(256);
    let mut prev = start;
    for k in 0u32.. {
        let due = period.map_or_else(Instant::now, |p| start + p * k);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let op = stream.next().expect("streams are endless");
        let id = rec.attempted;
        rec.attempted += 1;
        let sent = Instant::now();
        // The generator's own lateness: a request held up by its
        // predecessor's slow response is the server's delay, not ours.
        rec.late
            .push(sent.duration_since(due.max(prev)).as_nanos() as u64);
        if let Err(e) = conn
            .send(&inputs.line(op))
            .and_then(|()| conn.recv(&mut buf))
        {
            rec.fail(e.clone());
            return Err(e);
        }
        let got = Instant::now();
        prev = got;
        rec.latency(op, got.duration_since(due).as_nanos() as u64);
        rec.response_bytes += buf.len() as u64 + 1;
        if let Some(origin) = trace {
            rec.spans
                .push(("client.request", ns(origin, sent), ns(origin, got), id));
        }
        check(op, &buf, rec);
    }
    Ok(())
}

/// The `support=N` field of an answer line.
fn support_of(answer: &str) -> Option<u64> {
    answer
        .split(' ')
        .find_map(|t| t.strip_prefix("support="))
        .and_then(|v| v.parse().ok())
}
