//! End-to-end load benchmark for `rpctl serve`.
//!
//! One run: generate a seeded 300K-row CENSUS-shaped table, write it as
//! CSV, publish it with `rpctl publish --no-generalize`, serve it with
//! `rpctl serve --listen 127.0.0.1:0` as a child process, and drive one
//! workload over loopback TCP from this process (at most two threads and
//! two connections), checking every response. The last line of standard
//! output is the JSON result; a human-readable report goes to standard
//! error.
//!
//! ```text
//! rp-perfbench --rpctl PATH --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics: an untraced window (scrape diff and client timing),
//! a traced window of the same length (client spans, tracing overhead),
//! then the in-process replay of each layer's public functions.
//!
//! `--spin` (an idle-priority busy loop that keeps a CPU from halting) and
//! `--echo` (the transport reference's line echo, see [`reference`]) are
//! internal modes a run starts as child processes of its own.

mod client;
mod gen;
mod host;
mod load;
mod oracle;
mod reference;
mod replay;
mod rng;
mod scrape;
mod server;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use rp_engine::Publication;

use crate::gen::{Inputs, Stream, Workload, ROWS};
use crate::load::{Recorder, WriterState};
use crate::oracle::Oracle;
use crate::reference::Reference;
use crate::scrape::{Delta, Scrape};
use crate::server::{Cpu, ServeSpec, Server};
use crate::trace::Tracer;

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Untimed set-ups before them. On the reference host the first
/// CPU-heavy second after a quiet spell ran up to 1.5x faster than the
/// steady state that follows, so the first set-up is left out.
const SETUP_WARMUPS: usize = 1;
/// Slice length of warm-up and measured windows.
const SLICE: Duration = Duration::from_secs(1);
/// Warm-up cap: slices run until the slice rate settles.
const WARMUP_MAX: Duration = Duration::from_secs(8);
/// Three consecutive slice rates within this share of their mean count as
/// steady.
const STEADY: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rpctl: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rpctl = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--rpctl" => rpctl = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        rpctl: rpctl.ok_or("--rpctl is required")?,
        work,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spin") {
        server::spin();
        return ExitCode::SUCCESS;
    }
    if std::env::args().nth(1).as_deref() == Some("--echo") {
        reference::echo();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            eprint!("{}", result.report);
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Nanoseconds to microseconds.
fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// One run's outcome.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    report: String,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Removes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let (_, x, _) = v.select_nth_unstable(rank - 1);
    *x as f64
}

fn median_f(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The highest percentile with at least ten samples beyond it.
fn supported(n: usize) -> &'static str {
    match n {
        n if n >= 10_000 => "p99.9",
        n if n >= 1_000 => "p99",
        n if n >= 100 => "p90",
        _ => "p50",
    }
}

/// Client time per request: the mean latency over every line of the
/// window, divided by the requests each connection keeps in flight.
fn per_request_ns(w: &Window, workload: Workload) -> f64 {
    let in_flight = match workload {
        Workload::CountHotPipelined => load::WINDOW as f64,
        _ => 1.0,
    };
    let sum: u64 = w.all(every_line).iter().sum();
    sum as f64 / w.lines().max(1) as f64 / in_flight
}

/// Every latency a connection recorded, whatever the line type.
fn every_line(r: &Recorder) -> Vec<u64> {
    let mut v = r.query.clone();
    v.extend(&r.batch);
    v.extend(&r.insert);
    v.extend(&r.flush);
    v
}

/// A percentile over every line of a slice.
fn line_pct(s: &Slice, q: f64) -> f64 {
    let v: Vec<u64> = s.recs.iter().flat_map(every_line).collect();
    percentile(&v, q)
}

/// One slice of a measured window: what every connection saw. The query
/// connection is the last.
struct Slice {
    recs: Vec<Recorder>,
    secs: f64,
    /// Server CPU time over the slice, in nanoseconds.
    server_ns: u64,
    /// The echo reference's CPU time over the slice, in nanoseconds.
    echo_ns: u64,
}

impl Slice {
    fn queries(&self) -> &Recorder {
        self.recs.last().expect("a slice has a connection")
    }

    fn lines(&self) -> u64 {
        self.recs.iter().map(Recorder::lines).sum()
    }

    fn query_rps(&self) -> f64 {
        let q = self.queries();
        (q.query.len() + q.batch.len()) as f64 / self.secs
    }

    fn query_p50_us(&self) -> f64 {
        us(percentile(&self.queries().query, 0.5))
    }

    fn cpu_us_per_line(&self) -> f64 {
        us(self.server_ns as f64) / self.lines().max(1) as f64
    }

    /// The reference's median echo round trip ([`reference`]), in µs.
    fn echo_p50_us(&self) -> f64 {
        us(percentile(&self.queries().reference, 0.5))
    }

    /// The reference's CPU per echo round trip, in µs.
    fn echo_cpu_us(&self) -> f64 {
        us(self.echo_ns as f64) / self.queries().reference.len() as f64
    }

    /// Median `count` latency in echo round trips of the same slice.
    fn query_p50_rtt(&self) -> f64 {
        self.query_p50_us() / self.echo_p50_us()
    }

    /// Server CPU per line in echo CPU per round trip of the same slice.
    fn cpu_rtt_per_line(&self) -> f64 {
        self.cpu_us_per_line() / self.echo_cpu_us()
    }
}

/// One measured window, as consecutive one-second slices, plus server
/// resources and the scrape diff over the whole window.
///
/// The gated timings are ratios to the echo reference of the same slice
/// ([`reference`]), reported as their lower quartile over the slices. On
/// the shared 2-vCPU reference host a loopback round trip cost ~9 µs in
/// some phases and ~15 µs in others, phases lasting from seconds to whole
/// runs. `count_hot`'s median latency moved with it (11 vs 18 µs) and its
/// ratio did not (1.23 in both). The engine's compute slows less than the
/// transport, so `count_cold`'s latency ratio is lower in a slow phase
/// (~2.6 vs ~3.3); the lower quartile reads the slow phase whenever a
/// quarter of the run's slices fall in it, and, unlike the lowest slice,
/// ignores a single odd slice.
struct Window {
    slices: Vec<Slice>,
    server_cpu: (f64, f64),
    client_cpu: (f64, f64),
    scrape: Delta,
}

impl Window {
    fn recs(&self) -> impl Iterator<Item = &Recorder> {
        self.slices.iter().flat_map(|s| &s.recs)
    }

    fn secs(&self) -> f64 {
        self.slices.iter().map(|s| s.secs).sum()
    }

    fn lines(&self) -> u64 {
        self.slices.iter().map(Slice::lines).sum()
    }

    /// `pick` pooled over every connection and slice.
    fn all(&self, pick: impl Fn(&Recorder) -> Vec<u64>) -> Vec<u64> {
        self.recs().flat_map(&pick).collect()
    }

    /// `pick` pooled over the query connection's slices.
    fn queries(&self, pick: impl Fn(&Recorder) -> &Vec<u64>) -> Vec<u64> {
        self.slices
            .iter()
            .flat_map(|s| pick(s.queries()).iter().copied())
            .collect()
    }

    fn query_rps(&self) -> f64 {
        self.slices
            .iter()
            .map(|s| s.query_rps() * s.secs)
            .sum::<f64>()
            / self.secs()
    }

    /// The median over slices of a per-slice figure.
    fn median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median_f(self.slices.iter().map(f).collect())
    }

    /// The lower quartile over slices of a per-slice figure.
    fn lower_quartile(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let mut v: Vec<f64> = self.slices.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 4]
    }
}

/// The live connections and stream positions of a run.
struct Traffic<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    oracle: &'a Oracle,
    conns: Vec<client::Conn>,
    queries: gen::OpStream,
    writes: gen::OpStream,
    writer: WriterState,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The echo reference, on the closed-loop workloads.
    reference: Option<Reference>,
}

impl Traffic<'_> {
    /// Runs the workload for `dur`; `trace` stamps client spans.
    fn window(
        &mut self,
        dur: Duration,
        trace: Option<std::time::Instant>,
    ) -> Result<(Vec<Recorder>, f64), String> {
        let mut q = Recorder::default();
        let result = match self.workload {
            Workload::CountHotPipelined => load::pipelined(
                &mut self.conns[0],
                self.inputs,
                &mut self.queries,
                self.oracle,
                dur,
                &mut q,
                trace,
            )
            .map(|secs| (vec![], secs)),
            Workload::CountHot | Workload::CountCold => load::closed_loop(
                &mut self.conns[0],
                self.inputs,
                &mut self.queries,
                self.oracle,
                dur,
                &mut q,
                trace,
                self.reference.as_mut(),
            )
            .map(|secs| (vec![], secs)),
            Workload::IngestMixed => {
                let mut w = Recorder::default();
                let (a, b) = self.conns.split_at_mut(1);
                load::ingest(
                    &mut a[0],
                    &mut b[0],
                    self.inputs,
                    &mut self.writes,
                    &mut self.queries,
                    &mut self.writer,
                    self.oracle,
                    dur,
                    &mut w,
                    &mut q,
                    trace,
                )
                .map(|secs| (vec![w], secs))
            }
        };
        q.check_deferred(self.oracle, self.inputs);
        let (mut recs, secs) = match result {
            Ok(r) => r,
            Err(e) => {
                self.count(&q);
                return Err(e);
            }
        };
        recs.push(q);
        for r in &recs {
            self.count(r);
        }
        Ok((recs, secs))
    }

    fn count(&mut self, r: &Recorder) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        for f in &r.failures {
            if self.failures.len() < 5 {
                self.failures.push(f.clone());
            }
        }
    }

    /// The metrics scrape, sent on the first connection.
    fn scrape(&mut self) -> Result<Scrape, String> {
        Scrape::parse(&self.conns[0].call("metrics")?)
    }

    /// Warm-up slices until the last three slice rates all lie within
    /// [`STEADY`] of their mean (or [`WARMUP_MAX`] passes). Returns the
    /// slice rates.
    fn warm_up(&mut self) -> Result<Vec<f64>, String> {
        let mut rates: Vec<f64> = Vec::new();
        let mut spent = Duration::ZERO;
        while spent < WARMUP_MAX {
            let (recs, secs) = self.window(SLICE, None)?;
            spent += SLICE;
            rates.push(recs.iter().map(Recorder::lines).sum::<u64>() as f64 / secs);
            if let [.., a, b, c] = rates[..] {
                let mean = (a + b + c) / 3.0;
                if [a, b, c].iter().all(|r| (r / mean - 1.0).abs() < STEADY) {
                    break;
                }
            }
        }
        Ok(rates)
    }

    /// One measured window of one-second slices, with resource and
    /// scrape accounting around the whole of it.
    fn measure(
        &mut self,
        server: &Server,
        dur: Duration,
        trace: Option<std::time::Instant>,
    ) -> Result<Window, String> {
        let before = self.scrape()?;
        let (s0, c0) = (server.cpu(), Cpu::own());
        let mut slices = Vec::new();
        let mut left = dur;
        let echo_ns = |t: &Self| t.reference.as_ref().map_or(0, Reference::cpu_ns);
        let mut at = (server.cpu_ns(), echo_ns(self));
        while !left.is_zero() {
            let slice = left.min(SLICE);
            let (recs, secs) = self.window(slice, trace)?;
            let now = (server.cpu_ns(), echo_ns(self));
            slices.push(Slice {
                recs,
                secs,
                server_ns: now.0.saturating_sub(at.0),
                echo_ns: now.1.saturating_sub(at.1),
            });
            at = now;
            left -= slice;
        }
        let (s1, c1) = (server.cpu(), Cpu::own());
        let after = self.scrape()?;
        Ok(Window {
            slices,
            server_cpu: s1.since(s0),
            client_cpu: c1.since(c0),
            scrape: after.since(&before),
        })
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let inputs = Inputs::generate(args.seed);
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    let dir = args.work.join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let _work_dir = WorkDir(dir.clone());
    let csv = dir.join("census.csv");
    {
        let file = std::fs::File::create(&csv).map_err(|e| e.to_string())?;
        let mut w = std::io::BufWriter::new(file);
        rp_table::csv::write_csv(&inputs.table, &mut w).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut w).map_err(|e| e.to_string())?;
    }

    // The host before pinning (which narrows this process's CPUs), then
    // placement, so set-up runs pinned and on a spinning CPU like
    // the measured window.
    let host = host::describe(&dir);
    let cpu = server::pinned_cpu();
    server::pin_self(cpu)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spinner = server::Spinner::start(&exe, cpu);

    // Set-up: publish + serve to the first HELLO, several times.
    let (warmups, setups) = if args.trace {
        (0, 1)
    } else {
        (SETUP_WARMUPS, SETUPS)
    };
    let mut setup_times = Vec::new();
    let mut server: Option<Server> = None;
    let mut artifact = PathBuf::new();
    let mut wal = None;
    for k in 0..warmups + setups {
        if let Some(old) = server.take() {
            old.kill();
        }
        artifact = dir.join(format!("release-{k}.rppub"));
        let spec = ServeSpec {
            wal: (workload == Workload::IngestMixed).then(|| dir.join(format!("ingest-{k}.rpwal"))),
            max_resident: (workload == Workload::IngestMixed).then_some(replay::MAX_RESIDENT),
            cpu,
        };
        wal.clone_from(&spec.wal);
        let (s, secs) = server::set_up(&args.rpctl, &csv, &artifact, inputs.publish_seed, &spec)?;
        if k >= warmups {
            setup_times.push(secs);
        }
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    let hello = server
        .first
        .as_ref()
        .map(|c| c.hello.clone())
        .unwrap_or_default();

    let publication = Publication::load_from_path(&artifact).map_err(|e| e.to_string())?;
    let oracle = Oracle::new(&publication, &inputs, workload == Workload::CountCold);
    let mut conns = vec![server.first.take().expect("set-up opened a session")];
    if workload == Workload::IngestMixed {
        conns.push(server.connect()?);
    }
    let mut traffic = Traffic {
        workload,
        inputs: &inputs,
        oracle: &oracle,
        conns,
        queries: inputs.stream(workload.queries()),
        writes: inputs.stream(Stream::Writer),
        writer: WriterState::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        reference: match workload {
            Workload::CountHot | Workload::CountCold => Some(Reference::start(&exe, cpu)?),
            _ => None,
        },
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        report,
        "{host}; {}; {}",
        match cpu {
            Some(c) => format!("publish, server and generator pinned to CPU {c}"),
            None => "unpinned (fewer than two CPUs allowed, or no taskset)".into(),
        },
        if spinner.is_some() {
            "idle-priority spinner on"
        } else {
            "no spinner"
        }
    );
    let _ = writeln!(
        report,
        "dataset: census rows={ROWS} ({hello}) publish_seed={} hot_set={} cold_pool={} insert_pool={}",
        inputs.publish_seed,
        gen::HOT_SET,
        gen::COLD_POOL,
        gen::INSERT_POOL
    );

    let _ = writeln!(
        report,
        "set-up: {warmups} untimed, then s {setup_times:.3?}"
    );
    let rates = traffic.warm_up()?;
    let _ = writeln!(
        report,
        "warm-up: {} slices, lines/s {:?}",
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    // A traced run splits its time: an untraced half (scrape diff and
    // client timing), then a traced half (spans and tracing overhead).
    let dur = Duration::from_secs(if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    });
    let main = traffic.measure(&server, dur, None)?;
    let mut tracer = Tracer::new(args.trace);
    let traced = if args.trace {
        Some(traffic.measure(&server, dur, Some(tracer.origin()))?)
    } else {
        None
    };

    // Close out: final flush, resources, then the durability check.
    let mut checks = Vec::new();
    let mut post = Recorder::default();
    if workload == Workload::IngestMixed {
        traffic.writer.flush(&mut traffic.conns[0], &mut post)?;
    }
    let rss = server.rss_peak_mb();
    let wal_bytes = wal
        .as_ref()
        .and_then(|w| std::fs::metadata(w).ok())
        .map_or(0, |m| m.len());
    drop(traffic.conns.drain(..));
    server.kill();
    if let Some(wal) = &wal {
        post.attempted += 1;
        match replay_check(&args.rpctl, &artifact, wal, &dir, &traffic.writer) {
            Ok(line) => checks.push(format!("replay after SIGKILL: {line}")),
            Err(e) => post.fail(format!("replay after SIGKILL: {e}")),
        }
    }
    traffic.count(&post);

    // Metrics.
    let metrics: Vec<Metric>;
    let mut extra: Vec<(String, f64, &'static str, usize)> = Vec::new();
    let lines = main.lines().max(1) as f64;
    let late = main.queries(|r| &r.late);
    let query_n = main.queries(|r| &r.query).len();
    let every_n = main.all(every_line).len();
    if args.trace {
        let t = traced.as_ref().expect("traced window ran");
        let replayed = replay::run(workload, &inputs, &csv, &artifact, &dir, &mut tracer)?;
        let mut check = Recorder {
            attempted: 1,
            ..Recorder::default()
        };
        if replayed.publish_matches {
            checks.push("publisher replay reproduced the served artifact byte for byte".into());
        } else {
            check.fail("publisher replay did not reproduce the served artifact".into());
        }
        traffic.count(&check);
        for r in t.recs() {
            for &(name, s, e, id) in &r.spans {
                tracer.record(name, s, e, None, id);
            }
        }
        let served_wal_per_insert = (workload == Workload::IngestMixed)
            .then(|| wal_bytes as f64 / traffic.writer.acked.max(1) as f64);
        let artifact_bytes = std::fs::metadata(&artifact).map_or(0, |m| m.len());
        metrics = per_layer_metrics(
            workload,
            &main,
            t,
            &replayed,
            served_wal_per_insert,
            artifact_bytes,
        );
        let s = &main.scrape;
        let hits = s.counter("service.cache_hits");
        let misses = s.counter("service.cache_misses");
        let _ = writeln!(
            report,
            "tracing overhead: traced query_rps {:.1} vs untraced {:.1} (ratio {:.4}); {} spans",
            t.query_rps(),
            main.query_rps(),
            t.query_rps() / main.query_rps(),
            tracer.len()
        );
        for (kind, ns, n) in &replayed.handle_by_type {
            extra.push((format!("service.handle_ns[{kind}]"), *ns, "ns", *n));
        }
        let table = trace::self_time_table(&tracer.self_times());
        let trace_dir = args.work.join("trace");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        let spans = trace_dir.join(format!("{}.spans.tsv", workload.name()));
        tracer.write_spans(&spans).map_err(|e| e.to_string())?;
        let selftime = trace_dir.join(format!("{}.selftime.txt", workload.name()));
        std::fs::write(&selftime, &table).map_err(|e| e.to_string())?;
        let _ = writeln!(
            report,
            "self time by span (spans: {}, table: {}):\n{table}",
            spans.display(),
            selftime.display()
        );
        let _ = writeln!(
            report,
            "window scrape: cache hits={} misses={} wal.syncs={} flushes={} spill writes={}",
            hits,
            misses,
            s.count("wal.sync"),
            main.recs().map(|r| r.flush.len()).sum::<usize>(),
            s.count("spill.page_write")
        );
    } else {
        metrics = vec![
            ("setup_s", median_f(setup_times.clone()), "s"),
            (
                "query_p50_rtt",
                main.lower_quartile(Slice::query_p50_rtt),
                "rtt",
            ),
            (
                "server_cpu_rtt_per_op",
                main.lower_quartile(Slice::cpu_rtt_per_line),
                "rtt",
            ),
            ("server_rss_peak_mb", rss, "MiB"),
        ];
    }
    // Ungated figures (see the README), reported with their sample counts:
    // the gated timings' parts in µs (median over slices; server CPU also
    // over the whole window), then figures too noisy on a shared host to
    // gate.
    let n = main.lines() as usize;
    let (su, ss) = main.server_cpu;
    let echo_n = main.queries(|r| &r.reference).len();
    extra.extend([
        (
            "query_p50_us".into(),
            main.median(Slice::query_p50_us),
            "us",
            query_n,
        ),
        (
            "echo_p50_us".into(),
            main.median(Slice::echo_p50_us),
            "us",
            echo_n,
        ),
        (
            "server_cpu_us_per_op".into(),
            main.median(Slice::cpu_us_per_line),
            "us",
            n,
        ),
        (
            "server_cpu_us_per_op.window".into(),
            (su + ss) * 1e6 / lines,
            "us",
            n,
        ),
        (
            "echo_cpu_us_per_rtt".into(),
            main.median(Slice::echo_cpu_us),
            "us",
            echo_n,
        ),
        ("query_rps".into(), main.median(Slice::query_rps), "1/s", n),
        (
            "ops_rps".into(),
            main.median(|s| s.lines() as f64 / s.secs),
            "1/s",
            n,
        ),
        (
            "query_p99_us".into(),
            us(main.median(|s| percentile(&s.queries().query, 0.99))),
            "us",
            query_n,
        ),
        (
            "line_p50_us".into(),
            us(main.median(|s| line_pct(s, 0.5))),
            "us",
            every_n,
        ),
        (
            "line_p99_us".into(),
            us(main.median(|s| line_pct(s, 0.99))),
            "us",
            every_n,
        ),
    ]);
    // Workload-specific figures, reported with the metrics table.
    let batch = main.all(|r| r.batch.clone());
    let inserts = main.all(|r| r.insert.clone());
    let flushes = main.all(|r| r.flush.clone());
    for (name, v) in [("batch", &batch), ("insert", &inserts), ("flush", &flushes)] {
        if !v.is_empty() {
            extra.push((
                format!("{name}_p50_us"),
                us(percentile(v, 0.5)),
                "us",
                v.len(),
            ));
            extra.push((
                format!("{name}_p99_us"),
                us(percentile(v, 0.99)),
                "us",
                v.len(),
            ));
        }
    }
    if !inserts.is_empty() {
        extra.push((
            "insert_rps".into(),
            inserts.len() as f64 / main.secs(),
            "1/s",
            inserts.len(),
        ));
    }

    let samples = |name: &str| -> usize {
        match name {
            "setup_s" => setup_times.len(),
            n if n.starts_with("query_") => query_n,
            n if n.starts_with("line_") => every_n,
            "gen.late_p99_us" => late.len(),
            _ => main.lines() as usize,
        }
    };
    let _ = writeln!(
        report,
        "{:<30} {:>16} {:<6} {:>9}  note",
        "metric", "value", "unit", "samples",
    );
    let rows = metrics
        .iter()
        .map(|&(name, value, unit)| (name.to_string(), value, unit, samples(name), ""))
        .chain(
            extra
                .iter()
                .map(|(name, value, unit, n)| (name.clone(), *value, *unit, *n, "report only")),
        );
    for (name, value, unit, n, note) in rows {
        let supported_note = if name.contains("p99") && n < 1000 {
            format!("; p99 unsupported, highest is {}", supported(n))
        } else {
            String::new()
        };
        let _ = writeln!(
            report,
            "{name:<30} {value:>16.4} {unit:<6} {n:>9}  {note}{supported_note}"
        );
    }
    let _ = writeln!(
        report,
        "slices: lines/s {:?}; query p50 us {:.1?}; echo p50 us {:.1?}; server cpu us/line {:.2?}; echo cpu us/rtt {:.2?}",
        main.slices
            .iter()
            .map(|s| (s.lines() as f64 / s.secs).round())
            .collect::<Vec<_>>(),
        main.slices
            .iter()
            .map(Slice::query_p50_us)
            .collect::<Vec<_>>(),
        main.slices
            .iter()
            .map(Slice::echo_p50_us)
            .collect::<Vec<_>>(),
        main.slices
            .iter()
            .map(Slice::cpu_us_per_line)
            .collect::<Vec<_>>(),
        main.slices
            .iter()
            .map(Slice::echo_cpu_us)
            .collect::<Vec<_>>()
    );
    let (cu, cs) = main.client_cpu;
    let (su, ss) = main.server_cpu;
    let late_p99 = us(percentile(&late, 0.99));
    let generator_bound = match workload {
        Workload::IngestMixed => late_p99 > load::READER_PERIOD.as_micros() as f64 / 2.0,
        _ => cu + cs > su + ss,
    };
    let _ = writeln!(
        report,
        "generator: client cpu {:.2}s, server cpu {:.2}s over {:.2}s; send lateness p99 {late_p99:.1}us -> {}",
        cu + cs,
        su + ss,
        main.secs(),
        if generator_bound {
            "FLAG: the generator, not the server, was the bottleneck"
        } else {
            "server-bound"
        }
    );
    for c in &checks {
        let _ = writeln!(report, "check: {c}");
    }
    let _ = writeln!(
        report,
        "correctness: attempted={} failed={}{}",
        traffic.attempted,
        traffic.failed,
        if traffic.failures.is_empty() {
            String::new()
        } else {
            format!(" first failures: {:?}", traffic.failures)
        }
    );
    Ok(Outcome {
        attempted: traffic.attempted,
        failed: traffic.failed,
        metrics,
        report,
    })
}

/// The per-layer metrics of a traced run: `main` is the untraced half,
/// `t` the traced half. `served_wal_per_insert` is the served WAL's size
/// per acknowledged insert, when the server ran a stream.
fn per_layer_metrics(
    workload: Workload,
    main: &Window,
    t: &Window,
    replayed: &replay::Replay,
    served_wal_per_insert: Option<f64>,
    artifact_bytes: u64,
) -> Vec<Metric> {
    let s = &main.scrape;
    // Stream-layer figures come from the server when it runs a stream,
    // else from the library instrumentation around the in-process
    // stream replay (the static workloads' server has no WAL).
    let st = if workload == Workload::IngestMixed {
        s
    } else {
        &replayed.stream_obs
    };
    let v = |name: &str| replayed.values.get(name).copied().unwrap_or(0.0);
    let hits = s.counter("service.cache_hits") as f64;
    let misses = s.counter("service.cache_misses") as f64;
    let page_n = st.count("spill.page_write") + st.count("spill.page_read");
    let page_sum = st.mean("spill.page_write") * st.count("spill.page_write") as f64
        + st.mean("spill.page_read") * st.count("spill.page_read") as f64;
    let (su, ss) = main.server_cpu;
    let lines = main.lines().max(1) as f64;
    let late = main.queries(|r| &r.late);
    let wal_per_insert = served_wal_per_insert.unwrap_or_else(|| v("wal.bytes_per_insert"));
    vec![
        ("serve.request_ns", s.mean("serve.request"), "ns"),
        ("serve.encode_ns", s.mean("serve.encode"), "ns"),
        (
            "serve.transport_us",
            us(per_request_ns(main, workload) - s.mean("serve.request")),
            "us",
        ),
        ("protocol.parse_ns", v("protocol.parse_ns"), "ns"),
        ("protocol.encode_ns", v("protocol.encode_ns"), "ns"),
        (
            "protocol.response_bytes",
            main.recs().map(|r| r.response_bytes).sum::<u64>() as f64 / lines,
            "B",
        ),
        (
            "service.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        (
            "service.cache_lookup_ns",
            s.mean("service.cache_lookup"),
            "ns",
        ),
        ("service.execute_ns", s.mean("service.execute"), "ns"),
        ("service.handle_ns", v("service.handle_ns"), "ns"),
        ("engine.resolve_ns", v("engine.resolve_ns"), "ns"),
        ("engine.counts_ns", v("engine.counts_ns"), "ns"),
        ("engine.batch_ns", v("engine.batch_ns"), "ns"),
        ("engine.build_ms", v("engine.build_ms"), "ms"),
        ("stream.insert_ns", v("stream.insert_ns"), "ns"),
        ("stream.live_query_ns", v("stream.live_query_ns"), "ns"),
        (
            "stream.republish",
            st.counter("stream.republish") as f64,
            "count",
        ),
        ("stream.open_ms", v("stream.open_ms"), "ms"),
        ("wal.append_ns", st.mean("wal.append"), "ns"),
        ("wal.bytes_per_insert", wal_per_insert, "B"),
        ("wal.syncs", st.count("wal.sync") as f64, "count"),
        ("wal.sync_us", us(st.mean("wal.sync")), "us"),
        (
            "commit.events_per_sync",
            st.mean("commit.batch_events"),
            "count",
        ),
        (
            "spill.page_writes",
            st.count("spill.page_write") as f64,
            "count",
        ),
        (
            "spill.page_reads",
            st.count("spill.page_read") as f64,
            "count",
        ),
        (
            "spill.page_io_us",
            us(page_sum / page_n.max(1) as f64),
            "us",
        ),
        ("publication.save_ms", v("publication.save_ms"), "ms"),
        ("publication.load_ms", v("publication.load_ms"), "ms"),
        (
            "publication.bytes_per_record",
            artifact_bytes as f64 / ROWS as f64,
            "B",
        ),
        ("publisher.publish_ms", v("publisher.publish_ms"), "ms"),
        (
            "publisher.groups_sampled",
            v("publisher.groups_sampled"),
            "count",
        ),
        ("server.sys_share", ss / (su + ss).max(1e-9), "ratio"),
        ("gen.late_p99_us", us(percentile(&late, 0.99)), "us"),
        ("trace.rps_ratio", t.query_rps() / main.query_rps(), "ratio"),
    ]
}

/// After SIGKILL: `rpctl replay` of base + WAL must land on the base plus
/// every flushed insert (and the re-publications they reported).
fn replay_check(
    rpctl: &Path,
    artifact: &Path,
    wal: &Path,
    dir: &Path,
    writer: &WriterState,
) -> Result<String, String> {
    let output = dir.join("replayed.rppub");
    let out = Command::new(rpctl)
        .arg("replay")
        .arg("--publication")
        .arg(artifact)
        .arg("--wal")
        .arg(wal)
        .arg("--output")
        .arg(&output)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if !out.status.success() {
        return Err(format!(
            "rpctl replay failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let field = |suffix: &str| -> Option<u64> {
        let words: Vec<&str> = stdout.split_whitespace().collect();
        words
            .windows(2)
            .find(|w| w[1].trim_end_matches(',') == suffix)
            .and_then(|w| w[0].parse().ok())
    };
    let events = stdout
        .split_once("through event ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok());
    let want_events = writer.acked + writer.republished;
    if field("inserts") != Some(writer.acked)
        || field("re-publications") != Some(writer.republished)
        || events != Some(want_events)
    {
        return Err(format!(
            "`{stdout}`; want {} inserts, {} re-publications, event {want_events}",
            writer.acked, writer.republished
        ));
    }
    let replayed = Publication::load_from_path(&output).map_err(|e| e.to_string())?;
    match replayed.live() {
        Some(live) if live.base_rows == ROWS && live.inserted == writer.acked => Ok(format!(
            "base {} rows + {} inserts through event {want_events}",
            live.base_rows, live.inserted
        )),
        _ => Err("replayed snapshot does not hold base + every flushed insert".into()),
    }
}
