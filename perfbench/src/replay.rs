//! The in-process replay of the traced run: the workload's own seeded lines
//! pushed through each layer's public functions, one span per call, so
//! every layer's cost is measured where it is spent.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use rp_engine::protocol::{Request, WireQuery};
use rp_engine::publisher::{DEFAULT_DELTA, DEFAULT_LAMBDA, DEFAULT_P};
use rp_engine::{
    Publication, Publisher, QueryEngine, QueryService, ServiceConfig, SessionStats, StreamConfig,
    StreamPublisher,
};
use rp_table::CountQuery;

use crate::gen::{Inputs, Op, Stream, Workload, BATCH_QUERIES, INSERT_POOL, SA};
use crate::scrape::{Delta, Scrape};
use crate::trace::Tracer;

/// Upper bound on the calls replayed per layer.
const CALLS: usize = 20_000;
/// Upper bound on the time spent replaying one layer.
const BUDGET: Duration = Duration::from_secs(2);
/// Repetitions of the whole-artifact operations (median reported).
const REPS: usize = 3;
/// Room for every span the replay records: four per service call, three
/// per engine query, one per stream call, and a few hundred besides.
const SPANS: usize = 12 * CALLS;
/// `--max-resident` of the replayed stream, as on `ingest_mixed`.
pub const MAX_RESIDENT: usize = 256;

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-layer values by metric name (ns, ms, counts and ratios).
    pub values: BTreeMap<&'static str, f64>,
    /// `service.handle` mean by request type: `(type, mean ns, calls)`.
    pub handle_by_type: Vec<(&'static str, f64, usize)>,
    /// The library's own instrumentation while the stream replay ran.
    pub stream_obs: Delta,
    /// Whether the library's publisher reproduced the served artifact.
    pub publish_matches: bool,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn mean(sum_ns: u64, n: usize) -> f64 {
    sum_ns as f64 / n.max(1) as f64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs every layer's replay for `workload`.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    csv: &Path,
    artifact: &Path,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    // Every figure below is a span's own duration; the spans are recorded
    // outside those clock reads, into room made here.
    tracer.reserve(SPANS);
    let mut out = Replay::default();
    let mut call = 0u64;
    let mut next = || {
        call += 1;
        call
    };

    // publication: load, save; engine: build.
    let mut loads = Vec::new();
    let mut publication = None;
    for _ in 0..REPS {
        let (p, ns) = tracer.time("publication.load", None, next(), || {
            Publication::load_from_path(artifact)
        });
        loads.push(ms(ns));
        publication = Some(p.map_err(|e| format!("load {}: {e}", artifact.display()))?);
    }
    let publication = publication.expect("REPS > 0");
    let mut builds = Vec::new();
    for _ in 0..REPS {
        let (engine, ns) = tracer.time("engine.build", None, next(), || {
            QueryEngine::new(&publication)
        });
        builds.push(ms(ns));
        std::hint::black_box(engine);
    }
    let mut saves = Vec::new();
    let saved = dir.join("replay-save.rppub");
    for _ in 0..REPS {
        let (saved_ok, ns) = tracer.time("publication.save", None, next(), || {
            publication.save_to_path(&saved)
        });
        saved_ok.map_err(|e| format!("save: {e}"))?;
        saves.push(ms(ns));
    }
    let _ = std::fs::remove_file(&saved);
    out.values.insert("publication.load_ms", median(loads));
    out.values.insert("engine.build_ms", median(builds));
    out.values.insert("publication.save_ms", median(saves));

    // publisher: the same publish `rpctl publish` runs, on the same CSV.
    let file = std::fs::File::open(csv).map_err(|e| format!("open {}: {e}", csv.display()))?;
    let table =
        rp_table::csv::read_csv(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = if threads > 1 { threads * 4 } else { 1 };
    let mut publishes = Vec::new();
    let mut republished = None;
    for _ in 0..REPS {
        let input = table.clone();
        let (p, ns) = tracer.time("publisher.publish", None, next(), || {
            Publisher::new(input)
                .sa_named(SA)
                .privacy(DEFAULT_LAMBDA, DEFAULT_DELTA)
                .retention(DEFAULT_P)
                .seed(inputs.publish_seed)
                .parallelism(shards, threads)
                .publish()
        });
        publishes.push(ms(ns));
        republished = Some(p.map_err(|e| format!("publish: {e}"))?);
    }
    let republished = republished.expect("REPS > 0");
    out.values.insert("publisher.publish_ms", median(publishes));
    out.values.insert(
        "publisher.groups_sampled",
        republished.stats().groups_sampled as f64,
    );
    let mut bytes = Vec::new();
    republished.save(&mut bytes).map_err(|e| e.to_string())?;
    out.publish_matches = std::fs::read(artifact).is_ok_and(|served| served == bytes);

    service_replay(
        workload,
        inputs,
        &publication,
        dir,
        tracer,
        &mut next,
        &mut out,
    )?;
    engine_replay(workload, inputs, &publication, tracer, &mut next, &mut out)?;
    stream_replay(
        workload,
        inputs,
        &publication,
        dir,
        tracer,
        &mut next,
        &mut out,
    )?;
    Ok(out)
}

/// The workload's query lines, as resolved-ready wire queries.
fn queries(workload: Workload, inputs: &Inputs, n: usize) -> Vec<WireQuery> {
    let mut out = Vec::with_capacity(n);
    for op in inputs.stream(workload.queries()) {
        match op {
            Op::Hot(i) => out.push(wire(&inputs.hot[i as usize])),
            Op::Cold(i) => out.push(inputs.cold[i as usize].clone()),
            Op::Batch(qs) => out.extend(qs.iter().map(|&i| inputs.cold[i as usize].clone())),
            Op::Insert(_) | Op::Flush => {}
        }
        if out.len() >= n {
            break;
        }
    }
    out
}

fn wire(line: &str) -> WireQuery {
    match Request::parse(line) {
        Ok(Some(Request::Query(q))) => q,
        _ => unreachable!("generated count lines parse"),
    }
}

fn conditions(q: &WireQuery) -> Vec<(&str, &str)> {
    q.conditions
        .iter()
        .map(|(c, v)| (c.as_str(), v.as_str()))
        .collect()
}

/// Parse, handle and encode of the workload's own lines through a fresh
/// service (a streaming one on `ingest_mixed`, with four writer lines to
/// each reader line).
fn service_replay(
    workload: Workload,
    inputs: &Inputs,
    publication: &Publication,
    dir: &Path,
    tracer: &mut Tracer,
    next: &mut impl FnMut() -> u64,
    out: &mut Replay,
) -> Result<(), String> {
    let service = match workload {
        Workload::IngestMixed => {
            let stream = StreamPublisher::open(
                publication.clone(),
                &dir.join("replay-service.rpwal"),
                StreamConfig {
                    max_resident: MAX_RESIDENT,
                    ..StreamConfig::default()
                },
            )
            .map_err(|e| format!("open replay stream: {e}"))?;
            QueryService::streaming(stream, None, ServiceConfig::default())
        }
        _ => QueryService::from_publication(publication, ServiceConfig::default()),
    };
    let mut reads = inputs.stream(workload.queries());
    let mut writes = inputs.stream(Stream::Writer);
    let mut session = SessionStats::default();
    let (mut parse, mut handle, mut encode) = (0u64, 0u64, 0u64);
    let mut by_type: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    let started = Instant::now();
    let mut n = 0;
    while n < CALLS && started.elapsed() < BUDGET {
        let op = if workload == Workload::IngestMixed && n % 5 != 4 {
            writes.next()
        } else {
            reads.next()
        }
        .expect("streams are endless");
        let line = inputs.line(op);
        let id = next();
        let root = tracer.open("replay.request", None, id);
        let (request, parse_ns) =
            tracer.time("protocol.parse", Some(root), id, || Request::parse(&line));
        let Ok(Some(request)) = request else {
            return Err(format!("replayed line does not parse: {line}"));
        };
        let (response, handle_ns) = tracer.time("service.handle", Some(root), id, || {
            service.handle(&request, &mut session)
        });
        let (text, encode_ns) =
            tracer.time("protocol.encode", Some(root), id, || response.encode());
        tracer.close(root);
        if response.is_error() {
            return Err(format!("replayed `{line}` answered `{text}`"));
        }
        parse += parse_ns;
        handle += handle_ns;
        encode += encode_ns;
        let kind = match op {
            Op::Hot(_) | Op::Cold(_) => "count",
            Op::Batch(_) => "batch",
            Op::Insert(_) => "insert",
            Op::Flush => "flush",
        };
        let e = by_type.entry(kind).or_default();
        e.0 += handle_ns;
        e.1 += 1;
        n += 1;
    }
    out.values.insert("protocol.parse_ns", mean(parse, n));
    out.values.insert("service.handle_ns", mean(handle, n));
    out.values.insert("protocol.encode_ns", mean(encode, n));
    out.handle_by_type = by_type
        .into_iter()
        .map(|(k, (ns, c))| (k, mean(ns, c), c))
        .collect();
    Ok(())
}

/// Resolve, counts and prepared batches of the workload's queries.
fn engine_replay(
    workload: Workload,
    inputs: &Inputs,
    publication: &Publication,
    tracer: &mut Tracer,
    next: &mut impl FnMut() -> u64,
    out: &mut Replay,
) -> Result<(), String> {
    let engine = QueryEngine::new(publication);
    let wires = queries(workload, inputs, CALLS);
    let (mut resolve, mut counts) = (0u64, 0u64);
    let mut resolved: Vec<CountQuery> = Vec::with_capacity(wires.len());
    let started = Instant::now();
    for q in &wires {
        if started.elapsed() >= BUDGET {
            break;
        }
        let id = next();
        let root = tracer.open("replay.query", None, id);
        let conds = conditions(q);
        let (query, resolve_ns) = tracer.time("engine.resolve", Some(root), id, || {
            engine.query_from_values(&conds)
        });
        let query = query.map_err(|e| format!("resolve: {e}"))?;
        let (c, counts_ns) = tracer.time("engine.counts", Some(root), id, || engine.counts(&query));
        let c = c.map_err(|e| format!("counts: {e}"))?;
        tracer.close(root);
        std::hint::black_box(c);
        resolve += resolve_ns;
        counts += counts_ns;
        resolved.push(query);
    }
    let mut batch = 0u64;
    let mut batches = 0;
    let started = Instant::now();
    for chunk in resolved.chunks_exact(BATCH_QUERIES) {
        if started.elapsed() >= BUDGET {
            break;
        }
        let id = next();
        let root = tracer.open("engine.batch", None, id);
        let (prepared, prepare_ns) =
            tracer.time("engine.prepare", Some(root), id, || engine.prepare(chunk));
        let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
        let (answers, answer_ns) = tracer.time("engine.answer_batch", Some(root), id, || {
            engine.answer_batch(chunk, &prepared)
        });
        let answers = answers.map_err(|e| format!("answer_batch: {e}"))?;
        batch += prepare_ns + answer_ns;
        tracer.close(root);
        std::hint::black_box(answers);
        batches += 1;
    }
    out.values
        .insert("engine.resolve_ns", mean(resolve, resolved.len()));
    out.values
        .insert("engine.counts_ns", mean(counts, resolved.len()));
    out.values.insert("engine.batch_ns", mean(batch, batches));
    Ok(())
}

/// Open, insert (flushing after every 64) and live queries of a stream over
/// the served artifact, with the library's own WAL/commit/spill
/// instrumentation diffed around it.
fn stream_replay(
    workload: Workload,
    inputs: &Inputs,
    publication: &Publication,
    dir: &Path,
    tracer: &mut Tracer,
    next: &mut impl FnMut() -> u64,
    out: &mut Replay,
) -> Result<(), String> {
    let wal = dir.join("replay.rpwal");
    let before = Scrape::own();
    let base = publication.clone();
    let (stream, open_ns) = tracer.time("stream.open", None, next(), || {
        StreamPublisher::open(
            base,
            &wal,
            StreamConfig {
                max_resident: MAX_RESIDENT,
                ..StreamConfig::default()
            },
        )
    });
    let mut stream = stream.map_err(|e| format!("open replay stream: {e}"))?;
    out.values.insert("stream.open_ms", ms(open_ns));
    let mut insert = 0u64;
    let mut inserts = 0usize;
    let started = Instant::now();
    for op in inputs.stream(Stream::Writer) {
        if inserts >= INSERT_POOL || started.elapsed() >= BUDGET {
            break;
        }
        let id = next();
        match op {
            Op::Flush => {
                tracer
                    .time("stream.flush", None, id, || stream.flush())
                    .0
                    .map_err(|e| format!("flush: {e}"))?;
            }
            _ => {
                let line = inputs.line(op);
                let Ok(Some(Request::Insert(record))) = Request::parse(&line) else {
                    return Err(format!("generated insert does not parse: {line}"));
                };
                let values: Vec<(&str, &str)> = record
                    .fields
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.as_str()))
                    .collect();
                let (inserted, ns) =
                    tracer.time("stream.insert", None, id, || stream.insert_values(&values));
                inserted.map_err(|e| format!("insert: {e}"))?;
                insert += ns;
                inserts += 1;
            }
        }
    }
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    let engine = QueryEngine::new(publication);
    let mut live = 0u64;
    let mut lives = 0usize;
    let started = Instant::now();
    for q in queries(workload, inputs, CALLS) {
        if started.elapsed() >= BUDGET {
            break;
        }
        let query = engine
            .query_from_values(&conditions(&q))
            .map_err(|e| format!("resolve: {e}"))?;
        let (c, ns) = tracer.time("stream.live_query", None, next(), || {
            stream.live_support_observed(&query)
        });
        live += ns;
        lives += 1;
        std::hint::black_box(c);
    }
    out.stream_obs = Scrape::own().since(&before);
    out.values.insert("stream.insert_ns", mean(insert, inserts));
    out.values.insert("stream.live_query_ns", mean(live, lives));
    let wal_bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());
    out.values.insert(
        "wal.bytes_per_insert",
        wal_bytes as f64 / inserts.max(1) as f64,
    );
    Ok(())
}
