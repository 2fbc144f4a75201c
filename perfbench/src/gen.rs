//! Seeded inputs: the CENSUS-shaped table, the query pools and the request
//! streams each workload sends. Everything here is a pure function of the
//! workload seed; the server only ever sees the generated lines.

use std::collections::BTreeSet;

use rp_datagen::census::{self, CensusConfig};
use rp_engine::protocol::{Request, WireQuery, WireRecord};
use rp_engine::service::DEFAULT_CACHE_ENTRIES;
use rp_table::Table;

use crate::rng::{derive, SplitMix64};

/// Rows of the generated table (the paper's default CENSUS sample).
pub const ROWS: usize = 300_000;
/// The sensitive attribute of the CENSUS schema.
pub const SA: &str = "Occupation";
/// Distinct queries of the hot set; far below the server's answer cache.
pub const HOT_SET: usize = 64;
/// Distinct queries of the cold pool: 64x the default answer cache, so a
/// uniform draw misses the FIFO cache about 98% of the time.
pub const COLD_POOL: usize = 64 * DEFAULT_CACHE_ENTRIES;
/// Queries in one `batch` line.
pub const BATCH_QUERIES: usize = 8;
/// On `count_cold`, every `BATCH_EVERY`-th line is a batch.
pub const BATCH_EVERY: u64 = 8;
/// Distinct census records the `ingest_mixed` writer cycles through. A
/// bounded pool keeps the live group set (and so the cost of a live
/// query) level after the first pass, while still far above
/// `--max-resident`, so nearly every insert touches a spilled group.
pub const INSERT_POOL: usize = 8192;
/// The writer's flush policy: an explicit `flush` after this many
/// acknowledged inserts.
pub const FLUSH_EVERY: u64 = 64;

/// Purposes of the derived sub-seeds.
const DATA: u64 = 1;
const PUBLISH: u64 = 2;
const HOT: u64 = 3;
const COLD: u64 = 4;
const INSERTS: u64 = 5;
const ORDER: u64 = 6;

/// One request line of a workload, by pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A `count` line from the hot set.
    Hot(u32),
    /// A `count` line from the cold pool.
    Cold(u32),
    /// A `batch` line of cold-pool queries.
    Batch([u32; BATCH_QUERIES]),
    /// An `insert` line from the insert pool.
    Insert(u32),
    /// A `flush` line.
    Flush,
}

/// Which request stream to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Uniform hot-set counts (`count_hot*`, and the `ingest_mixed` reader).
    Hot,
    /// Uniform cold-pool counts with every eighth line a batch.
    Cold,
    /// Inserts cycling the insert pool, a flush after every 64.
    Writer,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop hot-set counts: transport, codec and cache lookup.
    CountHot,
    /// The hot set pipelined, 8 requests in flight.
    CountHotPipelined,
    /// Closed-loop cold-pool counts and batches: matching and
    /// reconstruction.
    CountCold,
    /// Inserts and flushes beside paced hot-set reads on a live release.
    IngestMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Self::CountHot,
        Self::CountHotPipelined,
        Self::CountCold,
        Self::IngestMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::CountHot => "count_hot",
            Self::CountHotPipelined => "count_hot_pipelined",
            Self::CountCold => "count_cold",
            Self::IngestMixed => "ingest_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stream its query connection draws from.
    pub fn queries(self) -> Stream {
        match self {
            Self::CountCold => Stream::Cold,
            Self::CountHot | Self::CountHotPipelined | Self::IngestMixed => Stream::Hot,
        }
    }
}

/// An endless, seeded sequence of [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpStream {
    kind: Stream,
    rng: SplitMix64,
    line: u64,
    inserts: u64,
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let k = self.line;
        self.line += 1;
        let pick = |rng: &mut SplitMix64, n: usize| rng.below(n) as u32;
        Some(match self.kind {
            Stream::Hot => Op::Hot(pick(&mut self.rng, HOT_SET)),
            Stream::Cold if k % BATCH_EVERY == BATCH_EVERY - 1 => {
                let mut batch = [0u32; BATCH_QUERIES];
                for q in &mut batch {
                    *q = pick(&mut self.rng, COLD_POOL);
                }
                Op::Batch(batch)
            }
            Stream::Cold => Op::Cold(pick(&mut self.rng, COLD_POOL)),
            Stream::Writer if k % (FLUSH_EVERY + 1) == FLUSH_EVERY => Op::Flush,
            Stream::Writer => {
                let i = self.inserts % INSERT_POOL as u64;
                self.inserts += 1;
                Op::Insert(i as u32)
            }
        })
    }
}

/// Everything a run sends, generated from one seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// The seed `rpctl publish --seed` receives.
    pub publish_seed: u64,
    /// The generated CENSUS-shaped table, written out as the CSV.
    pub table: Table,
    /// The hot set, as `count` lines.
    pub hot: Vec<String>,
    /// The cold pool, as parsed queries and as `count` lines.
    pub cold: Vec<WireQuery>,
    cold_lines: Vec<String>,
    /// The insert pool, as `insert` lines.
    pub inserts: Vec<String>,
}

impl Inputs {
    /// Generates the table and every pool for `seed`.
    pub fn generate(seed: u64) -> Self {
        let table = census::generate(CensusConfig {
            rows: ROWS,
            seed: derive(seed, DATA),
        });
        let hot = draw_queries(&table, HOT_SET, derive(seed, HOT), true)
            .iter()
            .map(|q| Request::Query(q.clone()).encode())
            .collect();
        let cold = draw_queries(&table, COLD_POOL, derive(seed, COLD), false);
        let cold_lines = cold
            .iter()
            .map(|q| Request::Query(q.clone()).encode())
            .collect();
        let pool = census::generate(CensusConfig {
            rows: INSERT_POOL,
            seed: derive(seed, INSERTS),
        });
        let names = pool.schema().names();
        let inserts = (0..pool.rows())
            .map(|row| {
                let values = pool.decode_row(row).expect("row index is in range");
                let fields = names.iter().cloned().zip(values).collect::<Vec<_>>();
                Request::Insert(WireRecord::new(fields)).encode()
            })
            .collect();
        Self {
            seed,
            publish_seed: derive(seed, PUBLISH),
            table,
            hot,
            cold,
            cold_lines,
            inserts,
        }
    }

    /// The request stream of `kind` for this seed.
    pub fn stream(&self, kind: Stream) -> OpStream {
        OpStream {
            kind,
            rng: SplitMix64::new(derive(self.seed, ORDER + kind as u64)),
            line: 0,
            inserts: 0,
        }
    }

    /// The wire line of `op` (no trailing newline).
    pub fn line(&self, op: Op) -> std::borrow::Cow<'_, str> {
        match op {
            Op::Hot(i) => self.hot[i as usize].as_str().into(),
            Op::Cold(i) => self.cold_lines[i as usize].as_str().into(),
            Op::Batch(qs) => {
                Request::Batch(qs.iter().map(|&i| self.cold[i as usize].clone()).collect())
                    .encode()
                    .into()
            }
            Op::Insert(i) => self.inserts[i as usize].as_str().into(),
            Op::Flush => "flush".into(),
        }
    }
}

/// Draws `n` distinct Section-6-shaped count queries: `d ∈ {1,2,3}` NA
/// conditions plus the SA condition, all taken from one random record of
/// `table` (so every query has support in the raw data). Conditions are
/// in schema order, so distinct lines are distinct canonical queries.
///
/// With `balanced`, `d` cycles 1, 2, 3, so every seed's set has the same
/// shape (the hot set: its few queries would otherwise make the per-line
/// cost swing from seed to seed). Otherwise `d` is drawn uniformly; the
/// few distinct one-condition queries then saturate and the pool leans
/// to `d ∈ {2,3}` alike for every seed.
fn draw_queries(table: &Table, n: usize, seed: u64, balanced: bool) -> Vec<WireQuery> {
    let schema = table.schema();
    let sa = schema.attr_id(SA).expect("CENSUS has the SA column");
    let na: Vec<usize> = (0..schema.arity()).filter(|&a| a != sa).collect();
    let mut rng = SplitMix64::new(seed);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let row = rng.below(table.rows());
        let d = 1 + if balanced {
            out.len() % 3
        } else {
            rng.below(3)
        };
        let mut attrs = na.clone();
        for i in 0..d {
            let j = i + rng.below(attrs.len() - i);
            attrs.swap(i, j);
        }
        let mut chosen = attrs[..d].to_vec();
        chosen.sort_unstable();
        chosen.push(sa);
        let conditions: Vec<(String, String)> = chosen
            .iter()
            .map(|&a| {
                let attr = schema.attribute(a);
                let value = &attr.dictionary().values()[table.code(row, a) as usize];
                (attr.name().to_string(), value.clone())
            })
            .collect();
        let query = WireQuery::new(conditions);
        if seen.insert(Request::Query(query.clone()).encode()) {
            out.push(query);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_engine::protocol::is_token;

    fn transcript(inputs: &Inputs, kind: Stream, n: usize) -> String {
        inputs
            .stream(kind)
            .take(n)
            .map(|op| inputs.line(op).into_owned() + "\n")
            .collect()
    }

    #[test]
    fn same_seed_same_streams_and_different_seeds_differ() {
        let a = Inputs::generate(11);
        let b = Inputs::generate(11);
        let c = Inputs::generate(12);
        for kind in [Stream::Hot, Stream::Cold, Stream::Writer] {
            assert_eq!(transcript(&a, kind, 2000), transcript(&b, kind, 2000));
            assert_ne!(transcript(&a, kind, 2000), transcript(&c, kind, 2000));
        }
        assert_eq!(a.publish_seed, b.publish_seed);
        assert_ne!(a.publish_seed, c.publish_seed);
        let mut csv_a = Vec::new();
        let mut csv_c = Vec::new();
        rp_table::csv::write_csv(&a.table, &mut csv_a).unwrap();
        rp_table::csv::write_csv(&c.table, &mut csv_c).unwrap();
        assert_ne!(csv_a, csv_c);
    }

    #[test]
    fn every_generated_value_is_a_protocol_token() {
        let inputs = Inputs::generate(3);
        let mut lines: Vec<String> = inputs.hot.clone();
        lines.extend(inputs.inserts.iter().cloned());
        lines.extend(
            transcript(&inputs, Stream::Cold, 4000)
                .lines()
                .map(str::to_string),
        );
        for line in &lines {
            let body = line.split_once(' ').expect("verb and conditions").1;
            for part in body.split("; ") {
                let part = part.strip_prefix("count ").unwrap_or(part);
                for token in part.split(' ') {
                    let (col, value) = token.split_once('=').expect("COL=VALUE");
                    assert!(is_token(col) && is_token(value), "{token} in {line}");
                }
            }
            assert!(Request::parse(line).unwrap().is_some(), "{line}");
        }
    }

    #[test]
    fn hot_set_fits_the_default_cache() {
        let inputs = Inputs::generate(5);
        let distinct: BTreeSet<&String> = inputs.hot.iter().collect();
        assert_eq!(distinct.len(), HOT_SET);
        const { assert!(HOT_SET <= DEFAULT_CACHE_ENTRIES) };
        let drawn: BTreeSet<String> = inputs
            .stream(Stream::Hot)
            .take(100_000)
            .map(|op| inputs.line(op).into_owned())
            .collect();
        assert!(drawn.len() <= DEFAULT_CACHE_ENTRIES);
    }

    #[test]
    fn cold_pool_is_at_least_32x_the_cache() {
        let inputs = Inputs::generate(5);
        let distinct: BTreeSet<&String> = inputs.cold_lines.iter().collect();
        assert_eq!(distinct.len(), COLD_POOL);
        const { assert!(COLD_POOL >= 32 * DEFAULT_CACHE_ENTRIES) };
    }

    #[test]
    fn writer_flushes_after_every_64_inserts() {
        let inputs = Inputs::generate(1);
        let ops: Vec<Op> = inputs.stream(Stream::Writer).take(200).collect();
        assert_eq!(ops[64], Op::Flush);
        assert_eq!(ops[129], Op::Flush);
        assert_eq!(ops.iter().filter(|o| **o == Op::Flush).count(), 3);
        assert_eq!(ops[65], Op::Insert(64));
    }
}
