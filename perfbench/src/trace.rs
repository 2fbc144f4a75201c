//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span carries its name, start, end, parent and request id. Spans are
//! recorded only from the benchmark's own code: around each client request
//! and around each public-function call of the in-process replay. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One finished span (nanoseconds since the tracer's origin).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.counts`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request (or replayed call) this span belongs to.
    pub request: u64,
}

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant span times count from; client threads stamp their
    /// spans against it and hand them over with [`Tracer::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now();
            self.spans[id as usize].end = now;
        }
    }

    /// Times `f` as a span named `name`; returns `f`'s result and the
    /// span's duration in nanoseconds. The duration is taken from the
    /// span's own two clock reads, so it holds none of the recording cost
    /// (which comes after the second read).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        (out, end - start)
    }

    /// Makes room for `n` more spans, so recording inside a timed loop
    /// does not reallocate.
    pub fn reserve(&mut self, n: usize) {
        if self.enabled {
            self.spans.reserve(n);
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals: span count, summed duration and summed self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        // (parent, child) pairs sorted by parent: each span's children are
        // one contiguous run, found by binary search.
        let mut edges: Vec<(SpanId, SpanId)> = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.parent.map(|p| (p, i as SpanId)))
            .collect();
        edges.sort_unstable();
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end.saturating_sub(s.start);
            let first = edges.partition_point(|&(p, _)| p < i as SpanId);
            let mut covered: Vec<(u64, u64)> = edges[first..]
                .iter()
                .take_while(|&&(p, _)| p == i as SpanId)
                .map(|&(_, c)| {
                    let c = &self.spans[c as usize];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut child_ns = 0;
            let mut reach = s.start;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    child_ns += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - child_ns.min(total);
        }
        out
    }

    /// Writes every span as TSV: `id parent request name start_ns end_ns`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Renders a self-time table, largest self time first.
pub fn self_time_table(rows: &BTreeMap<&'static str, SelfTime>) -> String {
    let mut rows: Vec<(&&str, &SelfTime)> = rows.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<24} {:>10} {:>14} {:>14} {:>14}\n",
        "span", "count", "total_ms", "self_ms", "self_mean_ns"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "{:<24} {:>10} {:>14.3} {:>14.3} {:>14.1}\n",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / t.count.max(1) as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record("replay.request", 0, 100, None, 1);
        t.record("protocol.parse", 10, 30, Some(root), 1);
        t.record("service.handle", 20, 60, Some(root), 1);
        t.record("protocol.encode", 90, 120, Some(root), 1);
        let rows = t.self_times();
        // Children cover [10,60) and [90,100): 60 of the root's 100 ns.
        assert_eq!(rows["replay.request"].self_ns, 40);
        assert_eq!(rows["service.handle"].self_ns, 40);
        assert_eq!(rows["protocol.parse"].total_ns, 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 0);
        t.close(id);
        assert_eq!(t.time("y", None, 0, || 7).0, 7);
        assert_eq!(t.len(), 0);
    }
}
