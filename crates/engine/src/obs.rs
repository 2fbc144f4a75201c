//! Process-wide observability: counters, log₂-bucketed latency
//! histograms, scope-timing spans, and a bounded ring buffer of recent
//! structured trace events.
//!
//! Every metric is a closed id: [`Counter`], [`Hist`] and trace [`Event`]
//! are declared once below, in sorted wire order, with their wire names.
//! The [`Registry`] holds fixed arrays indexed by id, so recording is an
//! array index plus relaxed atomics, and a misspelt metric is a compile
//! error rather than a lookup miss.
//!
//! The subsystem is dependency-free and lock-free on the hot path: counters
//! and histogram buckets are plain [`AtomicU64`]s, and only the trace ring
//! takes a (leaf-only, never nested) mutex. Production code uses the
//! process-global registry returned by [`global`], while tests construct
//! private registries with [`Registry::with_clock`] and a [`MockClock`] for
//! deterministic timings.
//!
//! # Contracts
//!
//! Two invariants are load-bearing and enforced elsewhere in the workspace:
//!
//! * **Zero byte impact.** Instrumentation never changes the response bytes
//!   of any pre-existing protocol verb. Counters and histograms are only
//!   *read* by the rp/5 `metrics` / `trace` verbs; no other encoder consults
//!   them. The transcript-equivalence suite replays full sessions with
//!   observability enabled and disabled and asserts byte-identical output.
//! * **Clock routing.** All production time reads go through the [`Clock`]
//!   trait (via [`Registry::now_ns`]); raw `Instant::now` / `SystemTime::now`
//!   calls outside this module are rejected by the `rp-analyze` `obs-clock`
//!   rule. This keeps every latency measurement mockable and keeps wall-clock
//!   nondeterminism quarantined in one file.
//!
//! # Cost model
//!
//! Per-request stage timings (`service.parse` / `service.execute` /
//! `service.handle`, `service.cache_lookup`, `serve.encode`, `wal.append`)
//! are sampled 1-in-[`SAMPLE_EVERY`] via a per-histogram tick counter
//! ([`Registry::sampled_start`] then [`Registry::record_since`]) so the
//! steady-state overhead on the serving hot path stays within a few
//! percent; the first event at each site is always sampled, so one request
//! is enough to make every driven histogram non-empty. Expensive,
//! infrequent operations (WAL `sync_data`, replay, spill page I/O, whole
//! sessions) are timed on every occurrence.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ histogram buckets. Bucket 0 holds exact zeros; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`; the last bucket absorbs
/// everything from `2^62` up.
const BUCKET_COUNT: usize = 64;

/// Sampled instrumentation sites record one event in every `SAMPLE_EVERY`
/// (the tick counter starts at zero, so the first event is always recorded).
pub const SAMPLE_EVERY: u64 = 8;

/// Default capacity of the trace ring buffer (`serve --trace-buffer N`
/// overrides it at startup).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Declares each closed id enum once, its variants listed in sorted wire
/// order with their wire names, and generates `ALL` and `name()`.
macro_rules! obs_ids {
    ($($(#[doc = $doc:literal])+ $ty:ident { $($id:ident => $name:literal,)+ })+) => {$(
        $(#[doc = $doc])+
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $(#[doc = concat!("`", $name, "`")] $id,)+
        }

        impl $ty {
            /// Every id in sorted wire order; `id as usize` is its index.
            pub const ALL: [$ty; [$($ty::$id),+].len()] = [$($ty::$id),+];

            /// The id's wire name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$id => $name,)+
                }
            }
        }
    )+};
}

obs_ids! {
    /// A registry counter.
    Counter {
        CatalogReload => "catalog.reload",
        CatalogRouteFast => "catalog.route_fast",
        CatalogRouteSlow => "catalog.route_slow",
        CatalogSeal => "catalog.seal",
        FaultInjected => "fault.injected",
        ServeSessionsClosed => "serve.sessions_closed",
        ServeSessionsOpened => "serve.sessions_opened",
        ServerBusyRefused => "server.busy_refused",
        StreamDegraded => "stream.degraded",
        StreamReplayedEvents => "stream.replayed_events",
        StreamRepublish => "stream.republish",
    }
    /// A registry histogram. Values are nanoseconds except
    /// `commit.batch_events` (events per commit batch).
    Hist {
        CommitBatchEvents => "commit.batch_events",
        ServeEncode => "serve.encode",
        ServeRequest => "serve.request",
        ServeSession => "serve.session",
        ServiceCacheLookup => "service.cache_lookup",
        ServiceExecute => "service.execute",
        ServiceHandle => "service.handle",
        ServiceParse => "service.parse",
        SpillPageRead => "spill.page_read",
        SpillPageWrite => "spill.page_write",
        StreamReplay => "stream.replay",
        WalAppend => "wal.append",
        WalSync => "wal.sync",
    }
    /// A trace-ring event; its name is the label the `trace` verb renders.
    Event {
        CacheHit => "cache.hit",
        CacheMiss => "cache.miss",
        CatalogReload => "catalog.reload",
        CatalogSeal => "catalog.seal",
        CommitFlush => "commit.flush",
        FaultInjected => "fault.injected",
        SessionClose => "session.close",
        SessionOpen => "session.open",
        StreamDegraded => "stream.degraded",
        StreamReplay => "stream.replay",
        StreamRepublish => "stream.republish",
    }
}

/// A monotonic nanosecond clock. Implementations must be cheap: `now_ns` sits
/// on every span and sampled stage timing.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin. Must never decrease.
    fn now_ns(&self) -> u64;
}

/// Production clock: nanoseconds since the clock was constructed, measured
/// with the OS monotonic clock. This is the only place in the workspace
/// (outside tests) allowed to touch `Instant` directly.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of uptime; saturate rather than
        // wrap if something absurd happens.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Deterministic test clock: time advances only when the test says so.
#[derive(Default)]
pub struct MockClock {
    now: AtomicU64,
}

impl MockClock {
    /// A mock clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// Map a value to its log₂ bucket index (see [`BUCKET_COUNT`]).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (BUCKET_COUNT - v.leading_zeros() as usize).min(BUCKET_COUNT - 1)
    }
}

/// Largest value a bucket can hold (before clamping to the observed max).
fn bucket_ceiling(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= BUCKET_COUNT - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free log₂-bucketed histogram. Quantiles are derived from the
/// bucket vector: a reported pXX is the ceiling of the bucket containing the
/// rank-⌈XX% · count⌉ observation, clamped to the exact observed maximum, so
/// it is an upper bound tight to one power of two.
struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    max: AtomicU64,
    tick: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Deterministic 1-in-[`SAMPLE_EVERY`] sampling decision, advancing this
    /// histogram's private tick. The first call returns `true`.
    fn tick_sampled(&self) -> bool {
        self.tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
    }

    /// Snapshot counts and derived quantiles. Concurrent recording makes the
    /// snapshot approximate (never torn per-bucket, but buckets are read one
    /// by one); that is fine for an exposition surface.
    fn snapshot(&self) -> HistogramSummary {
        let mut buckets = [0u64; BUCKET_COUNT];
        let mut count: u64 = 0;
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
            count = count.saturating_add(*slot);
        }
        let max = self.max.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(&buckets, count, max, 50),
            p90: quantile(&buckets, count, max, 90),
            p99: quantile(&buckets, count, max, 99),
        }
    }
}

/// Upper-bound value for the `percent`-th percentile of a bucket vector.
fn quantile(buckets: &[u64; BUCKET_COUNT], count: u64, max: u64, percent: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    // rank = ceil(count * percent / 100), at least 1; u128 avoids overflow.
    let rank = ((u128::from(count) * u128::from(percent)).div_ceil(100)).max(1);
    let mut seen: u128 = 0;
    for (index, &n) in buckets.iter().enumerate() {
        seen += u128::from(n);
        if seen >= rank {
            return bucket_ceiling(index).min(max);
        }
    }
    max
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations (for deriving the mean).
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Upper bound of the median bucket, clamped to `max`.
    pub p50: u64,
    /// Upper bound of the 90th-percentile bucket, clamped to `max`.
    pub p90: u64,
    /// Upper bound of the 99th-percentile bucket, clamped to `max`.
    pub p99: u64,
}

/// One entry in the trace ring: a monotonically increasing sequence number
/// and the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the session-wide event stream (never reused).
    pub seq: u64,
    /// What happened, e.g. [`Event::SessionOpen`].
    pub event: Event,
}

struct TraceBuf {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    capacity: usize,
}

/// Bounded ring buffer of recent structured events. Pushes take a leaf-only
/// mutex; the lock is never held across any other lock acquisition.
struct TraceLog {
    inner: Mutex<TraceBuf>,
}

impl TraceLog {
    /// An empty ring with the given capacity (0 disables recording).
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(TraceBuf {
                events: VecDeque::new(),
                next_seq: 0,
                capacity,
            }),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        // A panic while holding this leaf lock cannot corrupt the ring
        // (pushes are single VecDeque ops), so recover from poisoning.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Append an event, evicting the oldest when full.
    fn push(&self, event: Event) {
        let mut buf = self.locked();
        if buf.capacity == 0 {
            return;
        }
        let seq = buf.next_seq;
        buf.next_seq += 1;
        buf.events.push_back(TraceEvent { seq, event });
        while buf.events.len() > buf.capacity {
            buf.events.pop_front();
        }
    }

    /// The most recent `n` events, oldest first.
    fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let buf = self.locked();
        let skip = buf.events.len().saturating_sub(n);
        buf.events.iter().skip(skip).copied().collect()
    }

    /// Resize the ring, evicting oldest entries if it shrinks.
    fn set_capacity(&self, capacity: usize) {
        let mut buf = self.locked();
        buf.capacity = capacity;
        while buf.events.len() > capacity {
            buf.events.pop_front();
        }
    }
}

/// A scope timer: created by [`Registry::span`], records the elapsed
/// nanoseconds into its histogram when dropped. Inert when observability is
/// disabled. Bind it to a named variable (`let _span = ...;`), not `_`,
/// or it drops immediately.
pub struct Span<'a> {
    hist: Option<&'a Histogram>,
    clock: &'a dyn Clock,
    start: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(hist) = self.hist {
            hist.record(self.clock.now_ns().saturating_sub(self.start));
        }
    }
}

/// The registry: one counter per [`Counter`] and one histogram per
/// [`Hist`], indexed by id, plus a trace ring of [`Event`]s, an injectable
/// clock, and a global enable switch. Exposition order is the ids' sorted
/// wire order, which is what the rp/5 `metrics` verb renders.
pub struct Registry {
    clock: Arc<dyn Clock>,
    enabled: AtomicBool,
    counters: [AtomicU64; Counter::ALL.len()],
    histograms: [Histogram; Hist::ALL.len()],
    trace: TraceLog,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry on the production [`MonotonicClock`], enabled, with the
    /// default trace capacity.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an injected clock (tests pass a [`MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            enabled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::new()),
            trace: TraceLog::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// Whether instrumentation records anything. The `metrics` / `trace`
    /// verbs still answer while disabled; they just see frozen values.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the global enable switch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Read the registry clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Increment a counter by one (no-op while disabled).
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increment a counter by `n` (no-op while disabled).
    pub fn add(&self, counter: Counter, n: u64) {
        if self.enabled() {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one histogram observation (no-op while disabled).
    pub fn record(&self, hist: Hist, v: u64) {
        if self.enabled() {
            self.histograms[hist as usize].record(v);
        }
    }

    /// Start an always-on scope timer for `hist`; the returned [`Span`]
    /// records on drop. Inert while disabled.
    pub fn span(&self, hist: Hist) -> Span<'_> {
        let enabled = self.enabled();
        Span {
            hist: enabled.then(|| &self.histograms[hist as usize]),
            clock: self.clock.as_ref(),
            start: if enabled { self.clock.now_ns() } else { 0 },
        }
    }

    /// Sampled stage timing: returns `Some(start_ns)` on the sampled
    /// 1-in-[`SAMPLE_EVERY`] ticks of `hist`, `None` otherwise (and always
    /// while disabled). Pair with [`Registry::record_since`].
    pub fn sampled_start(&self, hist: Hist) -> Option<u64> {
        (self.enabled() && self.histograms[hist as usize].tick_sampled()).then(|| self.now_ns())
    }

    /// Record the time elapsed since `start_ns` into `hist` and return the
    /// clock reading it ended at, so consecutive stages share boundaries.
    pub fn record_since(&self, hist: Hist, start_ns: u64) -> u64 {
        let now = self.now_ns();
        self.record(hist, now.saturating_sub(start_ns));
        now
    }

    /// Append a trace event (no-op while disabled).
    pub fn trace(&self, event: Event) {
        if self.enabled() {
            self.trace.push(event);
        }
    }

    /// The most recent `n` trace events, oldest first.
    pub fn trace_recent(&self, n: usize) -> Vec<TraceEvent> {
        self.trace.recent(n)
    }

    /// Resize the trace ring (`serve --trace-buffer N`).
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// One counter's current value.
    pub(crate) fn value(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// One histogram's current summary.
    pub(crate) fn summary(&self, hist: Hist) -> HistogramSummary {
        self.histograms[hist as usize].snapshot()
    }

    /// All counters in sorted name order.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .into_iter()
            .map(|c| (c.name(), self.value(c)))
            .collect()
    }

    /// All histogram summaries in sorted name order.
    pub fn histogram_summaries(&self) -> Vec<(&'static str, HistogramSummary)> {
        Hist::ALL
            .into_iter()
            .map(|h| (h.name(), self.summary(h)))
            .collect()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry (created on first use, on the production
/// monotonic clock). All engine instrumentation routes through this.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mock_registry() -> (Arc<MockClock>, Registry) {
        let clock = Arc::new(MockClock::new());
        let registry = Registry::with_clock(clock.clone());
        (clock, registry)
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Golden boundary cases: (value, bucket index).
        let cases: &[(u64, usize)] = &[
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            (u64::MAX, 63),
            (1u64 << 62, 63),
            ((1u64 << 62) - 1, 62),
        ];
        for &(v, want) in cases {
            assert_eq!(bucket_index(v), want, "value {v}");
        }
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(1), 1);
        assert_eq!(bucket_ceiling(3), 7);
        assert_eq!(bucket_ceiling(10), 1023);
        assert_eq!(bucket_ceiling(63), u64::MAX);
    }

    #[test]
    fn quantiles_derive_from_buckets() {
        let h = Histogram::new();
        // 100 observations of 5 (bucket 3, ceiling 7) and one slow outlier.
        for _ in 0..100 {
            h.record(5);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1500);
        assert_eq!(s.p50, 7);
        assert_eq!(s.p90, 7);
        // rank(p99) = ceil(101*99/100) = 100 → still the fast bucket.
        assert_eq!(s.p99, 7);
        // A second outlier pushes p99 into the slow bucket, clamped to max.
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.p99, 1000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let h = Histogram::new();
        h.record(100); // bucket 7, ceiling 127
        let s = h.snapshot();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (100, 100, 100, 100));
    }

    #[test]
    fn span_times_scope_under_mock_clock() {
        let (clock, registry) = mock_registry();
        {
            let _span = registry.span(Hist::WalSync);
            clock.advance(1_500);
        }
        {
            let _span = registry.span(Hist::WalSync);
            clock.advance(40);
        }
        let s = registry.summary(Hist::WalSync);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 1_500);
        assert_eq!(s.sum, 1_540);
        // 1500 lands in bucket 11 (ceiling 2047), clamped to the max.
        assert_eq!(s.p99, 1_500);
        assert_eq!(s.p50, 63); // 40 → bucket 6, ceiling 63 (< max, no clamp)
    }

    #[test]
    fn sampling_takes_first_then_every_eighth() {
        let h = Histogram::new();
        let sampled: Vec<bool> = (0..17).map(|_| h.tick_sampled()).collect();
        let taken: Vec<usize> = sampled
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect();
        assert_eq!(taken, vec![0, 8, 16]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let (clock, registry) = mock_registry();
        registry.set_enabled(false);
        registry.inc(Counter::CatalogReload);
        registry.record(Hist::WalSync, 9);
        registry.trace(Event::SessionOpen);
        assert!(registry.sampled_start(Hist::ServiceHandle).is_none());
        {
            let _span = registry.span(Hist::WalSync);
            clock.advance(100);
        }
        assert_eq!(registry.value(Counter::CatalogReload), 0);
        assert_eq!(registry.summary(Hist::WalSync).count, 0);
        assert!(registry.trace_recent(10).is_empty());

        registry.set_enabled(true);
        registry.inc(Counter::CatalogReload);
        assert_eq!(registry.value(Counter::CatalogReload), 1);
    }

    #[test]
    fn id_names_are_sorted_distinct_protocol_tokens() {
        let lists: [Vec<&str>; 3] = [
            Counter::ALL.map(Counter::name).to_vec(),
            Hist::ALL.map(Hist::name).to_vec(),
            Event::ALL.map(Event::name).to_vec(),
        ];
        for names in lists {
            assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
            assert!(
                names.iter().all(|n| crate::protocol::is_token(n)),
                "{names:?}"
            );
        }
    }

    #[test]
    fn trace_ring_wraps_and_keeps_order() {
        let log = TraceLog::new(3);
        for event in &Event::ALL[..5] {
            log.push(*event);
        }
        let events = log.recent(10);
        let got: Vec<(u64, Event)> = events.iter().map(|e| (e.seq, e.event)).collect();
        assert_eq!(
            got,
            vec![(2, Event::ALL[2]), (3, Event::ALL[3]), (4, Event::ALL[4])]
        );
        // A narrower window returns the most recent slice, still oldest first.
        let tail = log.recent(2);
        let got: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn trace_capacity_is_runtime_settable() {
        let log = TraceLog::new(4);
        for _ in 0..4 {
            log.push(Event::CommitFlush);
        }
        log.set_capacity(2);
        let got: Vec<u64> = log.recent(10).iter().map(|e| e.seq).collect();
        assert_eq!(got, vec![2, 3]);
        log.set_capacity(0);
        log.push(Event::CommitFlush);
        assert!(log.recent(10).is_empty());
    }
}
