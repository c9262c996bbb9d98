//! Named counters, gauges, histograms and span summaries behind a
//! sharded registry.
//!
//! [`Registry`] is the canonical implementation of
//! `cfd_model::progress::MetricsSink`: instrumented layers emit through
//! the trait (usually via `Control::metric_add`, `Control::span` and
//! friends) and never see this type. Internally metrics are striped
//! over a fixed set of mutex-guarded shards by an FNV hash of the
//! metric *name*, so two threads bumping different counters rarely
//! share a lock; names are `&'static str`, so registration never
//! allocates for the key.
//!
//! Spans are folded into a per-name [`SpanSummary`] the moment they
//! close (count, total, max, distinct threads), so nothing is buffered
//! and nothing is lost however long the run. A registry keeps spans
//! only once [`Registry::enable_spans`] has been called; until then
//! `Control::span` reads no clock and records nothing.
//!
//! [`Registry::snapshot`] freezes everything into a [`MetricsSnapshot`]
//! — plain owned data, sorted by name — which serializes through
//! `cfd_model::json` ([`MetricsSnapshot::to_json`]) and parses back
//! ([`MetricsSnapshot::from_json`]). Values survive the round trip
//! exactly up to 2^53 (the JSON number is an `f64`); the CFD workloads'
//! counters sit far below that.

use cfd_model::json::Json;
use cfd_model::progress::MetricsSink;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SHARDS: usize = 8;

/// Histogram bucket count: bucket 0 holds value 0, bucket *i* ≥ 1 holds
/// values with bit length *i*, i.e. the range `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// The power-of-two bucket index for `value`.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

#[derive(Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }
}

/// Running aggregate of every closed span of one name.
#[derive(Default)]
struct SpanStat {
    count: u64,
    total: Duration,
    max: Duration,
    /// Distinct recording threads, as dense [`thread_id`]s.
    threads: Vec<u32>,
}

impl SpanStat {
    fn record(&mut self, dur: Duration, thread: u32) {
        self.count += 1;
        self.total += dur;
        self.max = self.max.max(dur);
        if !self.threads.contains(&thread) {
            self.threads.push(thread);
        }
    }
}

/// Dense process-local thread ids (the OS id is opaque and wide).
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

#[derive(Default)]
struct Shard {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
    spans: Vec<(&'static str, SpanStat)>,
}

fn slot<'v, V>(entries: &'v mut Vec<(&'static str, V)>, name: &'static str, init: V) -> &'v mut V {
    // Linear probe: a run touches a few dozen distinct names per shard
    // at most, and the probe is over a dense Vec — cheaper than hashing
    // into a map and allocation-free after warmup.
    match entries.iter().position(|(n, _)| *n == name) {
        Some(i) => &mut entries[i].1,
        None => {
            entries.push((name, init));
            &mut entries.last_mut().unwrap().1
        }
    }
}

/// FNV-1a over the name bytes — stable, fast, good enough to spread a
/// handful of metric names over [`SHARDS`] stripes.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h as usize % SHARDS
}

/// A thread-safe registry of named counters, gauges, histograms and
/// (once [`enable_spans`](Registry::enable_spans) is called) span
/// summaries.
///
/// ```
/// use cfd_model::progress::MetricsSink;
/// let reg = cfd_obs::Registry::new();
/// reg.add("validate.rows_scanned", 3);
/// reg.add("validate.rows_scanned", 4);
/// reg.observe("stream.batch_rows", 100);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("validate.rows_scanned"), Some(7));
/// assert_eq!(snap.histogram("stream.batch_rows").unwrap().count, 1);
/// ```
pub struct Registry {
    shards: [Mutex<Shard>; SHARDS],
    spans: AtomicBool,
}

impl Registry {
    /// An empty registry; spans are off.
    pub fn new() -> Registry {
        Registry {
            shards: [const { Mutex::new(Shard::new_const()) }; SHARDS],
            spans: AtomicBool::new(false),
        }
    }

    /// Starts keeping the spans closed through this registry (the
    /// `--trace` switch). Spans opened before the call record nothing.
    ///
    /// ```
    /// use cfd_model::progress::Control;
    /// let reg = cfd_obs::Registry::new();
    /// reg.enable_spans();
    /// let ctrl = Control::default().metrics_with(&reg);
    /// for _ in 0..3 {
    ///     let _sp = ctrl.span("validate.family_scan");
    /// }
    /// let sums = reg.span_summaries();
    /// assert_eq!((sums[0].name, sums[0].count, sums[0].threads), ("validate.family_scan", 3, 1));
    /// ```
    pub fn enable_spans(&self) {
        self.spans.store(true, Ordering::Relaxed);
    }

    /// Every span name recorded so far, heaviest first (descending
    /// total time, name as tiebreak so the order is deterministic).
    pub fn span_summaries(&self) -> Vec<SpanSummary> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("a span recorder panicked");
            for (name, st) in &shard.spans {
                out.push(SpanSummary {
                    name,
                    count: st.count,
                    total_us: st.total.as_micros() as u64,
                    max_us: st.max.as_micros() as u64,
                    threads: st.threads.len() as u32,
                });
            }
        }
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(b.name)));
        out
    }

    /// Freezes current values into an owned, name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            for &(n, v) in &s.counters {
                snap.counters.push((n.to_string(), v));
            }
            for &(n, v) in &s.gauges {
                snap.gauges.push((n.to_string(), v));
            }
            for (n, h) in &s.histograms {
                snap.histograms.push((
                    n.to_string(),
                    HistogramSnapshot {
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0 } else { h.min },
                        max: h.max,
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|&(_, &c)| c > 0)
                            .map(|(i, &c)| (i as u32, c))
                            .collect(),
                    },
                ));
            }
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

impl Shard {
    const fn new_const() -> Shard {
        Shard {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl MetricsSink for Registry {
    fn add(&self, name: &'static str, delta: u64) {
        let mut s = self.shards[shard_of(name)].lock().unwrap();
        *slot(&mut s.counters, name, 0) += delta;
    }

    fn set_gauge(&self, name: &'static str, value: u64) {
        let mut s = self.shards[shard_of(name)].lock().unwrap();
        *slot(&mut s.gauges, name, 0) = value;
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut s = self.shards[shard_of(name)].lock().unwrap();
        slot(&mut s.histograms, name, Histogram::new()).observe(value);
    }

    fn spans_enabled(&self) -> bool {
        self.spans.load(Ordering::Relaxed)
    }

    fn record_span(&self, name: &'static str, _start: Instant, dur: Duration) {
        let thread = thread_id();
        let mut s = self.shards[shard_of(name)]
            .lock()
            .expect("a span recorder panicked");
        slot(&mut s.spans, name, SpanStat::default()).record(dur, thread);
    }
}

/// Aggregate of every closed span sharing a name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Number of closed spans.
    pub count: u64,
    /// Sum of durations, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
    /// Distinct threads that closed this span.
    pub threads: u32,
}

/// Frozen state of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty power-of-two buckets as `(bucket_index, count)`;
    /// bucket 0 is the value 0, bucket *i* ≥ 1 covers `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

/// Frozen state of a [`Registry`]: every metric, sorted by name.
///
/// Counters and gauges whose emission is deterministic (rows scanned,
/// groups built, batch deltas) are identical across thread counts;
/// traffic-shaped counters (store evictions under a byte budget racing
/// across workers) can legitimately differ — DESIGN.md §10 marks which
/// are which.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Accumulating counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, u64)>,
    /// Value distributions.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Accumulates `other`: counters add, gauges take `other`'s value,
    /// histograms merge counts/sums/extrema/buckets. Used to combine
    /// per-worker registries when a caller runs one per thread.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (n, v) in &other.counters {
            match self.counters.iter().position(|(sn, _)| sn == n) {
                Some(i) => self.counters[i].1 += v,
                None => self.counters.push((n.clone(), *v)),
            }
        }
        for (n, v) in &other.gauges {
            match self.gauges.iter().position(|(sn, _)| sn == n) {
                Some(i) => self.gauges[i].1 = *v,
                None => self.gauges.push((n.clone(), *v)),
            }
        }
        for (n, h) in &other.histograms {
            match self.histograms.iter().position(|(sn, _)| sn == n) {
                Some(i) => {
                    let mine = &mut self.histograms[i].1;
                    let merged_min = if mine.count == 0 {
                        h.min
                    } else if h.count == 0 {
                        mine.min
                    } else {
                        mine.min.min(h.min)
                    };
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = merged_min;
                    mine.max = mine.max.max(h.max);
                    for &(b, c) in &h.buckets {
                        match mine.buckets.iter().position(|&(mb, _)| mb == b) {
                            Some(j) => mine.buckets[j].1 += c,
                            None => mine.buckets.push((b, c)),
                        }
                    }
                    mine.buckets.sort_unstable_by_key(|&(b, _)| b);
                }
                None => self.histograms.push((n.clone(), h.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Serializes through `cfd_model::json`. Shape:
    ///
    /// ```json
    /// {"counters":{"a":1},"gauges":{"g":2},
    ///  "histograms":{"h":{"count":1,"sum":4,"min":4,"max":4,"buckets":[[3,1]]}}}
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::from(*v))),
                ),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(n, v)| (n.clone(), Json::from(*v)))),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(n, h)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            ("min", Json::from(h.min)),
                            ("max", Json::from(h.max)),
                            (
                                "buckets",
                                Json::arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(b, c)| Json::arr([Json::from(b), Json::from(c)])),
                                ),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(doc: &Json) -> Option<MetricsSnapshot> {
        fn as_u64(j: &Json) -> Option<u64> {
            let n = j.as_f64()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= 9.0e15).then_some(n as u64)
        }
        fn pairs(j: &Json) -> Option<&[(String, Json)]> {
            match j {
                Json::Obj(p) => Some(p),
                _ => None,
            }
        }
        let mut snap = MetricsSnapshot::default();
        for (n, v) in pairs(doc.get("counters")?)? {
            snap.counters.push((n.clone(), as_u64(v)?));
        }
        for (n, v) in pairs(doc.get("gauges")?)? {
            snap.gauges.push((n.clone(), as_u64(v)?));
        }
        for (n, h) in pairs(doc.get("histograms")?)? {
            let mut buckets = Vec::new();
            for pair in h.get("buckets")?.as_array()? {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return None;
                }
                buckets.push((as_u64(&pair[0])? as u32, as_u64(&pair[1])?));
            }
            snap.histograms.push((
                n.clone(),
                HistogramSnapshot {
                    count: as_u64(h.get("count")?)?,
                    sum: as_u64(h.get("sum")?)?,
                    min: as_u64(h.get("min")?)?,
                    max: as_u64(h.get("max")?)?,
                    buckets,
                },
            ));
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::progress::Control;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let reg = Registry::new();
        reg.add("c", 1);
        reg.add("c", 41);
        reg.add("other", 5);
        reg.set_gauge("g", 10);
        reg.set_gauge("g", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(42));
        assert_eq!(snap.counter("other"), Some(5));
        assert_eq!(snap.counter("absent"), None);
        assert_eq!(snap.gauge("g"), Some(3));
    }

    #[test]
    fn histogram_tracks_extrema_and_buckets() {
        let reg = Registry::new();
        for v in [0, 1, 5, 5, 700] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 711);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 700);
        // 0 → bucket 0; 1 → bucket 1; 5,5 → bucket 3; 700 → bucket 10
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (10, 1)]);
    }

    #[test]
    fn concurrent_adds_merge_into_one_counter() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.add("hot", 1);
                        reg.observe("dist", 2);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hot"), Some(4000));
        assert_eq!(snap.histogram("dist").unwrap().count, 4000);
        assert_eq!(snap.histogram("dist").unwrap().sum, 8000);
    }

    #[test]
    fn concurrent_spans_are_summarized_losslessly() {
        // 40,000 closes of one name: more than any bounded buffer of
        // the old design held, and every one must be counted
        let reg = Registry::new();
        reg.enable_spans();
        let ctrl = Control::default().metrics_with(&reg);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        let _sp = ctrl.span("partition.refine");
                    }
                });
            }
        });
        let sums = reg.span_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].name, "partition.refine");
        assert_eq!(sums[0].count, 40_000);
        assert_eq!(sums[0].threads, 4);
        assert!(sums[0].total_us >= sums[0].max_us);
        // spans stay out of the metrics snapshot
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn span_summaries_order_heaviest_first() {
        let reg = Registry::new();
        reg.enable_spans();
        let t = Instant::now();
        reg.record_span("b", t, Duration::from_micros(5));
        reg.record_span("a", t, Duration::from_micros(2));
        reg.record_span("a", t, Duration::from_micros(9));
        reg.record_span("c", t, Duration::from_micros(11));
        let sums = reg.span_summaries();
        let names: Vec<&str> = sums.iter().map(|s| s.name).collect();
        // a and c tie at 11us: the name breaks the tie
        assert_eq!(names, ["a", "c", "b"]);
        assert_eq!(
            (sums[0].count, sums[0].total_us, sums[0].max_us),
            (2, 11, 9)
        );
    }

    #[test]
    fn spans_are_off_until_enabled() {
        let reg = Registry::new();
        let ctrl = Control::default().metrics_with(&reg);
        {
            let _sp = ctrl.span("early");
        }
        assert!(reg.span_summaries().is_empty());
        reg.enable_spans();
        {
            let _sp = ctrl.span("late");
        }
        let names: Vec<&str> = reg.span_summaries().iter().map(|s| s.name).collect();
        assert_eq!(names, ["late"]);
    }

    #[test]
    fn snapshots_are_name_sorted() {
        let reg = Registry::new();
        for name in ["zeta", "alpha", "mid"] {
            reg.add(name, 1);
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn merge_adds_counters_and_combines_histograms() {
        let a_reg = Registry::new();
        a_reg.add("c", 1);
        a_reg.observe("h", 4);
        let b_reg = Registry::new();
        b_reg.add("c", 2);
        b_reg.add("only_b", 7);
        b_reg.set_gauge("g", 9);
        b_reg.observe("h", 1);
        let mut a = a_reg.snapshot();
        a.merge(&b_reg.snapshot());
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.counter("only_b"), Some(7));
        assert_eq!(a.gauge("g"), Some(9));
        let h = a.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 5, 1, 4));
        assert_eq!(h.buckets, vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn json_round_trip_exact() {
        let reg = Registry::new();
        reg.add("validate.rows_scanned", 123_456);
        reg.set_gauge("store.bytes", 1 << 20);
        reg.observe("stream.batch_rows", 0);
        reg.observe("stream.batch_rows", 512);
        let snap = reg.snapshot();
        let doc = snap.to_json();
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(MetricsSnapshot::from_json(&parsed), Some(snap));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            r#"{}"#,
            r#"{"counters":{},"gauges":{}}"#,
            r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":1.5},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1}}}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(MetricsSnapshot::from_json(&doc).is_none(), "{bad}");
        }
    }
}
