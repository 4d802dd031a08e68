//! The unified metrics registry: one registration API for every
//! counter, gauge, and histogram either engine produces.
//!
//! Engine totals (`JobMetrics`), fabric and disk traffic, and the live
//! gauges the watchdog, the flight recorder and `hamr top` read all
//! live here, behind one API, queryable while a job runs:
//!
//! * components register **labeled series** — a metric name plus a
//!   [`Labels`] set drawn from `(job, engine, node, flowlet, edge)` —
//!   and get back cheap atomic handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) they bump from the hot path;
//! * the registry can be **snapshotted at any time** (including
//!   mid-run) into a [`Snapshot`], rendered as Prometheus text for the
//!   embedded `/metrics` endpoint, or diffed against an earlier
//!   snapshot via [`Snapshot::delta`];
//! * [`MetricsRegistry::live_gauges`] is the **gauge-only view** of one
//!   engine's series — what the watchdog reads each epoch and what a
//!   flight record dumps;
//! * registration is **bounded**: past `max_series` distinct label
//!   sets, new registrations return inert handles and are tallied in a
//!   `registry_dropped_series_total` meta-counter instead of growing
//!   without limit.
//!
//! Registering the same `(name, labels)` twice returns handles sharing
//! one cell, so concurrent registration from many worker threads is
//! safe and idempotent.

mod http;
mod snapshot;

pub use http::{http_get, HttpResponse, HttpServer, RouteHandler};
pub use snapshot::{parse_prometheus, HistSample, PromSample, SampleValue, SeriesSample, Snapshot};

use crate::hist::{bucket_of, HIST_BUCKETS};
use crate::{lock, Log2Hist};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The label set every series carries. All dimensions are optional —
/// a cluster-wide counter has none, a per-flowlet task histogram has
/// `job` + `engine` + `flowlet`, a shuffle-edge counter adds `edge`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Labels {
    pub job: Option<String>,
    pub engine: Option<String>,
    pub node: Option<u32>,
    pub flowlet: Option<u32>,
    pub edge: Option<u32>,
}

impl Labels {
    pub fn new() -> Self {
        Labels::default()
    }

    pub fn job(mut self, job: impl Into<String>) -> Self {
        self.job = Some(job.into());
        self
    }

    pub fn engine(mut self, engine: impl Into<String>) -> Self {
        self.engine = Some(engine.into());
        self
    }

    pub fn node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    pub fn flowlet(mut self, flowlet: u32) -> Self {
        self.flowlet = Some(flowlet);
        self
    }

    pub fn edge(mut self, edge: u32) -> Self {
        self.edge = Some(edge);
        self
    }

    /// Label pairs in a fixed render order, escaped values.
    pub(crate) fn pairs(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        if let Some(job) = &self.job {
            out.push(("job", job.clone()));
        }
        if let Some(engine) = &self.engine {
            out.push(("engine", engine.clone()));
        }
        if let Some(node) = self.node {
            out.push(("node", node.to_string()));
        }
        if let Some(flowlet) = self.flowlet {
            out.push(("flowlet", flowlet.to_string()));
        }
        if let Some(edge) = self.edge {
            out.push(("edge", edge.to_string()));
        }
        out
    }
}

/// A monotonically increasing counter handle. Cloning shares the cell;
/// the default handle (also: registry full, kind clash) ignores updates.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A level that goes up and down: queue depth, busy workers, resident
/// bytes. Cloning shares the cell; the default handle is inert (one
/// branch per update). All updates are relaxed atomics — gauges are
/// statistics, not synchronization.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// One gauge series' value at one instant — an element of
/// [`MetricsRegistry::live_gauges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    pub name: String,
    pub labels: Labels,
    pub value: i64,
}

/// Shared atomic cells behind a [`Histogram`] handle: the same log2
/// bucket layout as [`Log2Hist`], updatable through `&self`
/// from many threads.
pub(crate) struct HistogramCells {
    pub(crate) buckets: [AtomicU64; HIST_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A concurrently updatable log2 histogram handle.
#[derive(Clone, Default)]
pub struct Histogram {
    cells: Option<Arc<HistogramCells>>,
}

impl Histogram {
    /// Record one observation. The log2 buckets are unit-agnostic:
    /// microseconds for latency series, bytes for size series.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.cells {
            cells.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Fold a completed [`Log2Hist`] into this series — how
    /// end-of-job per-flowlet latency distributions reach the registry.
    pub fn merge_from(&self, hist: &Log2Hist) {
        if let Some(cells) = &self.cells {
            for (b, n) in hist.bucket_counts().iter().enumerate() {
                if *n > 0 {
                    cells.buckets[b].fetch_add(*n, Ordering::Relaxed);
                }
            }
            cells.count.fetch_add(hist.count(), Ordering::Relaxed);
            cells.sum.fetch_add(hist.sum(), Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.cells
            .as_ref()
            .map(|c| c.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    pub(crate) fn sample(cells: &HistogramCells) -> HistSample {
        HistSample {
            count: cells.count.load(Ordering::Relaxed),
            sum_us: cells.sum.load(Ordering::Relaxed),
            buckets: cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCells>),
}

struct Series {
    name: String,
    labels: Labels,
    cell: Cell,
}

#[derive(Default)]
struct SeriesMap {
    list: Vec<Series>,
    index: HashMap<(String, Labels), usize>,
}

struct RegistryInner {
    max_series: usize,
    series: Mutex<SeriesMap>,
    dropped_series: AtomicU64,
}

/// Cheap, cloneable handle to the unified registry. See the module
/// docs for the full story.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

/// Default bound on distinct series.
pub const DEFAULT_MAX_SERIES: usize = 4096;

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::with_capacity(DEFAULT_MAX_SERIES)
    }

    /// A registry admitting at most `max_series` distinct
    /// `(name, labels)` series; registrations past the bound return
    /// inert handles and bump the `registry_dropped_series_total`
    /// meta-counter.
    pub fn with_capacity(max_series: usize) -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                max_series,
                series: Mutex::new(SeriesMap::default()),
                dropped_series: AtomicU64::new(0),
            }),
        }
    }

    fn register<T>(
        &self,
        name: &str,
        labels: Labels,
        make: impl FnOnce() -> Cell,
        extract: impl Fn(&Cell) -> Option<T>,
    ) -> Option<T> {
        let mut map = lock(&self.inner.series);
        let key = (name.to_string(), labels.clone());
        if let Some(&i) = map.index.get(&key) {
            match extract(&map.list[i].cell) {
                Some(handle) => return Some(handle),
                None => {
                    // Same series name+labels registered as a different
                    // kind: a programming error, tallied not panicked.
                    self.inner.dropped_series.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        if map.list.len() >= self.inner.max_series {
            self.inner.dropped_series.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let cell = make();
        let handle = extract(&cell);
        let slot = map.list.len();
        map.index.insert(key, slot);
        map.list.push(Series {
            name: name.to_string(),
            labels,
            cell,
        });
        handle
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, labels: Labels) -> Counter {
        self.register(
            name,
            labels,
            || Cell::Counter(Arc::new(AtomicU64::new(0))),
            |cell| match cell {
                Cell::Counter(c) => Some(Counter {
                    cell: Some(Arc::clone(c)),
                }),
                _ => None,
            },
        )
        .unwrap_or_default()
    }

    /// Register (or look up) a gauge series. The cell keeps its value
    /// across lookups; a run that wants a fresh level registers through
    /// [`crate::Observe::gauge`].
    pub fn gauge(&self, name: &str, labels: Labels) -> Gauge {
        self.register(
            name,
            labels,
            || Cell::Gauge(Arc::new(AtomicI64::new(0))),
            |cell| match cell {
                Cell::Gauge(c) => Some(Gauge {
                    cell: Some(Arc::clone(c)),
                }),
                _ => None,
            },
        )
        .unwrap_or_default()
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(&self, name: &str, labels: Labels) -> Histogram {
        self.register(
            name,
            labels,
            || Cell::Histogram(Arc::new(HistogramCells::new())),
            |cell| match cell {
                Cell::Histogram(c) => Some(Histogram {
                    cells: Some(Arc::clone(c)),
                }),
                _ => None,
            },
        )
        .unwrap_or_default()
    }

    /// Number of live series.
    pub fn series_count(&self) -> usize {
        lock(&self.inner.series).list.len()
    }

    /// Registrations refused by the cardinality bound (or by a kind
    /// clash on an existing series).
    pub fn dropped_series(&self) -> u64 {
        self.inner.dropped_series.load(Ordering::Relaxed)
    }

    /// Snapshot every series' current value. Safe to call at any time,
    /// including while jobs are running.
    pub fn snapshot(&self) -> Snapshot {
        let map = lock(&self.inner.series);
        let mut series: Vec<SeriesSample> = map
            .list
            .iter()
            .map(|s| SeriesSample {
                name: s.name.clone(),
                labels: s.labels.clone(),
                value: match &s.cell {
                    Cell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(c) => SampleValue::Gauge(c.load(Ordering::Relaxed)),
                    Cell::Histogram(c) => SampleValue::Histogram(Histogram::sample(c)),
                },
            })
            .collect();
        drop(map);
        series.push(SeriesSample {
            name: "registry_dropped_series_total".into(),
            labels: Labels::new(),
            value: SampleValue::Counter(self.dropped_series()),
        });
        Snapshot { series }
    }

    /// The gauge-only view: the current value of every *live* gauge
    /// labeled `engine`, in registration order — the levels components
    /// move while a job runs. Gauges carrying a `job` label are facts
    /// published at a job's end, not levels, and are left out.
    pub fn live_gauges(&self, engine: &str) -> Vec<GaugeSample> {
        let map = lock(&self.inner.series);
        map.list
            .iter()
            .filter(|s| s.labels.engine.as_deref() == Some(engine) && s.labels.job.is_none())
            .filter_map(|s| match &s.cell {
                Cell::Gauge(c) => Some(GaugeSample {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    value: c.load(Ordering::Relaxed),
                }),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("series", &self.series_count())
            .field("dropped", &self.dropped_series())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_one_cell() {
        let r = MetricsRegistry::new();
        let labels = Labels::new().job("wc").engine("hamr").node(1);
        let a = r.counter("records_total", labels.clone());
        let b = r.counter("records_total", labels.clone());
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(b.get(), 7);
        assert_eq!(r.series_count(), 1);
        // A different label set is a different series.
        let c = r.counter("records_total", Labels::new().node(2));
        c.inc();
        assert_eq!(a.get(), 7);
        assert_eq!(r.series_count(), 2);
    }

    #[test]
    fn kind_clash_returns_inert_handle() {
        let r = MetricsRegistry::new();
        let c = r.counter("x", Labels::new());
        c.inc();
        let g = r.gauge("x", Labels::new());
        g.set(99);
        assert_eq!(g.get(), 0, "clashing gauge is inert");
        assert_eq!(c.get(), 1, "original counter untouched");
        assert_eq!(r.dropped_series(), 1);
    }

    #[test]
    fn cardinality_bound_drops_new_series() {
        let r = MetricsRegistry::with_capacity(2);
        let a = r.counter("a", Labels::new());
        let _b = r.gauge("b", Labels::new());
        let c = r.counter("c", Labels::new());
        c.add(5);
        assert!(!c.enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(r.series_count(), 2);
        assert_eq!(r.dropped_series(), 1);
        // Existing series still register fine at the bound.
        let a2 = r.counter("a", Labels::new());
        a2.inc();
        assert_eq!(a.get(), 1);
        // The meta-counter is visible in snapshots.
        let snap = r.snapshot();
        assert!(matches!(
            snap.get("registry_dropped_series_total", &Labels::new()),
            Some(SampleValue::Counter(1))
        ));
    }

    #[test]
    fn histogram_records_and_merges() {
        let r = MetricsRegistry::new();
        let h = r.histogram("task_latency_us", Labels::new().flowlet(1));
        h.record(100);
        h.record(3000);
        let mut lat = Log2Hist::new();
        lat.record(7);
        h.merge_from(&lat);
        assert_eq!(h.count(), 3);
        let snap = r.snapshot();
        match snap.get("task_latency_us", &Labels::new().flowlet(1)) {
            Some(SampleValue::Histogram(hs)) => {
                assert_eq!(hs.count, 3);
                assert_eq!(hs.sum_us, 3107);
                assert_eq!(hs.buckets.iter().sum::<u64>(), 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// What a caller does with snapshots taken at job boundaries (the
    /// benchmark harness attributes its counters this way): each minus
    /// its neighbour is that job's share. A registry that started over
    /// in between went backwards, and reads as its current value rather
    /// than as zero.
    #[test]
    fn epoch_deltas_subtract_neighbors() {
        let r = MetricsRegistry::new();
        let c = r.counter("shuffled_bytes_total", Labels::new().job("pr"));
        let g = r.gauge("depth", Labels::new());
        let h = r.histogram("lat_us", Labels::new());
        c.add(10);
        g.set(4);
        h.record(100);
        h.record(200);
        let iter0 = r.snapshot();
        c.add(25);
        g.set(2);
        let iter1 = r.snapshot();
        let delta = iter1.delta(&iter0);
        assert_eq!(delta.counter_total("shuffled_bytes_total"), 25);
        // Gauges pass through their epoch-end value.
        assert!(matches!(
            delta.get("depth", &Labels::new()),
            Some(SampleValue::Gauge(2))
        ));

        let restarted = MetricsRegistry::new();
        restarted
            .counter("shuffled_bytes_total", Labels::new().job("pr"))
            .add(7);
        restarted.histogram("lat_us", Labels::new()).record(5);
        let delta = restarted.snapshot().delta(&iter1);
        assert_eq!(delta.counter_total("shuffled_bytes_total"), 7);
        assert!(matches!(
            delta.get("lat_us", &Labels::new()),
            Some(SampleValue::Histogram(hs)) if hs.count == 1 && hs.sum_us == 5
        ));
    }
}
