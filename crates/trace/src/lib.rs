//! Structured event tracing for the HAMR engine.
//!
//! The engine (and the Hadoop baseline, the simulated fabric and the
//! simulated disks) emit [`TraceEvent`]s through a [`Tracer`] handle.
//! A tracer is either *disabled* — every emit is a single branch on a
//! `None`, so instrumented code costs nothing in normal runs — or bound
//! to a [`TraceSink`] such as [`RingSink`], a bounded ring buffer with
//! one lane per node.
//!
//! Collected events export as Chrome trace-event JSON
//! ([`chrome_trace_json`]), which loads directly into Perfetto /
//! `chrome://tracing` as a per-node, per-worker timeline.
//!
//! [`analyze`] partitions every worker lane's wall time and ranks the
//! flow-control slots that stalled a run; it reads task, stall and
//! ship/ingress events, never a per-bin id. Per-flowlet counts and
//! task latencies are not re-derived from events: the engine publishes
//! them into the [`MetricsRegistry`] (`/metrics`, `hamr top`). Record
//! lineage — which sampled keys crossed which edge — is the statistics
//! plane's ([`stats`]), and `hamr explain` reads it.

pub mod audit;
pub mod causal;
mod chrome;
mod hist;
pub mod journal;
pub mod json;
pub mod registry;
pub mod stats;

pub use audit::{
    Audit, AuditBin, AuditReport, AuditRow, AuditStage, AuditViolation, CombineRow, FlightRecord,
    RecordedEvent, StageCount,
};
pub use causal::{
    analyze, render_attribution, render_stall_edges, Buckets, CausalReport, NodeBuckets, StallEdge,
};
pub use chrome::chrome_trace_json;
pub use hist::{fmt_us, Log2Hist};
pub use journal::{
    read_journal, read_journal_tree, JobRow, JobSpan, Journal, JournalConfig, JournalMode,
    JournalRead, JournalRecord, JournalSlot, StuckEdge, Timeline,
};
pub use registry::{
    http_get, parse_prometheus, Counter, Gauge, GaugeSample, HistSample, Histogram, HttpResponse,
    HttpServer, Labels, MetricsRegistry, PromSample, RouteHandler, SampleValue, SeriesSample,
    Snapshot,
};
pub use stats::{
    EdgeStatsSummary, HopKind, LineageHop, LineageSample, SketchSet, SpaceSaving, StatsMode,
    StatsPlane, StatsSnapshot,
};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Every mutex in this crate guards observability state, and a panic
/// elsewhere must not turn it unreadable: a poisoned lock is taken as is.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// Synthetic worker lanes for events not produced by a worker thread.
/// Real workers use their pool index (0, 1, ...).
pub const WORKER_RUNTIME: u32 = u32::MAX;
/// The network fabric / timer thread.
pub const WORKER_NET: u32 = u32::MAX - 1;
/// The disk model.
pub const WORKER_DISK: u32 = u32::MAX - 2;

/// A worker lane's name wherever a lane is shown: `worker N`, or the
/// synthetic lane's own name.
pub(crate) fn lane_name(worker: u32) -> String {
    match worker {
        WORKER_RUNTIME => "runtime".to_string(),
        WORKER_NET => "net".to_string(),
        WORKER_DISK => "disk".to_string(),
        w => format!("worker {w}"),
    }
}

/// What kind of task a `TaskStart`/`TaskEnd` span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// HAMR loader split.
    LoaderSplit,
    /// HAMR stream-source epoch.
    StreamEpoch,
    /// One bin through a map flowlet.
    MapBin,
    /// One bin folded into partial-reduce accumulators.
    PartialFold,
    /// One bin ingested into reduce group state.
    ReduceIngest,
    /// One reduce fire shard (grouped iteration + user reduce).
    FireReduce,
    /// One partial-reduce finish batch.
    FirePartial,
    /// The drain of every worker's combine buffers for a flowlet that
    /// has produced its last record, ahead of its `EdgeComplete`.
    FlushCombine,
    /// A MapReduce (baseline engine) map task.
    MrMap,
    /// A MapReduce (baseline engine) reduce task.
    MrReduce,
}

impl TaskKind {
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::LoaderSplit => "loader-split",
            TaskKind::StreamEpoch => "stream-epoch",
            TaskKind::MapBin => "map-bin",
            TaskKind::PartialFold => "partial-fold",
            TaskKind::ReduceIngest => "reduce-ingest",
            TaskKind::FireReduce => "fire-reduce",
            TaskKind::FirePartial => "fire-partial",
            TaskKind::FlushCombine => "flush-combine",
            TaskKind::MrMap => "mr-map",
            TaskKind::MrReduce => "mr-reduce",
        }
    }
}

/// The payload of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A worker began executing a task.
    TaskStart { task: TaskKind, flowlet: u32 },
    /// The matching task finished.
    TaskEnd {
        task: TaskKind,
        flowlet: u32,
        records_in: u64,
        records_out: u64,
    },
    /// A producing task closed a full output bin destined for `dst` on
    /// `edge`. Emitted before any flow-control decision.
    BinEmitted {
        flowlet: u32,
        edge: u32,
        dst: u32,
        records: u32,
    },
    /// A bin left this node for `dst` on `edge`. `bytes` is the exact
    /// encoded frame payload size. Every traced bin that leaves a node
    /// is one `BinShipped` and, at `dst`, one `BinIngress`: the
    /// attribution's `net` bucket pairs the two by count.
    BinShipped {
        flowlet: u32,
        edge: u32,
        dst: u32,
        records: u32,
        bytes: u64,
    },
    /// A shipped bin arrived at its destination node's runtime and was
    /// queued for a consuming task (event node = receiver).
    BinIngress { flowlet: u32, edge: u32, from: u32 },
    /// Flow control deferred a finished bin (window to `dst` full).
    FlowControlStall { flowlet: u32, edge: u32, dst: u32 },
    /// A previously deferred bin finally shipped; `stalled_us` is how
    /// long it sat in the deferred queue.
    FlowControlResume {
        flowlet: u32,
        edge: u32,
        dst: u32,
        stalled_us: u64,
    },
    /// Reduce state began spilling a shard to local disk.
    SpillStart { flowlet: u32 },
    /// The spill finished, having written `bytes`.
    SpillEnd { flowlet: u32, bytes: u64 },
    /// The fabric accepted a message for `to` (event node = sender).
    NetSend { to: u32, bytes: u64 },
    /// The fabric delivered a message from `from` (event node = receiver).
    NetDeliver { from: u32, bytes: u64 },
    /// A reduce flowlet fired, splitting into `shards` parallel shards.
    ReduceFire { flowlet: u32, shards: u32 },
    /// Work stealing: worker `thief` (the event's lane) took tasks from
    /// worker `victim`'s deque; the first stolen task belongs to
    /// `flowlet`.
    TaskStolen {
        thief: u32,
        victim: u32,
        flowlet: u32,
    },
    /// A worker found the node drained and is about to park.
    WorkerParked,
    /// The matching wake-up; `parked_us` is how long the worker slept.
    WorkerUnparked { parked_us: u64 },
    /// A read was submitted to the disk model.
    DiskRead { bytes: u64 },
    /// A write was submitted to the disk model.
    DiskWrite { bytes: u64 },
    /// The watchdog classified a run-health incident at monitoring
    /// epoch `epoch` (event node = the node the diagnosis points at,
    /// or 0 for cluster-wide incidents).
    Watchdog { class: WatchdogClass, epoch: u64 },
}

/// `args![a, b]` is `vec![("a", a), ("b", b)]` over bound numeric
/// fields: an argument's key is its field's name, spelled once.
macro_rules! args {
    ($($field:ident),*) => { vec![$((stringify!($field), u64::from(*$field))),*] };
}

impl EventKind {
    /// The one external description of an event: `(name, category,
    /// args)`. The name is what flight records persist (so files
    /// written by any build read alike) and what the Chrome
    /// export calls every event it draws as an instant; the category
    /// is the Chrome `cat`; the args are every numeric field under its
    /// own name, in declaration order. Flight records and the Chrome
    /// export both read this — a new field is added here, once.
    pub fn describe(&self) -> (&'static str, &'static str, Vec<(&'static str, u64)>) {
        use EventKind::*;
        match self {
            TaskStart { flowlet, .. } => ("task-start", "task", args![flowlet]),
            TaskEnd {
                flowlet,
                records_in,
                records_out,
                ..
            } => ("task-end", "task", args![flowlet, records_in, records_out]),
            BinEmitted {
                flowlet,
                edge,
                dst,
                records,
            } => (
                "bin-emitted",
                "dataflow",
                args![flowlet, edge, dst, records],
            ),
            BinShipped {
                flowlet,
                edge,
                dst,
                records,
                bytes,
            } => (
                "bin-shipped",
                "dataflow",
                args![flowlet, edge, dst, records, bytes],
            ),
            BinIngress {
                flowlet,
                edge,
                from,
            } => ("bin-ingress", "dataflow", args![flowlet, edge, from]),
            FlowControlStall { flowlet, edge, dst } => {
                ("flow-stall", "flow-control", args![flowlet, edge, dst])
            }
            FlowControlResume {
                flowlet,
                edge,
                dst,
                stalled_us,
            } => (
                "flow-resume",
                "flow-control",
                args![flowlet, edge, dst, stalled_us],
            ),
            SpillStart { flowlet } => ("spill-start", "disk", args![flowlet]),
            SpillEnd { flowlet, bytes } => ("spill-end", "disk", args![flowlet, bytes]),
            NetSend { to, bytes } => ("net-send", "net", args![to, bytes]),
            NetDeliver { from, bytes } => ("net-deliver", "net", args![from, bytes]),
            ReduceFire { flowlet, shards } => ("reduce-fire", "dataflow", args![flowlet, shards]),
            TaskStolen {
                thief,
                victim,
                flowlet,
            } => ("task-stolen", "sched", args![thief, victim, flowlet]),
            WorkerParked => ("worker-parked", "sched", args![]),
            WorkerUnparked { parked_us } => ("worker-unparked", "sched", args![parked_us]),
            DiskRead { bytes } => ("disk-read", "disk", args![bytes]),
            DiskWrite { bytes } => ("disk-write", "disk", args![bytes]),
            Watchdog { class, epoch } => (
                match class {
                    WatchdogClass::Backpressure => "watchdog-backpressure",
                    WatchdogClass::Hang => "watchdog-hang",
                    WatchdogClass::Straggler => "watchdog-straggler",
                },
                "watchdog",
                args![epoch],
            ),
        }
    }
}

/// How the watchdog classified a no-progress (or skewed-progress)
/// window. Lives in the trace crate so the event stream, the flight
/// recorder and the doctor all share one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchdogClass {
    /// Deferred bins exist and flow-control windows are full, but the
    /// fabric delivers nothing: a backpressure deadlock.
    Backpressure,
    /// Zero queued work, zero busy workers, zero deliveries — yet the
    /// job has not completed: something never signalled.
    Hang,
    /// The cluster is progressing but per-node progress is badly
    /// skewed: one or more nodes lag far behind.
    Straggler,
}

impl WatchdogClass {
    pub fn name(self) -> &'static str {
        match self {
            WatchdogClass::Backpressure => "backpressure",
            WatchdogClass::Hang => "hang",
            WatchdogClass::Straggler => "straggler",
        }
    }

    /// The class `name` names, as journals and dumps write it.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "backpressure" => Ok(WatchdogClass::Backpressure),
            "hang" => Ok(WatchdogClass::Hang),
            "straggler" => Ok(WatchdogClass::Straggler),
            _ => Err(format!("unknown watchdog class {name:?}")),
        }
    }
}

/// One classified incident: its class, the monitoring epoch it was
/// classified at, and a diagnosis naming the stuck edge or node. The
/// one type for it, from the watchdog's monitor to the run's error,
/// the journal, the timeline, `/healthz` and the flight record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogTrip {
    pub class: WatchdogClass,
    pub epoch: u64,
    pub detail: String,
}

/// What `/healthz` says of an incident.
impl std::fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (class, epoch, detail) = (self.class.name(), self.epoch, &self.detail);
        write!(f, "watchdog {class} at epoch {epoch}: {detail}")
    }
}

/// One event: when, where, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the tracer's epoch.
    pub t_us: u64,
    /// Cluster node the event happened on.
    pub node: u32,
    /// Worker lane: pool index, or one of the `WORKER_*` constants.
    pub worker: u32,
    pub kind: EventKind,
}

/// Destination for trace events. Implementations must tolerate
/// concurrent `record` calls from many threads.
pub trait TraceSink: Send + Sync {
    fn record(&self, ev: TraceEvent);
}

/// A sink that discards everything. Useful for measuring the overhead
/// of the instrumentation itself (timestamping without storage).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _ev: TraceEvent) {}
}

/// Bounded sink: an event lands in the ring buffer of lane
/// `node % lanes` — a pure function of the event, so a ring built with
/// one lane per node keeps every node's own tail whatever its
/// neighbours emit, and nodes never contend on one mutex. When a lane
/// overflows its capacity the oldest events are dropped (and counted),
/// never the newest.
pub struct RingSink {
    lanes: Vec<Mutex<VecDeque<TraceEvent>>>,
    per_lane_capacity: usize,
    dropped: AtomicU64,
    /// Registry counter bumped alongside `dropped`, so lost trace events
    /// show up live in `/metrics`; the default handle counts nothing.
    drop_counter: Counter,
}

impl RingSink {
    /// `lanes` independent buffers of `per_lane_capacity` events each.
    pub fn new(lanes: usize, per_lane_capacity: usize) -> Self {
        assert!(lanes > 0 && per_lane_capacity > 0);
        RingSink {
            lanes: (0..lanes).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_lane_capacity,
            dropped: AtomicU64::new(0),
            drop_counter: Counter::default(),
        }
    }

    /// This ring, also counting its drops in `counter` (typically
    /// `trace_dropped_events_total`), so overflow is visible in
    /// `/metrics` while the run is still going.
    pub fn with_drop_counter(self, counter: Counter) -> Self {
        RingSink {
            drop_counter: counter,
            ..self
        }
    }

    /// Events dropped due to lane overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every lane's events as `take` yields them, sorted by timestamp.
    fn gather(
        &self,
        take: impl Fn(&mut VecDeque<TraceEvent>) -> Vec<TraceEvent>,
    ) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            all.extend(take(&mut lock(lane)));
        }
        all.sort_by_key(|e| e.t_us);
        all
    }

    /// Remove and return all buffered events, sorted by timestamp.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.gather(|q| q.drain(..).collect())
    }

    /// Copy out all buffered events without consuming them, sorted by
    /// timestamp — what the live `/doctor` endpoint reads mid-run,
    /// leaving the buffer intact for the post-mortem drain.
    pub fn peek(&self) -> Vec<TraceEvent> {
        self.gather(|q| q.iter().cloned().collect())
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: TraceEvent) {
        let mut q = lock(&self.lanes[ev.node as usize % self.lanes.len()]);
        if q.len() >= self.per_lane_capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.drop_counter.inc();
        }
        q.push_back(ev);
    }
}

/// Cheap, cloneable handle the engine threads carry around. All clones
/// share one epoch, so timestamps from different threads are on one
/// axis.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    epoch: Instant,
}

impl Tracer {
    /// A tracer that records into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            sink: Some(sink),
            epoch: Instant::now(),
        }
    }

    /// A tracer whose `emit` is a no-op (a single `None` check).
    pub fn disabled() -> Self {
        Tracer {
            sink: None,
            epoch: Instant::now(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Microseconds since this tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, node: u32, worker: u32, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                t_us: self.now_us(),
                node,
                worker,
                kind,
            });
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// One job's observability sinks, built once per run and handed as one
/// parameter to everything on the data path: the engines' runtimes,
/// the fabric, the disks. A plain bundle — each sink is used directly
/// (`obs.tracer.emit(..)`, `obs.audit.record(..)`), and each is a
/// no-op when off, so `Observe::default()` is an unobserved run.
#[derive(Clone, Default)]
pub struct Observe {
    pub tracer: Tracer,
    pub audit: Audit,
    /// Data-plane statistics plane; `None` when `HAMR_STATS=off`.
    pub stats: Option<Arc<StatsPlane>>,
    /// Where this run's series live; `None` hands out inert handles.
    pub registry: Option<MetricsRegistry>,
    /// The `engine` label of every series this run registers.
    pub engine: &'static str,
}

impl Observe {
    /// `register` a series of this run's engine, or an inert handle.
    fn series<T: Default>(
        &self,
        labels: Labels,
        register: impl FnOnce(&MetricsRegistry, Labels) -> T,
    ) -> T {
        self.registry
            .as_ref()
            .map(|registry| register(registry, labels.engine(self.engine)))
            .unwrap_or_default()
    }

    /// A counter series of this run's engine (cumulative across runs).
    pub fn counter(&self, name: &str, labels: Labels) -> Counter {
        self.series(labels, |registry, labels| registry.counter(name, labels))
    }

    /// A histogram series of this run's engine.
    pub fn histogram(&self, name: &str, labels: Labels) -> Histogram {
        self.series(labels, |registry, labels| registry.histogram(name, labels))
    }

    /// A gauge of this run's engine, starting the run at 0. Registry
    /// cells outlive jobs, so whatever an aborted job left in the cell
    /// must not reach this job's watchdog; the one component that owns
    /// the series registers it once per run and seeds any other level.
    pub fn gauge(&self, name: &str, labels: Labels) -> Gauge {
        let gauge = self.series(labels, |registry, labels| registry.gauge(name, labels));
        gauge.set(0);
        gauge
    }

    /// Current values of this engine's live gauges (none without a
    /// registry) — see [`MetricsRegistry::live_gauges`].
    pub fn live_gauges(&self) -> Vec<GaugeSample> {
        self.registry
            .as_ref()
            .map_or_else(Vec::new, |registry| registry.live_gauges(self.engine))
    }
}

/// The shared tail of every `HAMR_*` reader: unset (or empty) keeps
/// `default`, anything else must get past `parse`.
pub fn env_or_panic<T>(var: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    match std::env::var(var) {
        Ok(value) if !value.is_empty() => value_or_panic(var, &value, parse),
        _ => default,
    }
}

/// A set `HAMR_*` value that does not parse is a typo, not a request
/// for the default. `parse`'s error names the accepted forms.
pub fn value_or_panic<T>(
    var: &str,
    value: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> T {
    parse(value).unwrap_or_else(|forms| panic!("{var} must be {forms}, got '{value}'"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The event constructor every test module of the crate shares.
    pub(crate) fn ev(t_us: u64, node: u32, worker: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_us,
            node,
            worker,
            kind,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(0, 0, EventKind::DiskRead { bytes: 1 });
    }

    #[test]
    fn ring_sink_round_trip() {
        let sink = Arc::new(RingSink::new(4, 128));
        let t = Tracer::new(sink.clone());
        assert!(t.enabled());
        t.emit(
            1,
            2,
            EventKind::TaskStart {
                task: TaskKind::MapBin,
                flowlet: 3,
            },
        );
        t.emit(
            1,
            2,
            EventKind::TaskEnd {
                task: TaskKind::MapBin,
                flowlet: 3,
                records_in: 10,
                records_out: 7,
            },
        );
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].t_us <= events[1].t_us);
        assert_eq!(events[0].node, 1);
        assert_eq!(events[0].worker, 2);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn ring_sink_drops_oldest_on_overflow() {
        let registry = MetricsRegistry::new();
        let drops = registry.counter("trace_dropped_events_total", Labels::new());
        let sink = RingSink::new(1, 4).with_drop_counter(drops.clone());
        for i in 0..10u64 {
            sink.record(TraceEvent {
                t_us: i,
                node: 0,
                worker: 0,
                kind: EventKind::DiskRead { bytes: i },
            });
        }
        assert_eq!(sink.dropped(), 6);
        assert_eq!(drops.get(), 6, "every drop reaches the registry");
        let events = sink.drain();
        assert_eq!(events.len(), 4);
        // The *newest* events survive.
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::DiskRead { bytes: 9 }
        ));
    }

    /// The flight ring is built with one lane per node so that a dump
    /// holds every node's own tail: which events a lane keeps depends
    /// on the events alone, not on which thread recorded them.
    #[test]
    fn a_chatty_node_evicts_only_its_own_lane() {
        let capacity = 8;
        let sink = RingSink::new(2, capacity);
        let at = |node, t_us| ev(t_us, node, 0, EventKind::DiskRead { bytes: t_us });
        sink.record(at(1, 0));
        for t_us in 1..=10 * capacity as u64 {
            sink.record(at(0, t_us));
        }
        let kept = sink.peek();
        assert_eq!(kept.iter().filter(|e| e.node == 1).count(), 1);
        assert_eq!(kept.iter().filter(|e| e.node == 0).count(), capacity);
        assert_eq!(sink.dropped(), 9 * capacity as u64);
    }

    /// One value of every [`EventKind`] variant; the test that reads
    /// the list ends in a `match` with no wildcard, so a new variant
    /// fails to compile there until it is placed — and listed here.
    fn one_of_every_kind() -> Vec<EventKind> {
        vec![
            EventKind::TaskStart {
                task: TaskKind::MapBin,
                flowlet: 1,
            },
            EventKind::TaskEnd {
                task: TaskKind::MapBin,
                flowlet: 1,
                records_in: 10,
                records_out: 9,
            },
            EventKind::BinEmitted {
                flowlet: 1,
                edge: 2,
                dst: 3,
                records: 4,
            },
            EventKind::BinShipped {
                flowlet: 1,
                edge: 2,
                dst: 3,
                records: 4,
                bytes: 128,
            },
            EventKind::BinIngress {
                flowlet: 2,
                edge: 2,
                from: 0,
            },
            EventKind::FlowControlStall {
                flowlet: 1,
                edge: 2,
                dst: 3,
            },
            EventKind::FlowControlResume {
                flowlet: 1,
                edge: 2,
                dst: 3,
                stalled_us: 5,
            },
            EventKind::SpillStart { flowlet: 2 },
            EventKind::SpillEnd {
                flowlet: 2,
                bytes: 4096,
            },
            EventKind::NetSend { to: 3, bytes: 136 },
            EventKind::NetDeliver {
                from: 0,
                bytes: 136,
            },
            EventKind::ReduceFire {
                flowlet: 2,
                shards: 4,
            },
            EventKind::TaskStolen {
                thief: 1,
                victim: 0,
                flowlet: 1,
            },
            EventKind::WorkerParked,
            EventKind::WorkerUnparked { parked_us: 6 },
            EventKind::DiskRead { bytes: 512 },
            EventKind::DiskWrite { bytes: 4096 },
            EventKind::Watchdog {
                class: WatchdogClass::Straggler,
                epoch: 3,
            },
        ]
    }

    /// `describe()` is the only description there is: what it says of
    /// an event survives the flight record's JSON unchanged, and is
    /// what the Chrome export prints.
    #[test]
    fn every_kind_is_described_once_for_every_reader() {
        let ring = RingSink::new(1, 64);
        for (i, kind) in one_of_every_kind().into_iter().enumerate() {
            ring.record(ev(10 + i as u64, 0, 1, kind));
        }
        let events = ring.peek();
        let record = FlightRecord::capture("all", None, None, Some(&ring), 64, &Observe::default());
        assert_eq!(record.events.len(), events.len());
        for (ev, recorded) in events.iter().zip(&record.events) {
            let (name, _, mut args) = ev.kind.describe();
            args.sort();
            let recorded_args: Vec<(&str, u64)> =
                recorded.args.iter().map(|(k, v)| (&**k, *v)).collect();
            assert_eq!((&*recorded.name, recorded_args), (name, args));
        }
        let parsed = FlightRecord::parse(&record.to_json().to_string()).expect("parse back");
        assert_eq!(parsed.events, record.events);

        let chrome = json::parse(&chrome_trace_json(&events)).expect("chrome export is JSON");
        let drawn = chrome.get("traceEvents").and_then(json::Json::as_arr);
        let drawn = drawn.expect("traceEvents");
        let named = |name: &str, ph: &str| {
            let is = |e: &json::Json, field: &str, want: &str| {
                e.get(field).and_then(json::Json::as_str) == Some(want)
            };
            drawn
                .iter()
                .filter(|e| is(e, "name", name) && is(e, "ph", ph))
                .count()
        };
        for ev in &events {
            match ev.kind {
                // The two starts that only open an interval, and the
                // four events that close one and draw it.
                EventKind::TaskStart { .. } | EventKind::SpillStart { .. } => {}
                EventKind::TaskEnd { task, .. } => assert_eq!(named(task.name(), "X"), 1),
                EventKind::FlowControlResume { .. } => {
                    assert_eq!(named("flow-control stall", "X"), 1)
                }
                EventKind::SpillEnd { .. } => assert_eq!(named("spill", "X"), 1),
                EventKind::WorkerUnparked { .. } => assert_eq!(named("parked", "X"), 1),
                // Every other kind is an instant under its own name.
                EventKind::BinEmitted { .. }
                | EventKind::BinShipped { .. }
                | EventKind::BinIngress { .. }
                | EventKind::FlowControlStall { .. }
                | EventKind::NetSend { .. }
                | EventKind::NetDeliver { .. }
                | EventKind::ReduceFire { .. }
                | EventKind::TaskStolen { .. }
                | EventKind::WorkerParked
                | EventKind::DiskRead { .. }
                | EventKind::DiskWrite { .. }
                | EventKind::Watchdog { .. } => {
                    assert_eq!(named(ev.kind.describe().0, "i"), 1, "{:?}", ev.kind)
                }
            }
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let sink = Arc::new(RingSink::new(8, 10_000));
        let tracer = Tracer::new(sink.clone());
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        tracer.emit(0, w, EventKind::DiskWrite { bytes: 1 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sink.drain().len(), 8000);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn clones_share_one_epoch() {
        let t = Tracer::new(Arc::new(NoopSink));
        let c = t.clone();
        let a = t.now_us();
        let b = c.now_us();
        assert!(b >= a);
        assert!(b - a < 1_000_000, "clone epochs diverged");
    }
}
