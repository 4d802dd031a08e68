//! The per-node flowlet runtime.
//!
//! Every cluster node runs one of these. It owns the whole flowlet
//! graph (per the paper — unlike Dryad's per-node subgraphs), a bin
//! queue fed by the network fabric, and a worker thread pool. The
//! runtime thread owns the per-flowlet *admission* state machine
//! (which bins may become tasks, when completion fires); how admitted
//! tasks reach worker threads depends on [`SchedMode`]:
//!
//! * **WorkStealing** (default) — the runtime thread shrinks to an
//!   ingress/egress pump: it admits tasks into the node's
//!   [`sched::Pool`] injector and processes completion/ack bookkeeping.
//!   Workers fetch from their own LIFO deque, steal FIFO from peers,
//!   and ship finished bins *directly* through the shared
//!   [`FlowControl`] — a flow-control defer/resume never round-trips
//!   the runtime thread.
//! * **Deterministic** — no worker threads; a seeded PRNG replays one
//!   task interleaving inline on the runtime thread. The differential
//!   oracle for the threaded mode.
//!
//! ## Scheduling (paper §2, Fig. 2)
//! * A flowlet **task** is the finest unit: one loader split, one bin
//!   through a map/partial-reduce, one reduce ingest, or one fire shard.
//! * Map and partial-reduce tasks become ready per-bin — downstream
//!   work starts long before upstream completes (fine-grain async).
//! * A loader split becomes ready when its *block* has arrived: the
//!   pump submits the split's device read (`Loader::prepare`, which
//!   answers when the device will have finished) and dispatches the
//!   split once that instant has passed, so no worker ever sleeps on a
//!   device. The runtime thread is the completion queue — its idle wait
//!   is bounded by the earliest read it awaits.
//! * Reduce fires only after *all* in-edges complete; completion
//!   messages propagate from the loaders downstream, one per
//!   (edge, upstream-node) pair, ordered behind that node's bins by the
//!   fabric's per-link FIFO.
//! * A flowlet whose workers still hold partials in their combine
//!   buffers when it has run its last producing task gets one more, the
//!   **flush** task ([`Phase::FlushingCombine`]), which drains every
//!   worker's buffers; the completion broadcast waits for its bins like
//!   for any others.
//!
//! ## Flow control (paper §2 last ¶)
//! A sliding window of `out_window_bins` unacknowledged bins per
//! destination node. When the window is full, finished bins are
//! *deferred* and the producing flowlet is suspended (no new bins are
//! admitted for it) until acknowledgements drain the backlog — "the
//! flowlet stops the current execution immediately and will be
//! scheduled in a later time". Loader concurrency is additionally
//! throttled, and a split's device read is submitted only when the
//! split passes those admission rules (the split itself and the one
//! after it), so the same rules bound the reads in flight: at most
//! `LOADER_CONCURRENCY` + 1 per node. Progress is deadlock-free because
//! the graph is acyclic: sinks never defer, so windows always
//! eventually drain. The window and deferred-queue state live in
//! [`FlowControl`] (see `outbuf.rs`), shared between the runtime thread
//! and (under work stealing) the workers.
//!
//! The same windows decide when in-node combine buffers empty. A
//! buffer belongs to a worker and outlives its tasks; at a task's end
//! it hands on, per destination, only what fits under
//! [`COMBINE_LOW_WATER`] unacknowledged bins. While a link is saturated
//! its producers therefore keep folding duplicates instead of queueing
//! bins behind it — and never overflow the window, which would park
//! bins in the deferred queue and suspend the flowlet — and an idle
//! consumer, whose window is empty, is fed at every task end as if the
//! buffer were the task's. What a buffer holds is bounded by
//! [`COMBINE_BUDGET`], not by the window.

use crate::config::{FaultInjection, RuntimeConfig, SchedMode};
use crate::flowlet::{AccBox, TaskContext};
use crate::graph::{EdgeId, FlowletId, FlowletKind};
use crate::metrics::{FlowletMetrics, NodeMetrics};
use crate::outbuf::{CombineShelf, FlowControl, TaskOutput};
use crate::plan::ExecPlan;
use crate::record::{FrameBin, Record};
use crate::reduce_state::{FireShard, PartialState, ReduceState};
use crate::sched::{Pool, Source};
use crate::NodeId;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use hamr_codec::stable_hash;
use hamr_simnet::{Endpoint, Envelope, Payload};
use hamr_trace::{
    AuditBin, AuditStage, EventKind, Gauge, Labels, Observe, TaskKind, NO_SPAN, WORKER_RUNTIME,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages exchanged between node runtimes over the fabric.
pub(crate) enum NetMsg {
    /// A bin of records for `bin.edge`'s destination flowlet.
    Bin(FrameBin),
    /// The sender's instance of `edge`'s source flowlet has finished
    /// producing on `edge`.
    EdgeComplete { edge: EdgeId },
    /// Streaming punctuation: the sender finished `epoch` on `edge`.
    Marker { edge: EdgeId, epoch: u64 },
    /// The receiver finished processing one bin the addressee sent on
    /// `edge`.
    Ack { edge: EdgeId },
    /// A node hit a fatal error; everyone stops.
    Abort { reason: Arc<String> },
}

impl Payload for NetMsg {
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Bin(b) => b.wire_size(),
            _ => 24,
        }
    }

    /// Only data bins enter the audit ledger; acks, completion
    /// messages, markers, and aborts are control traffic.
    fn audit_bin(&self) -> Option<AuditBin> {
        match self {
            NetMsg::Bin(b) => Some(AuditBin {
                edge: b.edge as u32,
                records: b.len() as u64,
                bytes: b.payload_bytes() as u64,
            }),
            _ => None,
        }
    }
}

/// Work delivered to a flowlet instance, kept in arrival order so
/// completion/epoch sentinels stay behind the bins they cover.
enum Work {
    Bin {
        from: NodeId,
        /// True when no acknowledgement is owed: the bin took no
        /// flow-control window slot (a served resident frame).
        acked: bool,
        bin: FrameBin,
    },
    Complete,
    Marker {
        epoch: u64,
    },
}

/// A task handed to a worker thread.
enum Task {
    LoaderSplit {
        flowlet: FlowletId,
        index: usize,
    },
    StreamEpoch {
        flowlet: FlowletId,
        epoch: u64,
    },
    MapBin {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    PartialFold {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    ReduceIngest {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    FireReduce {
        flowlet: FlowletId,
        shard: FireShard,
    },
    FirePartial {
        flowlet: FlowletId,
        entries: Vec<(Bytes, AccBox)>,
    },
    /// Drain every worker's combine buffers for `flowlet`, which has
    /// produced its last record: what they still hold ships ahead of
    /// the flowlet's `EdgeComplete`.
    FlushCombine {
        flowlet: FlowletId,
    },
}

impl Task {
    fn flowlet(&self) -> FlowletId {
        match self {
            Task::LoaderSplit { flowlet, .. }
            | Task::StreamEpoch { flowlet, .. }
            | Task::MapBin { flowlet, .. }
            | Task::PartialFold { flowlet, .. }
            | Task::ReduceIngest { flowlet, .. }
            | Task::FireReduce { flowlet, .. }
            | Task::FirePartial { flowlet, .. }
            | Task::FlushCombine { flowlet } => *flowlet,
        }
    }

    fn trace_kind(&self) -> TaskKind {
        match self {
            Task::LoaderSplit { .. } => TaskKind::LoaderSplit,
            Task::StreamEpoch { .. } => TaskKind::StreamEpoch,
            Task::MapBin { .. } => TaskKind::MapBin,
            Task::PartialFold { .. } => TaskKind::PartialFold,
            Task::ReduceIngest { .. } => TaskKind::ReduceIngest,
            Task::FireReduce { .. } => TaskKind::FireReduce,
            Task::FirePartial { .. } => TaskKind::FirePartial,
            Task::FlushCombine { .. } => TaskKind::FlushCombine,
        }
    }

    /// Lineage span of the bin this task consumes, if any. Links the
    /// consuming `TaskStart` back to the producer's `BinEmitted`.
    fn span(&self) -> u64 {
        match self {
            Task::MapBin { bin, .. }
            | Task::PartialFold { bin, .. }
            | Task::ReduceIngest { bin, .. } => bin.span,
            _ => NO_SPAN,
        }
    }
}

/// A worker's report after executing one task.
struct TaskDone {
    flowlet: FlowletId,
    bins: Vec<(NodeId, FrameBin)>,
    captured: Vec<Record>,
    /// Frames pinned for the resident store (see `TaskParts::fill`).
    fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
    ack_to: Option<(NodeId, EdgeId)>,
    /// For stream tasks: (epoch, more-epochs-follow).
    stream: Option<(u64, bool)>,
    is_loader_split: bool,
    is_fire: bool,
    records_in: u64,
    records_out: u64,
    /// Records absorbed by the task's combine buffers.
    /// Restores records_out to its pre-combine value for shuffle-volume
    /// comparability with the mapred baseline.
    combined: u64,
    duration: Duration,
    panic: Option<String>,
}

/// State shared with worker threads.
struct WorkerShared {
    /// The compiled job: graph, ports, names, combiners, and every
    /// per-edge decision a task reads.
    plan: Arc<ExecPlan>,
    ctx: TaskContext,
    partial: Vec<Option<Arc<PartialState>>>,
    reduce: Vec<Mutex<Option<Arc<ReduceState>>>>,
    /// Outbound windows + deferred queue. Workers ship their own bins
    /// through it, and a task's end reads its windows to decide how
    /// much of its combine buffers to drain.
    flow: Arc<FlowControl>,
    /// Every worker's combine buffers, lent to the task it executes.
    combine: CombineShelf,
    /// The job's tracer, ledger, registry and statistics plane.
    obs: Observe,
    /// Gauge: workers currently executing a task on this node.
    busy_gauge: Gauge,
}

impl WorkerShared {
    /// Record the terminal lineage hop of a bin a reduce ingests.
    /// Samples are keyed by hash and frames carry none, so this hashes
    /// every key of the bin — and is entirely off outside
    /// `HAMR_STATS=full`.
    fn stats_consume(&self, bin: &FrameBin, flowlet: FlowletId) {
        if let Some(plane) = &self.obs.stats {
            if plane.lineage_on() {
                plane.consume_bin(
                    bin.edge as u32,
                    self.ctx.node as u32,
                    flowlet as u32,
                    &self.plan.flowlets[flowlet].name,
                    self.ctx.node as u32,
                    bin.frame.iter().map(|(k, _)| stable_hash(k)),
                );
            }
        }
    }

    /// Tally consume custody for a bin about to be processed: the final
    /// checkpoint of the ledger's emit -> ship -> deliver -> consume
    /// conservation chain.
    fn audit_consume(&self, bin: &FrameBin) {
        self.obs.audit.record(
            AuditStage::Consume,
            bin.edge as u32,
            self.ctx.node as u32,
            bin.len() as u64,
            bin.payload_bytes() as u64,
        );
    }
}

/// Run one task to completion. The calling worker's combine buffers are
/// lent to the task's output off `shared.combine` and shelved again at
/// its end.
fn execute_task(shared: &WorkerShared, worker_id: usize, task: Task) -> TaskDone {
    let start = Instant::now();
    let flowlet = task.flowlet();
    let trace_kind = task.trace_kind();
    shared.busy_gauge.add(1);
    shared.obs.tracer.emit(
        shared.ctx.node as u32,
        worker_id as u32,
        EventKind::TaskStart {
            task: trace_kind,
            flowlet: flowlet as u32,
            span: task.span(),
        },
    );
    let is_loader_split = matches!(task, Task::LoaderSplit { .. });
    // The flush task is the last of its flowlet's fire: `fire_left`
    // counts it like a shard.
    let is_fire = matches!(
        task,
        Task::FireReduce { .. } | Task::FirePartial { .. } | Task::FlushCombine { .. }
    );
    let mut done = TaskDone {
        flowlet,
        bins: Vec::new(),
        captured: Vec::new(),
        fill: Vec::new(),
        ack_to: None,
        stream: None,
        is_loader_split,
        is_fire,
        records_in: 0,
        records_out: 0,
        combined: 0,
        duration: Duration::ZERO,
        panic: None,
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut out = TaskOutput::new(
            &shared.plan,
            flowlet,
            shared.ctx.node,
            worker_id as u32,
            &shared.obs,
            &shared.combine,
        );
        let kind = &shared.plan.graph.flowlets[flowlet].kind;
        let mut records_in = 0u64;
        let mut ack_to = None;
        let mut stream = None;
        match task {
            Task::LoaderSplit { index, .. } => {
                let FlowletKind::Loader(l) = kind else {
                    unreachable!("loader task for non-loader")
                };
                let mut em = crate::flowlet::Emitter::new(&mut out);
                l.load(&shared.ctx, index, &mut em);
            }
            Task::StreamEpoch { epoch, .. } => {
                let FlowletKind::Stream(s) = kind else {
                    unreachable!("stream task for non-stream")
                };
                let mut em = crate::flowlet::Emitter::new(&mut out);
                let more = s.epoch(&shared.ctx, epoch, &mut em);
                stream = Some((epoch, more));
            }
            Task::MapBin { ack, bin, .. } => {
                let FlowletKind::Map(m) = kind else {
                    unreachable!("map task for non-map")
                };
                records_in = bin.len() as u64;
                shared.audit_consume(&bin);
                let mut em = crate::flowlet::Emitter::new(&mut out);
                for (key, value) in bin.frame.iter() {
                    m.map(&shared.ctx, key, value, &mut em);
                }
                ack_to = ack;
            }
            Task::PartialFold { ack, bin, .. } => {
                let FlowletKind::PartialReduce(r) = kind else {
                    unreachable!("partial task for non-partial")
                };
                records_in = bin.len() as u64;
                shared.audit_consume(&bin);
                // Partial reduce IS the reduce stage for partial-only
                // topologies (the histogram family): record the
                // consume hop so sampled lineage ends at a reducer.
                // Local-edge folds (pre-shuffle combines) are not a
                // reduce ingest and stay hop-free.
                if shared.plan.edges[bin.edge].sampled {
                    shared.stats_consume(&bin, flowlet);
                }
                let state = shared.partial[flowlet]
                    .as_ref()
                    .expect("partial state exists");
                state.fold_bin(r.as_ref(), &bin);
                ack_to = ack;
            }
            Task::ReduceIngest { ack, bin, .. } => {
                records_in = bin.len() as u64;
                shared.audit_consume(&bin);
                shared.stats_consume(&bin, flowlet);
                let state = shared.reduce[flowlet]
                    .lock()
                    .clone()
                    .expect("reduce state exists");
                state.ingest(worker_id, &bin).expect("spill failed");
                ack_to = ack;
            }
            Task::FireReduce { mut shard, .. } => {
                let FlowletKind::Reduce(r) = kind else {
                    unreachable!("fire task for non-reduce")
                };
                while let Some((key, values)) = shard.next_group() {
                    // Not counted as records_in: these records were
                    // already counted when their bins were ingested.
                    let mut em = crate::flowlet::Emitter::new(&mut out);
                    let mut iter = values.into_iter();
                    r.reduce(&shared.ctx, &key, &mut iter, &mut em);
                }
            }
            Task::FirePartial { entries, .. } => {
                let FlowletKind::PartialReduce(r) = kind else {
                    unreachable!("fire task for non-partial")
                };
                for (key, acc) in entries {
                    // Accumulators, not input records; skip records_in.
                    let mut em = crate::flowlet::Emitter::new(&mut out);
                    r.finish(&shared.ctx, &key, acc, &mut em);
                }
            }
            Task::FlushCombine { .. } => out.flush_held(&shared.combine),
        }
        (
            out.into_parts(&shared.combine, &shared.flow),
            records_in,
            ack_to,
            stream,
        )
    }));
    match result {
        Ok((parts, records_in, ack_to, stream)) => {
            done.records_out = parts.bins.iter().map(|(_, b)| b.len() as u64).sum();
            done.bins = parts.bins;
            done.captured = parts.captured;
            done.fill = parts.fill;
            done.records_in = records_in;
            done.ack_to = ack_to;
            done.stream = stream;
            done.combined = parts.combined;
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "flowlet task panicked".to_string());
            done.panic = Some(msg);
        }
    }
    done.duration = start.elapsed();
    shared.busy_gauge.sub(1);
    shared.obs.tracer.emit(
        shared.ctx.node as u32,
        worker_id as u32,
        EventKind::TaskEnd {
            task: trace_kind,
            flowlet: flowlet as u32,
            records_in: done.records_in,
            records_out: done.records_out,
        },
    );
    done
}

/// Send the acknowledgement and ship (or defer) the bins of a finished
/// task, draining `done` of both so the runtime thread only does state
/// bookkeeping. Called by the executing thread itself: under work
/// stealing that is the worker, so egress never waits on the runtime
/// loop; under the deterministic replay it is the runtime thread.
fn ship_done(flow: &FlowControl, endpoint: &Endpoint<NetMsg>, lane: u32, done: &mut TaskDone) {
    if done.panic.is_some() {
        // Keep the ack and bins unshipped; the runtime aborts the job.
        return;
    }
    if let Some((origin, edge)) = done.ack_to.take() {
        let _ = endpoint.send(origin, NetMsg::Ack { edge });
    }
    for (dst, bin) in done.bins.drain(..) {
        flow.ship_or_defer(lane, done.flowlet, dst, bin);
    }
}

/// Work-stealing worker: fetch from the pool (own deque → injector →
/// steal sweep), execute, ship results directly, park bounded when the
/// node is drained.
fn ws_worker_loop(
    worker: usize,
    shared: Arc<WorkerShared>,
    pool: Arc<Pool<Task>>,
    endpoint: Endpoint<NetMsg>,
    done_tx: Sender<TaskDone>,
) {
    let node = shared.ctx.node as u32;
    let lane = worker as u32;
    loop {
        match pool.try_fetch(worker) {
            Some((task, src)) => {
                if let Source::Stolen { victim } = src {
                    shared.obs.tracer.emit(
                        node,
                        lane,
                        EventKind::TaskStolen {
                            thief: lane,
                            victim: victim as u32,
                            flowlet: task.flowlet() as u32,
                        },
                    );
                }
                let mut done = execute_task(&shared, worker, task);
                ship_done(&shared.flow, &endpoint, lane, &mut done);
                if done_tx.send(done).is_err() {
                    return;
                }
            }
            None => {
                if pool.is_shutdown() {
                    return;
                }
                shared.obs.tracer.emit(node, lane, EventKind::WorkerParked);
                let parked = pool.park(worker);
                shared.obs.tracer.emit(
                    node,
                    lane,
                    EventKind::WorkerUnparked {
                        parked_us: parked.as_micros() as u64,
                    },
                );
            }
        }
    }
}

/// A flowlet instance's lifecycle on one node. Every change goes
/// through [`NodeRuntime::set_phase`], which holds it to
/// [`Phase::may_become`]:
///
/// | from | to |
/// |---|---|
/// | `Active` | `Firing`, `FlushingCombine`, `FlushingEpoch`, `Complete` |
/// | `Firing` | `FlushingCombine`, `Complete` |
/// | `FlushingCombine` | `Complete` |
/// | `FlushingEpoch` | `Active` |
/// | `Complete` | — |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Admitting input (or, for a source, producing it).
    Active,
    /// Input is complete and consumed; the reduce's fire shards or the
    /// partial reduce's finish tasks are running.
    Firing,
    /// The flowlet has produced its last record; one flush task is
    /// draining what its workers' combine buffers still hold.
    FlushingCombine,
    /// A partial reduce is emitting a closed epoch's accumulators.
    FlushingEpoch(u64),
    Complete,
}

impl Phase {
    /// Whether an instance in `self` may move to `next`.
    fn may_become(self, next: Phase) -> bool {
        use Phase::*;
        matches!(
            (self, next),
            (
                Active,
                Firing | FlushingCombine | FlushingEpoch(_) | Complete
            ) | (Firing, FlushingCombine | Complete)
                | (FlushingCombine, Complete)
                | (FlushingEpoch(_), Active)
        )
    }
}

/// Per-flowlet scheduling state on this node.
struct Instance {
    pending: VecDeque<Work>,
    complete_seen: usize,
    input_expected: usize,
    markers: HashMap<u64, usize>,
    running: usize,
    phase: Phase,
    // loader
    splits_total: usize,
    splits_next: usize,
    /// Splits whose `Loader::prepare` has been called: the dispatched
    /// ones, the next to fire and the one after it.
    splits_prepared: usize,
    /// What `prepare` answered for each prepared split not yet
    /// dispatched, split `splits_next` first: when its input will have
    /// arrived (`None` = it is there).
    splits_ready: VecDeque<Option<Instant>>,
    splits_done: usize,
    loader_running: usize,
    // stream
    stream_epoch: u64,
    stream_task_out: bool,
    marker_owed: Option<u64>,
    stream_finished: bool,
    fire_left: usize,
}

impl Instance {
    fn input_done(&self) -> bool {
        self.complete_seen == self.input_expected
    }
}

/// What a node hands back to the driver.
pub(crate) struct NodeOutcome {
    pub node: NodeId,
    pub captured: HashMap<FlowletId, Vec<Record>>,
    pub flowlets: Vec<FlowletMetrics>,
    pub node_metrics: NodeMetrics,
    pub error: Option<String>,
    /// Pinned frame clones captured on cache-filling edges, keyed by
    /// (edge, destination node). The driver groups them per flowlet and
    /// inserts them into the cluster's [`crate::resident::ResidentStore`].
    pub fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
}

/// The task execution backend, selected by [`SchedMode`].
enum Exec {
    /// Per-worker deques + injector; workers ship their own results.
    WorkStealing {
        pool: Arc<Pool<Task>>,
        workers: Vec<std::thread::JoinHandle<()>>,
    },
    /// Seeded single-threaded replay: ready tasks accumulate here and
    /// an LCG picks which runs next, inline on the runtime thread.
    Deterministic {
        ready: Vec<Task>,
        rng: u64,
        next_worker: usize,
    },
}

/// One node's runtime: built and [`run`](NodeRuntime::run) to
/// completion on the node's own thread.
pub(crate) struct NodeRuntime {
    node: NodeId,
    nodes: usize,
    plan: Arc<ExecPlan>,
    cfg: RuntimeConfig,
    threads: usize,
    endpoint: Endpoint<NetMsg>,
    inbox: Receiver<Envelope<NetMsg>>,
    exec: Exec,
    done_rx: Receiver<TaskDone>,
    shared: Arc<WorkerShared>,
    instances: Vec<Instance>,
    outstanding: usize,
    captured: HashMap<FlowletId, Vec<Record>>,
    fmetrics: Vec<FlowletMetrics>,
    nmetrics: NodeMetrics,
    busy: Duration,
    start: Instant,
    error: Option<String>,
    /// Gauges: per-flowlet bin-queue depth, indexed by flowlet.
    queue_gauges: Vec<Gauge>,
    /// Gauge: bytes resident in queued (pending) bins.
    pending_bytes_gauge: Gauge,
    /// When the earliest read this node waits for will be done: the
    /// `ready_at` of a split that passes every admission rule but
    /// whose block has not arrived yet. Set by the last
    /// [`pump`](NodeRuntime::pump); bounds the idle wait.
    wake_at: Option<Instant>,
    /// Gauge: 1 while `wake_at` is set — the runtime is waiting for a
    /// device, which the watchdog must not take for a hang.
    awaiting_read_gauge: Gauge,
    /// Frames this node's tasks pinned for the resident store.
    fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
}

/// Max concurrent loader split tasks per node (the paper throttles
/// loader concurrency as part of flow control).
const LOADER_CONCURRENCY: usize = 2;

/// Max deferred (backpressured) bins per node before loaders stop
/// admitting new splits.
const DEFER_HIGH_WATER: usize = 64;

/// Unacknowledged bins on an (edge, destination) at or above which a
/// task's end leaves its combine buffers' partials for that destination
/// where they are (never more than the window itself). Low, and the
/// link idles between task ends; high, and every task ships its keys
/// again instead of folding the next task's into them. The issue's
/// prototype swept it on `wordcount_shuffle` (fastest / median ms of
/// eight): 2 → 531 / 606, 4 → 515 / 524, 8 → 460 / 479, 16 → 468 / 476,
/// 32 → 471 / 487, and on `wordcount_cpu` 8 → 162 / 211, 32 → 244 / 305;
/// this code's own two passes (EXPERIMENTS.md "Node-level combining")
/// put 32 last on both workloads and 8 first or within noise of it.
pub(crate) const COMBINE_LOW_WATER: usize = 8;

/// Bytes of arena and table one combine buffer may hold before a fold
/// sheds its older half. With the low-water drain, on
/// `wordcount_shuffle` (fastest / median ms of four): 256 KiB folds too
/// little (527 / 577), 4 MiB holds a drain the flush then has to push
/// through the window at once (534 / 542), 1 MiB gave 477–483 /
/// 508–514.
pub(crate) const COMBINE_BUDGET: usize = 1 << 20;

/// Longest the runtime thread blocks with nothing to do before it
/// looks again.
const IDLE_TICK: Duration = Duration::from_millis(20);

impl NodeRuntime {
    pub(crate) fn new(
        plan: Arc<ExecPlan>,
        cfg: RuntimeConfig,
        threads: usize,
        ctx: TaskContext,
        endpoint: Endpoint<NetMsg>,
        inbox: Receiver<Envelope<NetMsg>>,
        obs: &Observe,
    ) -> Self {
        let node = ctx.node;
        let nodes = ctx.nodes;
        let graph = &plan.graph;
        let on_node = || Labels::new().node(node as u32);
        // Per-flowlet worker-visible state.
        let mut partial = Vec::with_capacity(graph.flowlets.len());
        let mut reduce = Vec::with_capacity(graph.flowlets.len());
        for (id, def) in graph.flowlets.iter().enumerate() {
            partial.push(match def.kind {
                FlowletKind::PartialReduce(_) => Some(Arc::new(PartialState::new())),
                _ => None,
            });
            reduce.push(Mutex::new(match def.kind {
                // One fire shard per worker.
                FlowletKind::Reduce(_) => Some(Arc::new(ReduceState::new(
                    threads,
                    cfg.memory_budget,
                    ctx.disk.clone(),
                    obs,
                    node as u32,
                    id as u32,
                ))),
                _ => None,
            }));
        }
        // A constant gauge alongside workers_busy, so occupancy
        // (busy/workers) is computable from a single /metrics scrape.
        obs.gauge("workers", on_node()).set(threads as i64);
        let flow = Arc::new(FlowControl::new(
            node,
            nodes,
            cfg.out_window_bins,
            graph.edges.len(),
            graph.flowlets.len(),
            endpoint.clone(),
            obs,
        ));
        let shared = Arc::new(WorkerShared {
            plan: Arc::clone(&plan),
            ctx: ctx.clone(),
            partial,
            reduce,
            obs: obs.clone(),
            busy_gauge: obs.gauge("workers_busy", on_node()),
            flow,
            combine: CombineShelf::new(node, threads, graph.edges.len(), obs),
        });
        let queue_gauges = (0..graph.flowlets.len())
            .map(|f| obs.gauge("queue_depth", on_node().flowlet(f as u32)))
            .collect();
        let pending_bytes_gauge = obs.gauge("pending_bin_bytes", on_node());
        let awaiting_read_gauge = obs.gauge("splits_awaiting_read", on_node());
        let (done_tx, done_rx) = unbounded::<TaskDone>();
        let exec = match cfg.sched {
            SchedMode::WorkStealing => {
                let pool = Arc::new(Pool::new(threads));
                let workers = (0..threads)
                    .map(|w| {
                        let shared = Arc::clone(&shared);
                        let pool = Arc::clone(&pool);
                        let endpoint = endpoint.clone();
                        let tx = done_tx.clone();
                        std::thread::Builder::new()
                            .name(format!("hamr-n{node}-w{w}"))
                            .spawn(move || ws_worker_loop(w, shared, pool, endpoint, tx))
                            .expect("spawn worker")
                    })
                    .collect();
                Exec::WorkStealing { pool, workers }
            }
            SchedMode::Deterministic { seed } => Exec::Deterministic {
                // Splitmix-style scramble so seed 0 and per-node offsets
                // still give distinct streams.
                rng: seed
                    .wrapping_add(node as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    | 1,
                ready: Vec::new(),
                next_worker: 0,
            },
        };
        // Build per-flowlet instances.
        let instances = graph
            .flowlets
            .iter()
            .enumerate()
            .map(|(f, def)| {
                // A flowlet served from the resident store runs zero
                // loader splits: its cached frames are injected into
                // the local consumer queues before the loop starts, and
                // the 0-split loader completes (broadcasting
                // EdgeComplete) on the first pump pass.
                let splits_total = match &def.kind {
                    FlowletKind::Loader(l) if plan.flowlets[f].serve.is_none() => {
                        l.split_count(&ctx)
                    }
                    _ => 0,
                };
                Instance {
                    pending: VecDeque::new(),
                    complete_seen: 0,
                    input_expected: def.in_edges.len() * nodes,
                    markers: HashMap::new(),
                    running: 0,
                    phase: Phase::Active,
                    splits_total,
                    splits_next: 0,
                    splits_prepared: 0,
                    splits_ready: VecDeque::new(),
                    splits_done: 0,
                    loader_running: 0,
                    stream_epoch: 0,
                    stream_task_out: false,
                    marker_owed: None,
                    stream_finished: false,
                    fire_left: 0,
                }
            })
            .collect();
        let fmetrics = graph
            .flowlets
            .iter()
            .map(|def| FlowletMetrics {
                name: def.name.clone(),
                kind: def.kind.kind_name(),
                ..Default::default()
            })
            .collect();
        NodeRuntime {
            node,
            nodes,
            plan,
            cfg,
            threads,
            endpoint,
            inbox,
            exec,
            done_rx,
            shared,
            instances,
            outstanding: 0,
            captured: HashMap::new(),
            fmetrics,
            nmetrics: NodeMetrics::default(),
            busy: Duration::ZERO,
            start: Instant::now(),
            error: None,
            queue_gauges,
            pending_bytes_gauge,
            wake_at: None,
            awaiting_read_gauge,
            fill: Vec::new(),
        }
    }

    /// Inject every served flowlet's cached frames into the local
    /// consumer queues, with full ledger custody: a resident hit is a
    /// local delivery, so Emit, Ship, and Deliver are recorded here at
    /// this node (the consuming task records Consume as usual) and the
    /// conservation check emit == ship == deliver == consume still
    /// balances. No fabric send happens, so `shuffled_bytes` (remote
    /// fabric traffic) drops to zero for these edges.
    fn inject_served(&mut self) {
        let plan = Arc::clone(&self.plan);
        for fp in &plan.flowlets {
            let Some(hit) = &fp.serve else { continue };
            for (port, spec) in fp.ports.iter().enumerate() {
                let edge = spec.edge;
                for frame in &hit.ports[port][self.node] {
                    let mut bin = FrameBin::new(edge, frame.clone());
                    for stage in [AuditStage::Emit, AuditStage::Ship, AuditStage::Deliver] {
                        self.shared.obs.audit.record(
                            stage,
                            edge as u32,
                            self.node as u32,
                            bin.len() as u64,
                            bin.payload_bytes() as u64,
                        );
                    }
                    bin.span = self.shared.obs.tracer.mint_span();
                    // Pre-acked: nothing was shipped, so there is no
                    // flow-control window slot to release.
                    self.enqueue_bin(self.node, true, bin);
                }
            }
        }
    }

    /// Queue an arrived bin for its destination flowlet: the one
    /// ingress path, whether the fabric delivered it or the resident
    /// store served it. `acked` as on [`Work::Bin`].
    fn enqueue_bin(&mut self, from: NodeId, acked: bool, bin: FrameBin) {
        let dst = self.plan.graph.edges[bin.edge].dst;
        self.nmetrics.bins_in += 1;
        self.nmetrics.records_in += bin.len() as u64;
        self.shared.obs.tracer.emit(
            self.node as u32,
            WORKER_RUNTIME,
            EventKind::BinIngress {
                flowlet: dst as u32,
                edge: bin.edge as u32,
                from: from as u32,
                span: bin.span,
            },
        );
        self.queue_gauges[dst].add(1);
        self.pending_bytes_gauge.add(bin.payload_bytes() as i64);
        self.instances[dst]
            .pending
            .push_back(Work::Bin { from, acked, bin });
    }

    pub(crate) fn run(mut self) -> NodeOutcome {
        self.inject_served();
        let done_rx = self.done_rx.clone();
        let inbox = self.inbox.clone();
        let mut last_progress = Instant::now();
        loop {
            let mut progressed = false;
            while let Ok(done) = done_rx.try_recv() {
                self.handle_done(done);
                progressed = true;
            }
            while let Ok(env) = inbox.try_recv() {
                self.handle_msg(env);
                progressed = true;
            }
            if self.error.is_some() {
                break;
            }
            self.pump();
            if self.deterministic_step() {
                progressed = true;
            }
            if self.all_complete() {
                break;
            }
            if progressed {
                last_progress = Instant::now();
                continue;
            }
            if last_progress.elapsed() > Duration::from_secs(300) {
                self.error = Some(format!(
                    "node {} runtime stalled for 300s (scheduler bug or deadlock): {}",
                    self.node,
                    self.stall_report()
                ));
                break;
            }
            // Nothing to do right now: block for the next event. A read
            // this node awaits completes at an instant known since its
            // submission, so the timeout is the device's completion
            // queue: the wait ends when the block is there.
            let idle = self.wake_at.map_or(IDLE_TICK, |at| {
                at.saturating_duration_since(Instant::now()).min(IDLE_TICK)
            });
            crossbeam::channel::select! {
                recv(done_rx) -> d => {
                    if let Ok(done) = d { self.handle_done(done); last_progress = Instant::now(); }
                }
                recv(inbox) -> m => {
                    if let Ok(env) = m { self.handle_msg(env); last_progress = Instant::now(); }
                }
                default(idle) => {}
            }
        }
        // However the loop ended, nobody waits for a device any more.
        self.awaiting_read_gauge.set(0);
        // Tear down the execution backend and collect scheduler stats.
        let exec = std::mem::replace(
            &mut self.exec,
            Exec::Deterministic {
                ready: Vec::new(),
                rng: 0,
                next_worker: 0,
            },
        );
        match exec {
            Exec::WorkStealing { pool, mut workers } => {
                pool.shutdown();
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                for w in 0..pool.workers() {
                    self.nmetrics.steals += pool.steals(w);
                    self.nmetrics.stolen_tasks += pool.stolen_tasks(w);
                    self.nmetrics.tasks_per_worker.push(pool.tasks(w));
                    self.nmetrics.park_per_worker.push(pool.park_time(w));
                }
            }
            Exec::Deterministic { .. } => {}
        }
        // No task runs any more. A job that completed has drained its
        // combine buffers; an aborted one drops what they hold with
        // `shared`, and the ledger's combine row says how much.
        self.shared.combine.retire();
        // Flow-control counters accumulated off the runtime thread.
        self.shared.flow.fold_into(&mut self.fmetrics);
        self.nmetrics.busy = self.busy;
        self.nmetrics.elapsed = self.start.elapsed();
        NodeOutcome {
            node: self.node,
            captured: std::mem::take(&mut self.captured),
            flowlets: std::mem::take(&mut self.fmetrics),
            node_metrics: std::mem::take(&mut self.nmetrics),
            error: self.error.take(),
            fill: std::mem::take(&mut self.fill),
        }
    }

    /// Deterministic mode: run one seeded-random ready task inline on
    /// the runtime thread. Returns true if a task ran. No-op under
    /// work stealing.
    fn deterministic_step(&mut self) -> bool {
        let threads = self.threads;
        let (task, worker) = match &mut self.exec {
            Exec::Deterministic {
                ready,
                rng,
                next_worker,
            } if !ready.is_empty() => {
                *rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = ((*rng >> 33) as usize) % ready.len();
                let task = ready.swap_remove(idx);
                let worker = *next_worker;
                *next_worker = (*next_worker + 1) % threads;
                (task, worker)
            }
            _ => return false,
        };
        let mut done = execute_task(&self.shared, worker, task);
        ship_done(&self.shared.flow, &self.endpoint, WORKER_RUNTIME, &mut done);
        self.handle_done(done);
        true
    }

    fn stall_report(&self) -> String {
        let mut parts = Vec::new();
        for (id, inst) in self.instances.iter().enumerate() {
            if inst.phase != Phase::Complete {
                parts.push(format!(
                    "f{id}({}) phase={:?} pending={} running={} deferred={} held={} complete_seen={}/{}",
                    self.plan.graph.flowlets[id].name,
                    inst.phase,
                    inst.pending.len(),
                    inst.running,
                    self.shared.flow.deferred_for(id),
                    self.held_partials(id),
                    inst.complete_seen,
                    inst.input_expected,
                ));
            }
        }
        let mut inflight_nonzero = Vec::new();
        for edge in 0..self.plan.graph.edges.len() {
            for dst in 0..self.nodes {
                let v = self.shared.flow.inflight(edge, dst);
                if v > 0 {
                    inflight_nonzero.push((edge, dst, v));
                }
            }
        }
        format!(
            "outstanding={} inflight_nonzero={:?} deferred={} [{}]",
            self.outstanding,
            inflight_nonzero,
            self.shared.flow.total_deferred(),
            parts.join("; ")
        )
    }

    /// Partials of `f` parked in this node's shelved combine buffers.
    fn held_partials(&self, f: FlowletId) -> usize {
        let ports = self.plan.flowlets[f].ports.iter().filter(|p| p.hold);
        ports
            .map(|p| self.shared.combine.held_entries(p.edge))
            .sum()
    }

    fn all_complete(&self) -> bool {
        self.instances.iter().all(|i| i.phase == Phase::Complete)
    }

    fn handle_msg(&mut self, env: Envelope<NetMsg>) {
        match env.msg {
            NetMsg::Bin(bin) => self.enqueue_bin(env.from, false, bin),
            NetMsg::EdgeComplete { edge } => {
                let dst = self.plan.graph.edges[edge].dst;
                self.instances[dst].pending.push_back(Work::Complete);
            }
            NetMsg::Marker { edge, epoch } => {
                let dst = self.plan.graph.edges[edge].dst;
                self.instances[dst]
                    .pending
                    .push_back(Work::Marker { epoch });
            }
            NetMsg::Ack { edge } => {
                // Fault injection: a node that drops acks never opens
                // its windows, so with a small window and a skewed input
                // the producers wedge into a true backpressure deadlock.
                if matches!(self.cfg.fault, FaultInjection::DropAcks { node } if node == self.node)
                {
                    return;
                }
                self.shared.flow.on_ack(edge, env.from, WORKER_RUNTIME);
            }
            NetMsg::Abort { reason } => {
                self.error = Some(format!("aborted: {reason}"));
            }
        }
    }

    fn handle_done(&mut self, done: TaskDone) {
        self.outstanding -= 1;
        self.busy += done.duration;
        if let Some(msg) = done.panic {
            let reason = Arc::new(format!(
                "flowlet '{}' on node {}: {}",
                self.plan.graph.flowlets[done.flowlet].name, self.node, msg
            ));
            // Tell everyone. Our own loopback Abort is harmless — we
            // already stop via `error` below.
            for dst in 0..self.nodes {
                let _ = self.endpoint.send(
                    dst,
                    NetMsg::Abort {
                        reason: Arc::clone(&reason),
                    },
                );
            }
            self.error = Some(reason.to_string());
            return;
        }
        let f = done.flowlet;
        {
            let inst = &mut self.instances[f];
            inst.running -= 1;
            if done.is_loader_split {
                inst.loader_running -= 1;
                inst.splits_done += 1;
            }
            if done.is_fire {
                inst.fire_left -= 1;
            }
            if let Some((epoch, more)) = done.stream {
                inst.stream_task_out = false;
                inst.marker_owed = Some(epoch);
                if !more {
                    inst.stream_finished = true;
                }
            }
        }
        let fm = &mut self.fmetrics[f];
        fm.tasks += 1;
        fm.records_in += done.records_in;
        // Combined records were real map output that the combiner folded
        // away before shipping; restore them so records_out stays
        // comparable with mapred's pre-combiner shuffle counts.
        fm.records_out += done.records_out + done.combined;
        fm.combined_records += done.combined;
        fm.busy += done.duration;
        fm.task_latency.record(done.duration);
        if !done.captured.is_empty() {
            self.captured.entry(f).or_default().extend(done.captured);
        }
        self.fill.extend(done.fill);
    }

    fn dispatch(&mut self, task: Task) {
        let f = task.flowlet();
        self.instances[f].running += 1;
        self.outstanding += 1;
        match &mut self.exec {
            Exec::WorkStealing { pool, .. } => pool.submit(task),
            Exec::Deterministic { ready, .. } => ready.push(task),
        }
    }

    /// Dispatch a burst of related tasks (a reduce fire's shards) in
    /// one submission, so under work stealing the whole pool wakes at
    /// once instead of one worker per round-robin token.
    fn dispatch_batch(&mut self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        for t in &tasks {
            self.instances[t.flowlet()].running += 1;
            self.outstanding += 1;
        }
        match &mut self.exec {
            Exec::WorkStealing { pool, .. } => pool.submit_batch(tasks),
            Exec::Deterministic { ready, .. } => ready.extend(tasks),
        }
    }

    /// Capacity for admitting more tasks right now. The deterministic
    /// replay keeps a shallow backlog (twice the workers) since one
    /// thread runs everything anyway; work stealing admits deeper (four
    /// per worker) because queued tasks sit in per-worker deques where
    /// idle peers can steal them, and [`DEFER_HIGH_WATER`] still bounds
    /// memory.
    fn has_capacity(&self) -> bool {
        let cap = match &self.exec {
            Exec::WorkStealing { .. } => self.threads * 4,
            _ => self.threads * 2,
        };
        self.outstanding < cap
    }

    fn pump(&mut self) {
        self.wake_at = None;
        // Walk flowlets in topological order so upstream work is
        // admitted first within one pass.
        for i in 0..self.plan.graph.topo.len() {
            let f = self.plan.graph.topo[i];
            if self.instances[f].phase == Phase::Complete {
                continue;
            }
            let graph = Arc::clone(&self.plan.graph);
            match graph.flowlets[f].kind {
                FlowletKind::Loader(_) => self.pump_loader(f),
                FlowletKind::Stream(_) => self.pump_stream(f),
                _ => self.pump_inner(f),
            }
            self.check_transition(f);
        }
        self.awaiting_read_gauge.set(self.wake_at.is_some() as i64);
    }

    fn pump_loader(&mut self, f: FlowletId) {
        loop {
            let inst = &self.instances[f];
            if inst.phase != Phase::Active
                || inst.splits_next >= inst.splits_total
                || inst.loader_running >= LOADER_CONCURRENCY
                || self.shared.flow.deferred_for(f) > 0
                || self.shared.flow.total_deferred() >= DEFER_HIGH_WATER
                || !self.has_capacity()
            {
                return;
            }
            let FlowletKind::Loader(loader) = &self.plan.graph.flowlets[f].kind else {
                unreachable!("pump_loader on a non-loader")
            };
            // A split's device read is submitted when the split could
            // be admitted — and the next split's with it, so the device
            // always has its next block queued. Admission bounds it: at
            // most LOADER_CONCURRENCY + 1 reads are ever outstanding.
            let inst = &mut self.instances[f];
            let index = inst.splits_next;
            for ahead in inst.splits_prepared..(index + 2).min(inst.splits_total) {
                let ready_at = loader.prepare(&self.shared.ctx, ahead);
                inst.splits_ready.push_back(ready_at);
                inst.splits_prepared = ahead + 1;
            }
            // The split fires when its block has arrived, not before: a
            // worker that took it now would sleep on the device while
            // the bins of earlier blocks queue behind it.
            if let Some(&Some(at)) = inst.splits_ready.front() {
                if at > Instant::now() {
                    self.wake_at = Some(self.wake_at.map_or(at, |w| w.min(at)));
                    return;
                }
            }
            inst.splits_ready.pop_front();
            inst.splits_next += 1;
            inst.loader_running += 1;
            self.dispatch(Task::LoaderSplit { flowlet: f, index });
        }
    }

    fn pump_stream(&mut self, f: FlowletId) {
        // An owed marker goes out once the epoch's bins have all shipped.
        let owed = {
            let inst = &self.instances[f];
            match inst.marker_owed {
                Some(epoch) if inst.running == 0 && self.shared.flow.deferred_for(f) == 0 => {
                    Some(epoch)
                }
                Some(_) => return, // still flushing the epoch
                None => None,
            }
        };
        if let Some(epoch) = owed {
            self.broadcast_markers(f, epoch);
            let inst = &mut self.instances[f];
            inst.marker_owed = None;
            inst.stream_epoch = epoch + 1;
        }
        let can_start = {
            let inst = &self.instances[f];
            inst.phase == Phase::Active
                && !inst.stream_finished
                && !inst.stream_task_out
                && self.shared.flow.deferred_for(f) == 0
                && self.has_capacity()
        };
        if can_start {
            let epoch = self.instances[f].stream_epoch;
            self.instances[f].stream_task_out = true;
            self.dispatch(Task::StreamEpoch { flowlet: f, epoch });
        }
    }

    fn pump_inner(&mut self, f: FlowletId) {
        if self.instances[f].phase != Phase::Active {
            return;
        }
        enum Action {
            Stop,
            PopComplete,
            RunBin,
            CountMarker,
        }
        loop {
            let action = {
                let inst = &self.instances[f];
                match inst.pending.front() {
                    None => Action::Stop,
                    Some(Work::Complete) => Action::PopComplete,
                    Some(Work::Bin { .. }) => {
                        if self.shared.flow.deferred_for(f) > 0 || !self.has_capacity() {
                            // Suspended by flow control, or pool full.
                            Action::Stop
                        } else {
                            Action::RunBin
                        }
                    }
                    Some(Work::Marker { .. }) => {
                        // Epoch boundary: every earlier bin must be fully
                        // processed and shipped before it can act.
                        if inst.running > 0 || self.shared.flow.deferred_for(f) > 0 {
                            Action::Stop
                        } else {
                            Action::CountMarker
                        }
                    }
                }
            };
            match action {
                Action::Stop => break,
                Action::PopComplete => {
                    let inst = &mut self.instances[f];
                    inst.pending.pop_front();
                    inst.complete_seen += 1;
                }
                Action::RunBin => {
                    let Some(Work::Bin { from, acked, bin }) =
                        self.instances[f].pending.pop_front()
                    else {
                        unreachable!()
                    };
                    self.queue_gauges[f].sub(1);
                    self.pending_bytes_gauge.sub(bin.payload_bytes() as i64);
                    let ack = if acked { None } else { Some((from, bin.edge)) };
                    let task = match self.flowlet_tag(f) {
                        Tag::Map => Task::MapBin {
                            flowlet: f,
                            ack,
                            bin,
                        },
                        Tag::Partial => Task::PartialFold {
                            flowlet: f,
                            ack,
                            bin,
                        },
                        Tag::Reduce => Task::ReduceIngest {
                            flowlet: f,
                            ack,
                            bin,
                        },
                        Tag::Source => unreachable!("sources have no inputs"),
                    };
                    self.dispatch(task);
                }
                Action::CountMarker => {
                    let Some(Work::Marker { epoch }) = self.instances[f].pending.pop_front() else {
                        unreachable!()
                    };
                    let full = {
                        let inst = &mut self.instances[f];
                        let seen = inst.markers.entry(epoch).or_insert(0);
                        *seen += 1;
                        *seen == inst.input_expected
                    };
                    if full {
                        self.instances[f].markers.remove(&epoch);
                        self.begin_epoch_flush(f, epoch);
                        break;
                    }
                }
            }
        }
    }

    fn flowlet_tag(&self, f: FlowletId) -> Tag {
        match self.plan.graph.flowlets[f].kind {
            FlowletKind::Map(_) => Tag::Map,
            FlowletKind::PartialReduce(_) => Tag::Partial,
            FlowletKind::Reduce(_) => Tag::Reduce,
            FlowletKind::Loader(_) | FlowletKind::Stream(_) => Tag::Source,
        }
    }

    /// Flush a partial reduce's window at an epoch boundary, or simply
    /// forward the marker for stateless flowlets.
    fn begin_epoch_flush(&mut self, f: FlowletId, epoch: u64) {
        match &self.shared.partial[f] {
            Some(state) => {
                let entries = state.drain();
                let n = self.fire_entries(f, entries);
                self.set_phase(f, Phase::FlushingEpoch(epoch));
                self.instances[f].fire_left = n;
                if n == 0 {
                    // Nothing buffered this epoch; forward immediately.
                    self.finish_epoch_flush(f, epoch);
                }
            }
            None => {
                // Map (and anything stateless): bins already processed,
                // forward punctuation downstream.
                self.broadcast_markers(f, epoch);
            }
        }
    }

    fn finish_epoch_flush(&mut self, f: FlowletId, epoch: u64) {
        self.broadcast_markers(f, epoch);
        self.set_phase(f, Phase::Active);
    }

    fn broadcast_markers(&mut self, f: FlowletId, epoch: u64) {
        let graph = Arc::clone(&self.plan.graph);
        for &edge in &graph.flowlets[f].out_edges {
            for dst in 0..self.nodes {
                let _ = self.endpoint.send(dst, NetMsg::Marker { edge, epoch });
            }
        }
    }

    /// Chunk drained accumulator entries into parallel finish tasks.
    /// Returns the number of tasks dispatched.
    fn fire_entries(&mut self, f: FlowletId, mut entries: Vec<(Bytes, AccBox)>) -> usize {
        if entries.is_empty() {
            return 0;
        }
        // One finish task per worker.
        let chunk = entries.len().div_ceil(self.threads);
        let mut tasks = Vec::new();
        while !entries.is_empty() {
            let rest = entries.split_off(chunk.min(entries.len()));
            let batch = std::mem::replace(&mut entries, rest);
            tasks.push(Task::FirePartial {
                flowlet: f,
                entries: batch,
            });
        }
        let n = tasks.len();
        self.dispatch_batch(tasks);
        n
    }

    /// The one place an instance's phase changes.
    fn set_phase(&mut self, f: FlowletId, next: Phase) {
        let phase = &mut self.instances[f].phase;
        debug_assert!(
            phase.may_become(next),
            "flowlet {f}: illegal phase change {phase:?} -> {next:?}"
        );
        *phase = next;
    }

    /// Advance a flowlet's lifecycle when its current phase has run dry.
    fn check_transition(&mut self, f: FlowletId) {
        let (phase, idle, fire_left) = {
            let inst = &self.instances[f];
            (
                inst.phase,
                inst.running == 0 && self.shared.flow.deferred_for(f) == 0,
                inst.fire_left,
            )
        };
        match phase {
            Phase::Complete => {}
            Phase::Active => {
                let ready = {
                    let inst = &self.instances[f];
                    match self.flowlet_tag(f) {
                        Tag::Source => match self.plan.graph.flowlets[f].kind {
                            FlowletKind::Loader(_) => inst.splits_done == inst.splits_total && idle,
                            _ => inst.stream_finished && inst.marker_owed.is_none() && idle,
                        },
                        _ => inst.input_done() && inst.pending.is_empty() && idle,
                    }
                };
                if !ready {
                    return;
                }
                match self.flowlet_tag(f) {
                    Tag::Reduce => self.fire_reduce(f),
                    Tag::Partial => self.fire_partial(f),
                    _ => self.finish_producing(f),
                }
            }
            Phase::Firing => {
                if fire_left == 0 && idle {
                    self.finish_producing(f);
                }
            }
            Phase::FlushingCombine => {
                // `idle`: every bin the flush task closed is past the
                // deferred queue, in its link's FIFO.
                if fire_left == 0 && idle {
                    self.begin_complete(f);
                }
            }
            Phase::FlushingEpoch(epoch) => {
                if fire_left == 0 && idle {
                    self.finish_epoch_flush(f, epoch);
                }
            }
        }
    }

    fn fire_reduce(&mut self, f: FlowletId) {
        // Take exclusive ownership of the collected state; every ingest
        // task has finished (running == 0), so ours is the last Arc.
        let state_arc = self.shared.reduce[f]
            .lock()
            .take()
            .expect("reduce state present at fire");
        let state = Arc::try_unwrap(state_arc)
            .unwrap_or_else(|_| panic!("reduce state still shared at fire"));
        self.fmetrics[f].spilled_bytes += state.spilled_bytes();
        match state.into_shards() {
            Ok(shards) => {
                // Empty shards would only inflate task/steal counts;
                // skip them before dispatch.
                let tasks: Vec<Task> = shards
                    .into_iter()
                    .filter(|s| !s.is_empty())
                    .map(|shard| Task::FireReduce { flowlet: f, shard })
                    .collect();
                let n = tasks.len();
                self.shared.obs.tracer.emit(
                    self.node as u32,
                    WORKER_RUNTIME,
                    EventKind::ReduceFire {
                        flowlet: f as u32,
                        shards: n as u32,
                    },
                );
                self.dispatch_batch(tasks);
                self.set_phase(f, Phase::Firing);
                self.instances[f].fire_left = n;
                if n == 0 {
                    self.finish_producing(f);
                }
            }
            Err(e) => {
                self.error = Some(format!("reduce fire failed: {e}"));
            }
        }
    }

    fn fire_partial(&mut self, f: FlowletId) {
        let entries = self.shared.partial[f].as_ref().expect("state").drain();
        let n = self.fire_entries(f, entries);
        self.set_phase(f, Phase::Firing);
        self.instances[f].fire_left = n;
        if n == 0 {
            self.finish_producing(f);
        }
    }

    /// `f` has run its last producing task and shipped its bins. What
    /// its workers' combine buffers still hold must leave before the
    /// completion broadcast: one flush task drains them all (no other
    /// task of `f` runs, so every buffer is on the shelf), and the
    /// flowlet completes when that task's bins are in their links'
    /// FIFOs — `EdgeComplete` stays behind every held record by the
    /// same ordering as behind any bin.
    fn finish_producing(&mut self, f: FlowletId) {
        if self.held_partials(f) == 0 {
            return self.begin_complete(f);
        }
        self.set_phase(f, Phase::FlushingCombine);
        self.instances[f].fire_left = 1;
        self.dispatch(Task::FlushCombine { flowlet: f });
    }

    /// Broadcast completion on every out-edge and retire the flowlet.
    fn begin_complete(&mut self, f: FlowletId) {
        debug_assert_eq!(
            self.held_partials(f),
            0,
            "flowlet {f} completes over undrained combine buffers"
        );
        // Fault injection: swallow the completion broadcast so every
        // downstream consumer waits forever on this node's EdgeComplete
        // — a pure hang with all workers idle.
        let swallow = matches!(self.cfg.fault, FaultInjection::SwallowEdgeComplete { node } if node == self.node);
        let graph = Arc::clone(&self.plan.graph);
        if !swallow {
            for &edge in &graph.flowlets[f].out_edges {
                for dst in 0..self.nodes {
                    let _ = self.endpoint.send(dst, NetMsg::EdgeComplete { edge });
                }
            }
        }
        self.set_phase(f, Phase::Complete);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tag {
    Source,
    Map,
    Reduce,
    Partial,
}

#[cfg(test)]
mod tests {
    use super::Phase::{self, *};

    #[test]
    fn phase_transitions_are_the_documented_table() {
        let all = [Active, Firing, FlushingCombine, FlushingEpoch(3), Complete];
        // Each row filters all five successors: 5 × 5 pairs judged.
        let next = |from: Phase| all.into_iter().filter(move |&to| from.may_become(to));
        assert!(next(Active).eq([Firing, FlushingCombine, FlushingEpoch(3), Complete]));
        assert!(next(Firing).eq([FlushingCombine, Complete]));
        assert!(next(FlushingCombine).eq([Complete]));
        assert!(next(FlushingEpoch(3)).eq([Active]));
        assert_eq!(next(Complete).count(), 0);
    }
}
