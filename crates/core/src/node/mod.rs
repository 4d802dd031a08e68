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
//!   [`Pool`] injector and processes completion/ack bookkeeping.
//!   Workers fetch from their own LIFO deque, steal FIFO from peers,
//!   and ship each bin *directly* through the shared [`FlowControl`]
//!   the moment it closes, mid-task — a flow-control defer/resume
//!   never round-trips the runtime thread, and a consumer can fire on
//!   a bin while its producer still runs.
//! * **Deterministic** — no worker threads; a seeded PRNG replays one
//!   task interleaving inline on the runtime thread. The differential
//!   oracle for the threaded mode.
//!
//! ## Scheduling (paper §2, Fig. 2)
//! * A flowlet **task** is the finest unit: one loader split, one bin
//!   through a map/partial-reduce, one reduce ingest, or one fire shard.
//! * Map and partial-reduce tasks become ready per-bin — downstream
//!   work starts long before upstream completes (fine-grain async),
//!   and long before the upstream *task* ends: its bins leave as they
//!   close.
//! * A loader split becomes ready when its input has arrived — for the
//!   DFS line loader, one *packet* of a block, not the whole block: the
//!   pump submits the split's device read (`Loader::prepare`, which
//!   answers when the split's last byte will be in memory) and
//!   dispatches the split once that instant has passed, so no worker
//!   ever sleeps on a device and a block's first packet is mapped while
//!   the rest of it is still on the device. The runtime thread is the
//!   completion queue — its idle wait is bounded by the earliest read
//!   it awaits.
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
//! after it), so the same rules bound the splits prepared and not done
//! to `LOADER_CONCURRENCY` + 1 per loader per node. One read may serve
//! several splits (a DFS block serves each of its packets), and a
//! loader may book one read beyond those of its prepared splits, so
//! the device has the next block queued while a block's packets load:
//! at most `LOADER_CONCURRENCY` + 2 reads are booked and not yet wholly
//! loaded (`tests/read_ahead.rs` checks both bounds).
//! Progress is deadlock-free because
//! the graph is acyclic: sinks never defer, so windows always
//! eventually drain. The window and deferred-queue state live in
//! [`FlowControl`] (see `outbuf/flow.rs`), shared between the runtime thread
//! and (under work stealing) the workers.
//!
//! The same windows decide when in-node combine buffers empty. A
//! buffer belongs to a worker and outlives its tasks; at a task's end
//! it hands on, per destination, only what fits under
//! `COMBINE_LOW_WATER` unacknowledged bins. While a link is saturated
//! its producers therefore keep folding duplicates instead of queueing
//! bins behind it — and never overflow the window, which would park
//! bins in the deferred queue and suspend the flowlet — and an idle
//! consumer, whose window is empty, is fed at every task end as if the
//! buffer were the task's. What a buffer holds is bounded by
//! `COMBINE_BUDGET`, not by the window.
//!
//! One module per concern: [`exec`] runs a task to completion on
//! whichever thread took it, [`pump`] admits work into tasks, [`phase`]
//! is the instance lifecycle, [`fire`] what happens at its turns; this
//! file owns the runtime thread's loop and its two inboxes.

mod exec;
mod fire;
mod phase;
mod pump;

use crate::config::{FaultInjection, RuntimeConfig, SchedMode};
use crate::error::RunError;
use crate::flowlet::TaskContext;
use crate::graph::{EdgeId, FlowletId, FlowletKind};
use crate::metrics::{FlowletMetrics, NodeMetrics};
use crate::outbuf::{CombineShelf, FlowControl};
use crate::plan::ExecPlan;
use crate::record::{Captured, CodedBin, FrameBin};
use crate::reduce_state::{PartialState, ReduceState};
use crate::sched::Pool;
use crate::NodeId;
use crossbeam::channel::{unbounded, Receiver};
use exec::{ws_worker_loop, Exec, TaskDone, WorkerShared};
use hamr_simnet::{Endpoint, Envelope, Payload};
use hamr_trace::{AuditBin, Gauge, Labels, Observe, TaskKind, WORKER_RUNTIME};
use parking_lot::Mutex;
use phase::Phase;
use pump::{Instance, Work};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages exchanged between node runtimes over the fabric.
pub(crate) enum NetMsg {
    /// A bin of records for `bin.edge`'s destination flowlet, sent to
    /// the sender's own node.
    Bin(FrameBin),
    /// The same, sent to another node: coded for the link.
    Coded(CodedBin),
    /// The sender's instance of `edge`'s source flowlet has finished
    /// producing on `edge`.
    EdgeComplete { edge: EdgeId },
    /// Streaming punctuation: the sender finished `epoch` on `edge`.
    Marker { edge: EdgeId, epoch: u64 },
    /// The receiver finished processing one bin the addressee sent on
    /// `edge`.
    Ack { edge: EdgeId },
    /// A node hit a fatal error; everyone stops and reports it.
    Abort { error: Arc<RunError> },
}

impl Payload for NetMsg {
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Bin(b) => b.wire_size(),
            NetMsg::Coded(c) => c.wire_size(),
            _ => 24,
        }
    }

    /// Only data bins enter the audit ledger, with their raw payload
    /// bytes whatever the link carried; acks, completion messages,
    /// markers, and aborts are control traffic.
    fn audit_bin(&self) -> Option<AuditBin> {
        let (edge, records, bytes) = match self {
            NetMsg::Bin(b) => (b.edge, b.len(), b.payload_bytes()),
            NetMsg::Coded(c) => (c.edge, c.records, c.raw_bytes),
            _ => return None,
        };
        Some(AuditBin {
            edge: edge as u32,
            records: records as u64,
            bytes: bytes as u64,
        })
    }
}

/// What a node hands back to the driver.
pub(crate) struct NodeOutcome {
    pub captured: HashMap<FlowletId, Captured>,
    pub flowlets: Vec<FlowletMetrics>,
    pub node_metrics: NodeMetrics,
    pub error: Option<RunError>,
    /// Pinned frame clones captured on cache-filling edges, keyed by
    /// (edge, destination node). The driver groups them per flowlet and
    /// inserts them into the cluster's [`crate::resident::ResidentStore`].
    pub fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
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
    captured: HashMap<FlowletId, Captured>,
    fmetrics: Vec<FlowletMetrics>,
    nmetrics: NodeMetrics,
    busy: Duration,
    start: Instant,
    error: Option<RunError>,
    /// Gauges: per-flowlet bin-queue depth, indexed by flowlet.
    queue_gauges: Vec<Gauge>,
    /// Gauge: bytes resident in queued (pending) bins.
    pending_bytes_gauge: Gauge,
    /// When the earliest read this node waits for will be done: the
    /// `ready_at` of a split that passes every admission rule but
    /// whose input has not arrived yet. Set by the last
    /// `pump`; bounds the idle wait.
    wake_at: Option<Instant>,
    /// Gauge: 1 while `wake_at` is set — the runtime is waiting for a
    /// device, which the watchdog must not take for a hang.
    awaiting_read_gauge: Gauge,
    /// Frames this node's tasks pinned for the resident store.
    fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
}

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
            partial.push(match &def.kind {
                FlowletKind::PartialReduce(r) => Some(Arc::new(PartialState::new(Arc::clone(r)))),
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
                    input_expected: (def.in_edges.iter())
                        .map(|&e| graph.edges[e].exchange.peers(node, nodes).len())
                        .sum(),
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
                self.error = Some(RunError::NodePanic {
                    node: self.node,
                    message: format!(
                        "runtime stalled for 300s (scheduler bug or deadlock): {}",
                        self.stall_report()
                    ),
                });
                break;
            }
            // Nothing to do right now: block for the next event. A read
            // this node awaits completes at an instant known since its
            // submission, so the timeout is the device's completion
            // queue: the wait ends when the input is there.
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
        if let Exec::WorkStealing { pool, workers } = &mut self.exec {
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
        // No task runs any more. A job that completed has drained its
        // combine buffers; an aborted one drops what they hold with
        // `shared`, and the ledger's combine row says how much.
        self.shared.combine.retire();
        // Flow-control counters accumulated off the runtime thread.
        self.shared.flow.fold_into(&mut self.fmetrics);
        self.nmetrics.busy = self.busy;
        self.nmetrics.elapsed = self.start.elapsed();
        NodeOutcome {
            captured: std::mem::take(&mut self.captured),
            flowlets: std::mem::take(&mut self.fmetrics),
            node_metrics: std::mem::take(&mut self.nmetrics),
            error: self.error.take(),
            fill: std::mem::take(&mut self.fill),
        }
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
            NetMsg::Coded(coded) => {
                let edge = coded.edge;
                match coded.decode() {
                    Ok(bin) => self.enqueue_bin(env.from, false, bin),
                    Err(e) => self.abort(RunError::NodePanic {
                        node: self.node,
                        message: format!(
                            "a bin from node {} on edge {edge} does not decode: {e}",
                            env.from
                        ),
                    }),
                }
            }
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
            NetMsg::Abort { error } => {
                self.error.get_or_insert_with(|| RunError::clone(&error));
            }
        }
    }

    /// Stop the job with `error`, and tell everyone, so every node
    /// reports the same one. Our own loopback Abort is harmless — we
    /// already stop via `error`.
    pub(super) fn abort(&mut self, error: RunError) {
        let shared = Arc::new(error.clone());
        for dst in 0..self.nodes {
            let error = Arc::clone(&shared);
            let _ = self.endpoint.send(dst, NetMsg::Abort { error });
        }
        self.error = Some(error);
    }

    fn handle_done(&mut self, done: TaskDone) {
        self.outstanding -= 1;
        self.busy += done.duration;
        if let Some(error) = done.failed {
            return self.abort(error);
        }
        let f = done.flowlet;
        {
            let inst = &mut self.instances[f];
            inst.running -= 1;
            match done.kind {
                TaskKind::LoaderSplit => {
                    inst.loader_running -= 1;
                    inst.splits_done += 1;
                }
                // The flush task is the last of its flowlet's fire:
                // `fire_left` counts it like a shard.
                TaskKind::FireReduce | TaskKind::FirePartial | TaskKind::FlushCombine => {
                    inst.fire_left -= 1
                }
                _ => {}
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
        fm.task_latency.record_duration(done.duration);
        if !done.captured.is_empty() {
            self.captured.entry(f).or_default().append(done.captured);
        }
        self.fill.extend(done.fill);
    }
}
