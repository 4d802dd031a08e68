//! Task execution: what a task is, how one runs to completion on
//! whichever thread took it, and the two backends that pick the thread.

use super::{NetMsg, NodeRuntime};
use crate::error::{panic_message, RunError};
use crate::flowlet::{AccTable, Emitter, TaskContext};
use crate::graph::{EdgeId, FlowletId, FlowletKind};
use crate::outbuf::{CombineShelf, FlowControl, TaskOutput};
use crate::plan::ExecPlan;
use crate::record::FrameBin;
use crate::reduce_state::{FireShard, PartialState, ReduceState};
use crate::sched::{Pool, Source};
use crate::NodeId;
use crossbeam::channel::Sender;
use hamr_codec::stable_hash;
use hamr_simnet::Endpoint;
use hamr_trace::{AuditStage, EventKind, Gauge, Observe, TaskKind};
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A task handed to a worker thread.
pub(super) enum Task {
    LoaderSplit {
        flowlet: FlowletId,
        index: usize,
    },
    StreamEpoch {
        flowlet: FlowletId,
        epoch: u64,
    },
    /// One input bin through a map, into a partial reduce's
    /// accumulators or into a reduce's group state: the flowlet's kind
    /// says which. `ack` is owed to the bin's sender when the task ends.
    Bin {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    FireReduce {
        flowlet: FlowletId,
        shard: FireShard,
    },
    /// Finish whole stripe tables of a partial reduce.
    FirePartial {
        flowlet: FlowletId,
        tables: Vec<AccTable>,
    },
    /// Drain every worker's combine buffers for `flowlet`, which has
    /// produced its last record: what they still hold ships ahead of
    /// the flowlet's `EdgeComplete`.
    FlushCombine {
        flowlet: FlowletId,
    },
}

impl Task {
    pub(super) fn flowlet(&self) -> FlowletId {
        match self {
            Task::LoaderSplit { flowlet, .. }
            | Task::StreamEpoch { flowlet, .. }
            | Task::Bin { flowlet, .. }
            | Task::FireReduce { flowlet, .. }
            | Task::FirePartial { flowlet, .. }
            | Task::FlushCombine { flowlet } => *flowlet,
        }
    }

    /// What the tracer and the runtime's bookkeeping call this task; a
    /// bin's is named after the `kind` of flowlet that consumes it.
    fn trace_kind(&self, kind: &FlowletKind) -> TaskKind {
        match (self, kind) {
            (Task::LoaderSplit { .. }, _) => TaskKind::LoaderSplit,
            (Task::StreamEpoch { .. }, _) => TaskKind::StreamEpoch,
            (Task::Bin { .. }, FlowletKind::Map(_)) => TaskKind::MapBin,
            (Task::Bin { .. }, FlowletKind::PartialReduce(_)) => TaskKind::PartialFold,
            // A source is handed no bin; `execute_task` refuses one.
            (Task::Bin { .. }, _) => TaskKind::ReduceIngest,
            (Task::FireReduce { .. }, _) => TaskKind::FireReduce,
            (Task::FirePartial { .. }, _) => TaskKind::FirePartial,
            (Task::FlushCombine { .. }, _) => TaskKind::FlushCombine,
        }
    }
}

/// A worker's report after executing one task.
pub(super) struct TaskDone {
    pub(super) flowlet: FlowletId,
    /// Which of the instance's counters the task's end moves.
    pub(super) kind: TaskKind,
    pub(super) captured: Vec<hamr_codec::Frame>,
    /// Frames pinned for the resident store (see `TaskParts::fill`).
    pub(super) fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
    ack_to: Option<(NodeId, EdgeId)>,
    /// For stream tasks: (epoch, more-epochs-follow).
    pub(super) stream: Option<(u64, bool)>,
    pub(super) records_in: u64,
    pub(super) records_out: u64,
    /// Records absorbed by the task's combine buffers.
    /// Restores records_out to its pre-combine value for shuffle-volume
    /// comparability with the mapred baseline.
    pub(super) combined: u64,
    pub(super) duration: Duration,
    /// Why the task failed — a panic, or a spill run it could not write
    /// or read back — which fails the job.
    pub(super) failed: Option<RunError>,
}

/// State shared with worker threads.
pub(super) struct WorkerShared {
    /// The compiled job: graph, ports, names, combiners, and every
    /// per-edge decision a task reads.
    pub(super) plan: Arc<ExecPlan>,
    pub(super) ctx: TaskContext,
    pub(super) partial: Vec<Option<Arc<PartialState>>>,
    pub(super) reduce: Vec<Mutex<Option<Arc<ReduceState>>>>,
    /// Outbound windows + deferred queue. A task's output ships its
    /// bins through it as they close, and a task's end reads its
    /// windows to decide how much of its combine buffers to drain.
    pub(super) flow: Arc<FlowControl>,
    /// Every worker's combine buffers, lent to the task it executes.
    pub(super) combine: CombineShelf,
    /// The job's tracer, ledger, registry and statistics plane.
    pub(super) obs: Observe,
    /// Gauge: workers currently executing a task on this node.
    pub(super) busy_gauge: Gauge,
}

impl WorkerShared {
    /// Note the terminal lineage hop of a bin a reduce ingests over a
    /// sketched edge (the plane ignores the rest: a local-edge fold is
    /// not a reduce ingest). Samples are keyed by hash and frames carry
    /// none, so this hashes every key of the bin — lazily, and only
    /// when the plane reads them: under `HAMR_STATS=full`.
    fn stats_consume(&self, bin: &FrameBin, flowlet: FlowletId) {
        if let Some(plane) = &self.obs.stats {
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

/// Run one task to completion. The calling worker's combine buffers are
/// lent to the task's output off `shared.combine` and shelved again at
/// its end.
pub(super) fn execute_task(shared: &WorkerShared, worker_id: usize, task: Task) -> TaskDone {
    let start = Instant::now();
    let flowlet = task.flowlet();
    let kind = &shared.plan.graph.flowlets[flowlet].kind;
    let trace_kind = task.trace_kind(kind);
    shared.busy_gauge.add(1);
    shared.obs.tracer.emit(
        shared.ctx.node as u32,
        worker_id as u32,
        EventKind::TaskStart {
            task: trace_kind,
            flowlet: flowlet as u32,
        },
    );
    let mut failed = None;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut out = TaskOutput::new(
            &shared.plan,
            flowlet,
            shared.ctx.node,
            worker_id as u32,
            &shared.obs,
            &shared.combine,
            &shared.flow,
        );
        let mut records_in = 0u64;
        let mut ack_to = None;
        let mut stream = None;
        if let Task::Bin { ack, bin, .. } = &task {
            records_in = bin.len() as u64;
            // The final checkpoint of the ledger's emit -> ship ->
            // deliver -> consume conservation chain.
            bin.audit(&shared.obs.audit, AuditStage::Consume, shared.ctx.node);
            ack_to = *ack;
        }
        match (task, kind) {
            (Task::LoaderSplit { index, .. }, FlowletKind::Loader(l)) => {
                l.load(&shared.ctx, index, &mut Emitter::new(&mut out));
            }
            (Task::StreamEpoch { epoch, .. }, FlowletKind::Stream(s)) => {
                let more = s.epoch(&shared.ctx, epoch, &mut Emitter::new(&mut out));
                stream = Some((epoch, more));
            }
            (Task::Bin { bin, .. }, FlowletKind::Map(m)) => {
                let mut em = Emitter::new(&mut out);
                for (key, value) in bin.frame.iter() {
                    m.map(&shared.ctx, key, value, &mut em);
                }
            }
            (Task::Bin { bin, .. }, FlowletKind::PartialReduce(_)) => {
                // Partial reduce IS the reduce stage for partial-only
                // topologies (the histogram family): record the
                // consume hop so sampled lineage ends at a reducer.
                shared.stats_consume(&bin, flowlet);
                let state = shared.partial[flowlet]
                    .as_ref()
                    .expect("partial state exists");
                state.fold_bin(&bin);
            }
            (Task::Bin { bin, .. }, FlowletKind::Reduce(_)) => {
                shared.stats_consume(&bin, flowlet);
                let state = shared.reduce[flowlet]
                    .lock()
                    .clone()
                    .expect("reduce state exists");
                failed = state.ingest(worker_id, &bin).err().map(RunError::Disk);
            }
            (Task::FireReduce { shard, .. }, FlowletKind::Reduce(r)) => {
                // Not counted as records_in: these records were
                // already counted when their bins were ingested.
                let mut em = Emitter::new(&mut out);
                let fired = shard.fire(|key, values| r.reduce(&shared.ctx, key, values, &mut em));
                failed = fired.err().map(RunError::Disk);
            }
            (Task::FirePartial { tables, .. }, FlowletKind::PartialReduce(r)) => {
                // Accumulators, not input records; skip records_in.
                let mut em = Emitter::new(&mut out);
                for table in tables {
                    r.finish(&shared.ctx, table, &mut em);
                }
            }
            (Task::FlushCombine { .. }, _) => out.flush_held(&shared.combine),
            // The pumps build a task from its flowlet's kind.
            (_, kind) => unreachable!("{trace_kind:?} task for a {}", kind.kind_name()),
        }
        (out.into_parts(&shared.combine), records_in, ack_to, stream)
    }));
    let panic = result.as_ref().err().map(|payload| {
        let (name, node) = (&shared.plan.graph.flowlets[flowlet].name, shared.ctx.node);
        let message = panic_message(payload.as_ref(), "flowlet task panicked");
        let message = format!("flowlet '{name}' on node {node}: {message}");
        RunError::NodePanic { node, message }
    });
    // A task that panicked hands over nothing more: the bins it closed
    // have left, and the job aborts.
    let (parts, records_in, ack_to, stream) = result.unwrap_or_default();
    let done = TaskDone {
        flowlet,
        kind: trace_kind,
        records_out: parts.records_out,
        captured: parts.captured,
        fill: parts.fill,
        ack_to,
        stream,
        records_in,
        combined: parts.combined,
        duration: start.elapsed(),
        failed: panic.or(failed),
    };
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

/// Acknowledge a finished task's input bin: the one thing that leaves
/// at a task's end, since its bins left as they closed. Called by the
/// executing thread itself: under work stealing that is the worker, so
/// the ack never waits on the runtime loop; under the deterministic
/// replay it is the runtime thread.
pub(super) fn ack_done(endpoint: &Endpoint<NetMsg>, done: &mut TaskDone) {
    if done.failed.is_some() {
        // Keep the ack; the runtime aborts the job.
        return;
    }
    if let Some((origin, edge)) = done.ack_to.take() {
        let _ = endpoint.send(origin, NetMsg::Ack { edge });
    }
}

/// Work-stealing worker: fetch from the pool (own deque → injector →
/// steal sweep), execute (the task ships its own bins), ack, park
/// bounded when the node is drained.
pub(super) fn ws_worker_loop(
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
                ack_done(&endpoint, &mut done);
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

/// The task execution backend, selected by [`crate::SchedMode`].
pub(super) enum Exec {
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

impl NodeRuntime {
    /// Deterministic mode: run one seeded-random ready task inline on
    /// the runtime thread. Returns true if a task ran. No-op under
    /// work stealing.
    pub(super) fn deterministic_step(&mut self) -> bool {
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
        ack_done(&self.endpoint, &mut done);
        self.handle_done(done);
        true
    }

    pub(super) fn dispatch(&mut self, task: Task) {
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
    pub(super) fn dispatch_batch(&mut self, tasks: Vec<Task>) {
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
    /// idle peers can steal them, and `DEFER_HIGH_WATER` still bounds
    /// memory.
    pub(super) fn has_capacity(&self) -> bool {
        let cap = match &self.exec {
            Exec::WorkStealing { .. } => self.threads * 4,
            _ => self.threads * 2,
        };
        self.outstanding < cap
    }
}
