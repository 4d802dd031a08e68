//! The MapReduce job driver: scheduling, phases, and the shuffle.

use crate::maptask::{run_map_task, MapTaskResult};
use crate::reducetask::{run_reduce_task, ReduceTaskResult};
use crate::JobConf;
use crossbeam::channel::Receiver;
use hamr_dfs::{Dfs, DfsError, Split};
use hamr_simdisk::{Disk, DiskError};
use hamr_simnet::{Envelope, Fabric, NetConfig, NetError, Payload};
use hamr_trace::{
    Audit, AuditBin, AuditReport, AuditStage, EventKind, Gauge, JobRow, JournalRecord, JournalSlot,
    Labels, MetricsRegistry, Observe, TaskKind, Tracer, WORKER_RUNTIME,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job and task launch overheads — the JVM/job-submission costs Hadoop
/// pays and HAMR avoids by chaining flowlets in one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupModel {
    /// One-time cost when a job starts (submission, AM spin-up).
    pub job: Duration,
    /// Cost per task launch (container/JVM fork).
    pub task: Duration,
}

impl StartupModel {
    /// No startup costs (correctness tests).
    pub fn instant() -> Self {
        StartupModel {
            job: Duration::ZERO,
            task: Duration::ZERO,
        }
    }

    /// Typical scaled-down costs.
    pub fn modeled(job: Duration, task: Duration) -> Self {
        StartupModel { job, task }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct MrConfig {
    pub nodes: usize,
    /// Task slots per node: concurrent map tasks, then concurrent
    /// reduce tasks.
    pub slots: usize,
    /// Map-side sort buffer budget per task (io.sort.mb).
    pub sort_buffer: usize,
    pub net: NetConfig,
    pub startup: StartupModel,
}

impl MrConfig {
    /// Untimed config for correctness tests.
    pub fn local(nodes: usize, slots: usize) -> Self {
        MrConfig {
            nodes,
            slots,
            sort_buffer: 4 << 20,
            net: NetConfig::instant(),
            startup: StartupModel::instant(),
        }
    }
}

/// Errors from running a job.
#[derive(Debug)]
pub enum MrError {
    Dfs(DfsError),
    Disk(DiskError),
    Net(NetError),
    TaskPanic(String),
    /// A shuffle chunk ended inside the entry at `offset`: reducing it
    /// would silently drop the rest of the chunk.
    TruncatedChunk {
        reducer: usize,
        offset: u64,
    },
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Dfs(e) => write!(f, "dfs: {e}"),
            MrError::Disk(e) => write!(f, "disk: {e}"),
            MrError::Net(e) => write!(f, "net: {e}"),
            MrError::TaskPanic(m) => write!(f, "task panicked: {m}"),
            MrError::TruncatedChunk { reducer, offset } => {
                write!(
                    f,
                    "shuffle chunk for reducer {reducer} torn at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for MrError {}

impl From<DfsError> for MrError {
    fn from(e: DfsError) -> Self {
        MrError::Dfs(e)
    }
}
impl From<DiskError> for MrError {
    fn from(e: DiskError) -> Self {
        MrError::Disk(e)
    }
}
impl From<NetError> for MrError {
    fn from(e: NetError) -> Self {
        MrError::Net(e)
    }
}

/// Measurements from one job run.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    pub name: String,
    pub elapsed: Duration,
    pub map_phase: Duration,
    pub reduce_phase: Duration,
    pub map_tasks: usize,
    /// Map tasks that ran on a node holding their split (locality hits).
    pub local_map_tasks: usize,
    pub reduce_tasks: usize,
    pub map_records_in: u64,
    pub map_records_out: u64,
    pub spills: u64,
    pub spilled_bytes: u64,
    pub shuffled_bytes: u64,
    pub reduce_records_in: u64,
    pub reduce_records_out: u64,
    /// Distinct shuffle keys, exactly: reducer key ranges are disjoint,
    /// so the groups of every reduce task sum without double counting.
    pub groups: u64,
    pub output_bytes: u64,
}

impl JobStats {
    /// The job's row, the baseline's side of `hamr timeline` and of
    /// the workloads' per-job lists: records into the shuffle are the
    /// maps' output, distinct keys the exact reduce groups. It has no
    /// resident cache, no flow-control stall and no task histogram, so
    /// those columns are `None`.
    pub fn row(&self) -> JobRow {
        JobRow {
            job: self.name.clone(),
            ok: true,
            elapsed_us: self.elapsed.as_micros() as u64,
            shuffled_bytes: self.shuffled_bytes,
            shuffle_records: Some(self.map_records_out),
            distinct_keys: Some(self.groups),
            ..JobRow::default()
        }
    }

    /// Fold this job's totals into the unified registry as cumulative
    /// engine-labeled series — the MapReduce counterpart of
    /// `hamr_core::JobMetrics::publish`, sharing metric names where the
    /// semantics match (`shuffled_bytes_total`, `spilled_bytes_total`)
    /// so cross-engine comparisons are one label filter away.
    pub fn publish(&self, registry: &MetricsRegistry, engine: &str) {
        let eng = || Labels::new().engine(engine);
        registry
            .counter("job_runs_total", eng().job(self.name.clone()))
            .inc();
        registry
            .counter("shuffled_bytes_total", eng())
            .add(self.shuffled_bytes);
        registry
            .counter("spilled_bytes_total", eng())
            .add(self.spilled_bytes);
        registry.counter("spills_total", eng()).add(self.spills);
        registry
            .counter("map_tasks_total", eng())
            .add(self.map_tasks as u64);
        registry
            .counter("local_map_tasks_total", eng())
            .add(self.local_map_tasks as u64);
        registry
            .counter("reduce_tasks_total", eng())
            .add(self.reduce_tasks as u64);
        registry
            .counter("map_records_in_total", eng())
            .add(self.map_records_in);
        registry
            .counter("map_records_out_total", eng())
            .add(self.map_records_out);
        registry
            .counter("reduce_records_in_total", eng())
            .add(self.reduce_records_in);
        registry
            .counter("reduce_records_out_total", eng())
            .add(self.reduce_records_out);
        registry
            .counter("output_bytes_total", eng())
            .add(self.output_bytes);
        registry
            .histogram("mr_phase_us", eng())
            .record(self.map_phase.as_micros() as u64);
        registry
            .histogram("mr_phase_us", eng())
            .record(self.reduce_phase.as_micros() as u64);
    }
}

/// A chunk of map output traveling to a reducer's node.
struct ShuffleMsg {
    reducer: usize,
    data: Arc<Vec<u8>>,
}

impl Payload for ShuffleMsg {
    fn wire_size(&self) -> usize {
        self.data.len() + 16
    }

    /// Shuffle chunks are the MapReduce analogue of HAMR bins: one
    /// ledger edge (0), no record counts (the engine moves opaque
    /// sorted runs), payload bytes carry the conservation proof.
    fn audit_bin(&self) -> Option<AuditBin> {
        Some(AuditBin {
            edge: 0,
            records: 0,
            bytes: self.data.len() as u64,
        })
    }
}

/// Simple work queue with locality: per-node deques plus stealing.
struct Scheduler {
    queues: Vec<VecDeque<usize>>,
}

impl Scheduler {
    fn new(nodes: usize, tasks: &[Split]) -> Self {
        let mut queues = vec![VecDeque::new(); nodes];
        for (i, split) in tasks.iter().enumerate() {
            let primary = split.locations.first().copied().unwrap_or(i % nodes);
            queues[primary % nodes].push_back(i);
        }
        Scheduler { queues }
    }

    /// Take a local task if any, else steal the longest queue's tail.
    /// Returns (task, was_local, the local task this node takes next) —
    /// the last so the slot can start that split's disk read now.
    fn take(&mut self, node: usize) -> Option<(usize, bool, Option<usize>)> {
        if let Some(t) = self.queues[node].pop_front() {
            return Some((t, true, self.queues[node].front().copied()));
        }
        let victim = (0..self.queues.len()).max_by_key(|&n| self.queues[n].len())?;
        self.queues[victim].pop_back().map(|t| (t, false, None))
    }
}

/// How one MapReduce job is run — the baseline's counterpart of
/// `hamr_core::RunOptions`. The default is an unobserved run.
#[derive(Debug, Clone, Default)]
pub struct MrRunOptions {
    /// Where trace events go. Map and reduce tasks appear as
    /// `MrMap`/`MrReduce` spans keyed by the executing node and slot
    /// (flowlet 0 is the map phase, flowlet 1 the reduce phase);
    /// shuffle traffic shows up as `NetSend`/`NetDeliver` through the
    /// fabric and task-local disk activity through each node's disk.
    pub tracer: Tracer,
    /// Tally every shuffle chunk at four custody points — emitted by
    /// the map task, shipped onto the fabric, delivered by the
    /// simulated network, consumed by the reducer-side collector — and
    /// keep the report for [`MrCluster::last_audit`], whose
    /// [`AuditReport::check`] proves conservation.
    pub audit: bool,
}

/// The MapReduce engine bound to a cluster's substrates.
pub struct MrCluster {
    config: MrConfig,
    disks: Vec<Disk>,
    dfs: Dfs,
    next_job: AtomicU64,
    /// What plain [`run`](MrCluster::run) calls run with — mirrors
    /// `hamr_core::Cluster` so benchmark harnesses can profile and
    /// audit both engines through the engine-agnostic `Benchmark`
    /// trait.
    options: Mutex<MrRunOptions>,
    last_audit: Mutex<Option<AuditReport>>,
    /// The introspection plane this engine reports into, usually the
    /// HAMR cluster's, shared by the benchmark env: with it, runs
    /// stream net/disk counters and gauges live under `engine="mapred"`,
    /// publish job totals at completion, and journal `JobStart` /
    /// `JobEnd` whenever the slot holds a journal.
    plane: Mutex<Option<(MetricsRegistry, JournalSlot)>>,
}

impl MrCluster {
    /// Build over existing substrates (shared with the HAMR engine in
    /// benchmarks).
    pub fn new(config: MrConfig, disks: Vec<Disk>, dfs: Dfs) -> Self {
        assert_eq!(disks.len(), config.nodes, "one disk per node");
        assert!(config.slots > 0);
        MrCluster {
            config,
            disks,
            dfs,
            next_job: AtomicU64::new(1),
            options: Mutex::new(MrRunOptions::default()),
            last_audit: Mutex::new(None),
            plane: Mutex::new(None),
        }
    }

    /// Report into another engine's introspection plane (typically the
    /// HAMR cluster's `registry()` and `journal_slot()`): one `/metrics`
    /// endpoint covers both engines, and one journal lists both
    /// engines' jobs — a journal attached to the slot later included.
    pub fn set_plane(&self, registry: MetricsRegistry, journal: JournalSlot) {
        *self.plane.lock() = Some((registry, journal));
    }

    /// Standalone in-memory cluster (tests).
    pub fn in_memory(nodes: usize, slots: usize) -> Self {
        let disks: Vec<Disk> = (0..nodes).map(|_| Disk::new(Default::default())).collect();
        let dfs = Dfs::new(disks.clone(), Default::default());
        MrCluster::new(MrConfig::local(nodes, slots), disks, dfs)
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    pub fn config(&self) -> &MrConfig {
        &self.config
    }

    /// Run one job to completion under the options last given to
    /// [`set_run_options`](MrCluster::set_run_options) (initially the
    /// default: unobserved).
    pub fn run(&self, conf: &JobConf) -> Result<JobStats, MrError> {
        let opts = self.options.lock().clone();
        self.run_with(conf, &opts)
    }

    /// Replace the options every plain [`run`](MrCluster::run) uses
    /// from now on; `MrRunOptions::default()` detaches everything.
    pub fn set_run_options(&self, opts: MrRunOptions) {
        *self.options.lock() = opts;
    }

    /// The audit report of the most recent audited run, if any.
    pub fn last_audit(&self) -> Option<AuditReport> {
        self.last_audit.lock().clone()
    }

    /// Run one job to completion under `opts`. The one run path:
    /// [`run`](MrCluster::run) is this with the cluster's stored options.
    pub fn run_with(&self, conf: &JobConf, opts: &MrRunOptions) -> Result<JobStats, MrError> {
        let plane = self.plane.lock().clone();
        let (registry, journal) = match plane {
            Some((registry, slot)) => (Some(registry), slot.get()),
            None => (None, None),
        };
        let obs = Observe {
            tracer: opts.tracer.clone(),
            audit: if opts.audit {
                Audit::new(1, self.config.nodes as u32)
            } else {
                Audit::disabled()
            },
            stats: None,
            registry,
            engine: "mapred",
        };
        if let Some(j) = &journal {
            j.append(&JournalRecord::JobStart {
                job: conf.name.clone(),
                engine: "mapred".into(),
                t_us: j.now_us(),
            });
        }
        let start = Instant::now();
        let result = self.run_observed(conf, &obs);
        if opts.audit {
            *self.last_audit.lock() = Some(obs.audit.report());
        }
        if let Some(j) = &journal {
            let row = match &result {
                Ok(stats) => stats.row(),
                Err(_) => JobRow {
                    job: conf.name.clone(),
                    elapsed_us: start.elapsed().as_micros() as u64,
                    ..JobRow::default()
                },
            };
            j.append(&JournalRecord::JobEnd {
                t_us: j.now_us(),
                row,
            });
        }
        result
    }

    fn run_observed(&self, conf: &JobConf, obs: &Observe) -> Result<JobStats, MrError> {
        let start = Instant::now();
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        if !self.config.startup.job.is_zero() {
            std::thread::sleep(self.config.startup.job);
        }
        let nodes = self.config.nodes;
        let reducers = if conf.reducers == 0 {
            nodes
        } else {
            conf.reducers
        };
        // Gather splits across all input paths.
        let mut splits: Vec<Split> = Vec::new();
        for path in &conf.input {
            splits.extend(self.dfs.splits(path)?);
        }
        let fabric = Fabric::<ShuffleMsg>::new_observed(nodes, self.config.net.clone(), obs);
        let inboxes = (0..nodes)
            .map(|node| fabric.receiver(node))
            .collect::<Result<Vec<_>, _>>()?;
        for (node, disk) in self.disks.iter().enumerate() {
            disk.observe(obs, node as u32);
        }
        let job = Job {
            mr: self,
            obs,
            active: (0..nodes)
                .map(|n| obs.gauge("mr_active_tasks", Labels::new().node(n as u32)))
                .collect(),
            stats: Mutex::new(JobStats {
                name: conf.name.clone(),
                map_tasks: splits.len(),
                reduce_tasks: reducers,
                ..Default::default()
            }),
            first_error: Mutex::new(None),
        };

        // --- map phase, each node's shuffle collector beside it -------
        let map_start = Instant::now();
        let fetched = std::thread::scope(|s| {
            let maps = splits.len();
            let collectors: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(node, rx)| {
                    s.spawn(move || collect_chunks(rx, node, nodes, reducers, maps, obs))
                })
                .collect();
            let scheduler = Mutex::new(Scheduler::new(nodes, &splits));
            job.phase(
                TaskKind::MrMap,
                |node| {
                    let (task, local, next) = scheduler.lock().take(node)?;
                    // HDFS clients read ahead too: the next local split's
                    // read proceeds while this one runs. This split goes
                    // first so that it is first on the spindle; booked by
                    // the previous take, a no-op.
                    for ahead in [Some(task), next].into_iter().flatten() {
                        let split = &splits[ahead];
                        self.dfs
                            .read_ahead(&split.path, split.block_index, Some(node));
                    }
                    job.stats.lock().local_map_tasks += usize::from(local);
                    Some(task)
                },
                |node, task| {
                    run_map_task(
                        conf,
                        job_id,
                        task,
                        &splits[task],
                        node,
                        &self.dfs,
                        &self.disks[node],
                        reducers,
                        self.config.sort_buffer,
                    )
                },
                |node, slot, res| job.serve(&fabric, node, slot, res),
            );
            job.stats.lock().map_phase = map_start.elapsed();
            if job.failed() {
                // Dropping the fabric's last handle closes the inboxes:
                // the collectors stop waiting for chunks that will never
                // come, and the scope joins them.
                drop(fabric);
                return None;
            }
            // The barrier: every reducer's fetches are in. Only then may
            // the fabric go, since on a modeled link its timer thread
            // holds the chunks still in flight.
            let fetched: Vec<_> = collectors
                .into_iter()
                .map(|c| c.join().expect("shuffle collector"))
                .collect();
            drop(fabric);
            Some(fetched)
        });

        // --- reduce phase, from each node's queue of fetched reducers -
        if let Some(fetched) = fetched {
            let reduce_start = Instant::now();
            let queues: Vec<Mutex<_>> = fetched.into_iter().map(Mutex::new).collect();
            job.phase(
                TaskKind::MrReduce,
                |node| queues[node].lock().pop_front(),
                |node, (r, chunks)| run_reduce_task(conf, r, node, chunks, &self.dfs),
                |_, _, res| {
                    let mut s = job.stats.lock();
                    s.reduce_records_in += res.records_in;
                    s.reduce_records_out += res.records_out;
                    s.groups += res.groups;
                    s.output_bytes += res.output_bytes;
                    Ok(())
                },
            );
            job.stats.lock().reduce_phase = reduce_start.elapsed();
        }
        for disk in &self.disks {
            disk.unobserve();
            // A split read ahead for a slot that never ran it (stolen
            // tail, failed job) serves no later job.
            disk.cancel_read_ahead();
        }
        if let Some(e) = job.first_error.into_inner() {
            // A failed task leaves its spill runs and partition files
            // behind; no later job reads them.
            let ours = [format!("mr.spill.j{job_id}."), format!("mr.out.j{job_id}.")];
            for disk in &self.disks {
                for file in disk.list() {
                    if ours.iter().any(|p| file.starts_with(p.as_str())) {
                        disk.delete(&file);
                    }
                }
            }
            return Err(e);
        }
        let mut stats = job.stats.into_inner();
        stats.elapsed = start.elapsed();
        if let Some(reg) = &obs.registry {
            stats.publish(reg, obs.engine);
        }
        Ok(stats)
    }
}

/// What every task slot of one running job shares.
struct Job<'a> {
    mr: &'a MrCluster,
    obs: &'a Observe,
    /// `mr_active_tasks`, one gauge per node.
    active: Vec<Gauge>,
    stats: Mutex<JobStats>,
    /// The first failure of any task; once set, no slot takes another.
    first_error: Mutex<Option<MrError>>,
}

/// The record counts a finished task reports in its `TaskEnd`.
trait Records {
    fn records(&self) -> (u64, u64);
}

impl Records for MapTaskResult {
    fn records(&self) -> (u64, u64) {
        (self.records_in, self.records_out)
    }
}

impl Records for ReduceTaskResult {
    fn records(&self) -> (u64, u64) {
        (self.records_in, self.records_out)
    }
}

impl Job<'_> {
    fn failed(&self) -> bool {
        self.first_error.lock().is_some()
    }

    /// Run one phase on the task slots: `slots` threads per node, each
    /// taking its node's `next` task until there is none or a task of
    /// the job has failed, running it as [`task`](Job::task) and handing
    /// the result to `finish`. The first error of either is the job's.
    fn phase<T, R: Records>(
        &self,
        kind: TaskKind,
        next: impl Fn(usize) -> Option<T> + Sync,
        run: impl Fn(usize, T) -> Result<R, MrError> + Sync,
        finish: impl Fn(usize, u32, R) -> Result<(), MrError> + Sync,
    ) {
        std::thread::scope(|s| {
            for node in 0..self.active.len() {
                for slot in 0..self.mr.config.slots as u32 {
                    let (next, run, finish) = (&next, &run, &finish);
                    s.spawn(move || {
                        while !self.failed() {
                            let Some(task) = next(node) else {
                                return;
                            };
                            let done = self
                                .task(kind, node, slot, || run(node, task))
                                .and_then(|res| finish(node, slot, res));
                            if let Err(e) = done {
                                self.first_error.lock().get_or_insert(e);
                            }
                        }
                    });
                }
            }
        });
    }

    /// One task on `slot` of `node`: pay the task start-up, count it in
    /// `mr_active_tasks` while it runs, and bracket it with `TaskStart`
    /// / `TaskEnd` (flowlet 0 for maps, 1 for reduces). A panic becomes
    /// [`MrError::TaskPanic`].
    fn task<R: Records>(
        &self,
        kind: TaskKind,
        node: usize,
        slot: u32,
        run: impl FnOnce() -> Result<R, MrError>,
    ) -> Result<R, MrError> {
        let startup = self.mr.config.startup.task;
        if !startup.is_zero() {
            std::thread::sleep(startup);
        }
        let flowlet = u32::from(kind == TaskKind::MrReduce);
        let (tracer, active) = (&self.obs.tracer, &self.active[node]);
        active.add(1);
        let start = EventKind::TaskStart {
            task: kind,
            flowlet,
        };
        tracer.emit(node as u32, slot, start);
        let ran = std::panic::catch_unwind(AssertUnwindSafe(run));
        active.sub(1);
        let res = ran.unwrap_or_else(|p| Err(MrError::TaskPanic(panic_msg(p))))?;
        let (records_in, records_out) = res.records();
        let end = EventKind::TaskEnd {
            task: kind,
            flowlet,
            records_in,
            records_out,
        };
        tracer.emit(node as u32, slot, end);
        Ok(res)
    }

    /// Serve a finished map task's shuffle: read each partition file
    /// back (disk), push it to its reducer's node (network), then drop
    /// the local copy.
    fn serve(
        &self,
        fabric: &Fabric<ShuffleMsg>,
        node: usize,
        slot: u32,
        res: MapTaskResult,
    ) -> Result<(), MrError> {
        let (disk, obs) = (&self.mr.disks[node], self.obs);
        let mut shuffled = 0u64;
        for out in &res.outputs {
            let data = disk.read_all(&out.file)?;
            shuffled += out.bytes as u64;
            let dst = out.partition % fabric.len();
            let bytes = data.len() as u64;
            // The map side holds both the emit and ship custody points:
            // shuffle chunks go straight from the task to the fabric,
            // with no flow-control window in between.
            obs.audit.record(AuditStage::Emit, 0, dst as u32, 0, bytes);
            obs.audit.record(AuditStage::Ship, 0, dst as u32, 0, bytes);
            if obs.tracer.enabled() {
                // Shuffle chunks are traced just like HAMR bins:
                // emitted and shipped in one step.
                let (flowlet, edge, dst, records) = (0, 0, dst as u32, 0);
                let emit = |kind| obs.tracer.emit(node as u32, slot, kind);
                emit(EventKind::BinEmitted {
                    flowlet,
                    edge,
                    dst,
                    records,
                });
                emit(EventKind::BinShipped {
                    flowlet,
                    edge,
                    dst,
                    records,
                    bytes,
                });
            }
            let msg = ShuffleMsg {
                reducer: out.partition,
                data,
            };
            fabric.send(node, dst, msg)?;
            disk.delete(&out.file);
        }
        let mut s = self.stats.lock();
        s.map_records_in += res.records_in;
        s.map_records_out += res.records_out;
        s.spills += res.spills as u64;
        s.spilled_bytes += res.spilled_bytes;
        s.shuffled_bytes += shuffled;
        Ok(())
    }
}

/// Receive every chunk bound for `node`'s reducers (one per map task
/// and local reducer), bucketed per reducer in reducer order. A closed
/// inbox ends the wait early: the fabric is gone because a task failed.
fn collect_chunks(
    rx: Receiver<Envelope<ShuffleMsg>>,
    node: usize,
    nodes: usize,
    reducers: usize,
    maps: usize,
    obs: &Observe,
) -> VecDeque<(usize, Vec<Arc<Vec<u8>>>)> {
    // Reducer `r` runs on node `r % nodes`, so it is bucket `r / nodes`.
    let mut buckets: VecDeque<_> = (node..reducers)
        .step_by(nodes)
        .map(|r| (r, Vec::new()))
        .collect();
    for _ in 0..maps * buckets.len() {
        let Ok(env) = rx.recv() else {
            break;
        };
        let (at, from) = (node as u32, env.from as u32);
        let ingress = EventKind::BinIngress {
            flowlet: 1,
            edge: 0,
            from,
        };
        obs.tracer.emit(at, WORKER_RUNTIME, ingress);
        let bytes = env.msg.data.len() as u64;
        obs.audit.record(AuditStage::Consume, 0, at, 0, bytes);
        buckets[env.msg.reducer / nodes].1.push(env.msg.data);
    }
    buckets
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}
