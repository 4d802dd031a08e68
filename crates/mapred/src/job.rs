//! The MapReduce job driver: scheduling, phases, and the shuffle.

use crate::maptask::{run_map_task, MapTaskError};
use crate::reducetask::run_reduce_task;
use crate::JobConf;
use crossbeam::channel::Receiver;
use hamr_dfs::{Dfs, DfsError, Split};
use hamr_simdisk::{Disk, DiskError};
use hamr_simnet::{Envelope, Fabric, NetConfig, NetError, Payload};
use hamr_trace::{
    Audit, AuditBin, AuditReport, AuditStage, EventKind, Labels, MetricsRegistry, Observe,
    TaskKind, Tracer, NO_SPAN, WORKER_RUNTIME,
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
    /// Concurrent map tasks per node.
    pub map_slots: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots: usize,
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
            map_slots: slots,
            reduce_slots: slots,
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
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Dfs(e) => write!(f, "dfs: {e}"),
            MrError::Disk(e) => write!(f, "disk: {e}"),
            MrError::Net(e) => write!(f, "net: {e}"),
            MrError::TaskPanic(m) => write!(f, "task panicked: {m}"),
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
impl From<MapTaskError> for MrError {
    fn from(e: MapTaskError) -> Self {
        match e {
            MapTaskError::Dfs(e) => MrError::Dfs(e),
            MapTaskError::Disk(e) => MrError::Disk(e),
        }
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
    /// Lineage span id (`NO_SPAN` when tracing is off).
    span: u64,
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
    /// Unified metrics registry (usually the HAMR cluster's, shared by
    /// the benchmark env so `/metrics` covers both engines): when set,
    /// runs stream net/disk counters and gauges live under
    /// `engine="mapred"` and publish job totals at completion.
    registry: Mutex<Option<MetricsRegistry>>,
}

impl MrCluster {
    /// Build over existing substrates (shared with the HAMR engine in
    /// benchmarks).
    pub fn new(config: MrConfig, disks: Vec<Disk>, dfs: Dfs) -> Self {
        assert_eq!(disks.len(), config.nodes, "one disk per node");
        assert!(config.map_slots > 0 && config.reduce_slots > 0);
        MrCluster {
            config,
            disks,
            dfs,
            next_job: AtomicU64::new(1),
            options: Mutex::new(MrRunOptions::default()),
            last_audit: Mutex::new(None),
            registry: Mutex::new(None),
        }
    }

    /// Publish this engine's metrics into `registry` (typically the
    /// HAMR cluster's, so one `/metrics` endpoint covers both engines).
    pub fn set_registry(&self, registry: MetricsRegistry) {
        *self.registry.lock() = Some(registry);
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
        let obs = Observe {
            tracer: opts.tracer.clone(),
            audit: if opts.audit {
                Audit::new(1, self.config.nodes as u32)
            } else {
                Audit::disabled()
            },
            stats: None,
            registry: self.registry.lock().clone(),
            engine: "mapred",
        };
        let result = self.run_observed(conf, &obs);
        if opts.audit {
            *self.last_audit.lock() = Some(obs.audit.report());
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
        let map_task_count = splits.len();
        let fabric = Fabric::<ShuffleMsg>::new_observed(nodes, self.config.net.clone(), obs);
        let active_gauges: Vec<_> = (0..nodes)
            .map(|n| obs.gauge("mr_active_tasks", Labels::new().node(n as u32)))
            .collect();
        for (node, disk) in self.disks.iter().enumerate() {
            disk.observe(obs, node as u32);
        }
        let stats = Arc::new(Mutex::new(JobStats {
            name: conf.name.clone(),
            map_tasks: map_task_count,
            reduce_tasks: reducers,
            ..Default::default()
        }));
        let first_error: Arc<Mutex<Option<MrError>>> = Arc::new(Mutex::new(None));

        // --- shuffle receivers (run concurrently with the map phase) --
        let mut recv_handles = Vec::new();
        for node in 0..nodes {
            let local_reducers: Vec<usize> = (0..reducers).filter(|r| r % nodes == node).collect();
            let expected = map_task_count * local_reducers.len();
            let rx = fabric.receiver(node)?;
            let obs = obs.clone();
            recv_handles.push(std::thread::spawn(move || {
                collect_chunks(rx, &local_reducers, expected, node, &obs)
            }));
        }

        // --- map phase ------------------------------------------------
        let map_start = Instant::now();
        let scheduler = Arc::new(Mutex::new(Scheduler::new(nodes, &splits)));
        let splits = Arc::new(splits);
        let conf_arc = Arc::new(conf.clone());
        let mut map_handles = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for node in 0..nodes {
            for slot in 0..self.config.map_slots {
                let scheduler = Arc::clone(&scheduler);
                let splits = Arc::clone(&splits);
                let conf = Arc::clone(&conf_arc);
                let dfs = self.dfs.clone();
                let disk = self.disks[node].clone();
                let fabric = fabric.clone();
                let stats = Arc::clone(&stats);
                let first_error = Arc::clone(&first_error);
                let startup = self.config.startup;
                let sort_buffer = self.config.sort_buffer;
                let obs = obs.clone();
                let active = active_gauges[node].clone();
                map_handles.push(std::thread::spawn(move || {
                    loop {
                        if first_error.lock().is_some() {
                            return;
                        }
                        let Some((task, local, next)) = scheduler.lock().take(node) else {
                            return;
                        };
                        // HDFS clients read ahead too: the next local
                        // split's read proceeds while this one runs. This
                        // split goes first so that it is first on the
                        // spindle; booked by the previous take, a no-op.
                        for ahead in [Some(task), next].into_iter().flatten() {
                            let split = &splits[ahead];
                            dfs.read_ahead(&split.path, split.block_index, Some(node));
                        }
                        if !startup.task.is_zero() {
                            std::thread::sleep(startup.task);
                        }
                        active.add(1);
                        obs.tracer.emit(
                            node as u32,
                            slot as u32,
                            EventKind::TaskStart {
                                task: TaskKind::MrMap,
                                flowlet: 0,
                                span: NO_SPAN,
                            },
                        );
                        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            run_map_task(
                                &conf,
                                job_id,
                                task,
                                &splits[task],
                                node,
                                &dfs,
                                &disk,
                                reducers,
                                sort_buffer,
                            )
                        }));
                        let res = match run {
                            Ok(Ok(res)) => res,
                            Ok(Err(e)) => {
                                first_error.lock().get_or_insert(e.into());
                                return;
                            }
                            Err(p) => {
                                first_error
                                    .lock()
                                    .get_or_insert(MrError::TaskPanic(panic_msg(p)));
                                return;
                            }
                        };
                        active.sub(1);
                        obs.tracer.emit(
                            node as u32,
                            slot as u32,
                            EventKind::TaskEnd {
                                task: TaskKind::MrMap,
                                flowlet: 0,
                                records_in: res.records_in,
                                records_out: res.records_out,
                            },
                        );
                        // Serve the shuffle: read each partition file
                        // back (disk) and push it to the reducer's node
                        // (network), then drop the local copy.
                        let mut shuffled = 0u64;
                        for out in &res.outputs {
                            let data = match disk.read_all(&out.file) {
                                Ok(d) => d,
                                Err(e) => {
                                    first_error.lock().get_or_insert(e.into());
                                    return;
                                }
                            };
                            shuffled += out.bytes as u64;
                            let dst = out.partition % fabric.len();
                            let bytes = data.len() as u64;
                            // The map side holds both the emit and ship
                            // custody points: shuffle chunks go straight
                            // from the task to the fabric, with no
                            // flow-control window in between.
                            obs.audit.record(AuditStage::Emit, 0, dst as u32, 0, bytes);
                            obs.audit.record(AuditStage::Ship, 0, dst as u32, 0, bytes);
                            let mut span = NO_SPAN;
                            if obs.tracer.enabled() {
                                // Shuffle chunks get lineage spans just
                                // like HAMR bins: emitted and shipped in
                                // one step (no flow-control window here).
                                span = obs.tracer.mint_span();
                                obs.tracer.emit(
                                    node as u32,
                                    slot as u32,
                                    EventKind::BinEmitted {
                                        flowlet: 0,
                                        edge: 0,
                                        dst: dst as u32,
                                        span,
                                        records: 0,
                                    },
                                );
                                obs.tracer.emit(
                                    node as u32,
                                    slot as u32,
                                    EventKind::BinShipped {
                                        flowlet: 0,
                                        edge: 0,
                                        dst: dst as u32,
                                        records: 0,
                                        bytes,
                                        span,
                                    },
                                );
                            }
                            let msg = ShuffleMsg {
                                reducer: out.partition,
                                data,
                                span,
                            };
                            if let Err(e) = fabric.send(node, dst, msg) {
                                first_error.lock().get_or_insert(e.into());
                                return;
                            }
                            disk.delete(&out.file);
                        }
                        let mut s = stats.lock();
                        s.map_records_in += res.records_in;
                        s.map_records_out += res.records_out;
                        s.spills += res.spills as u64;
                        s.spilled_bytes += res.spilled_bytes;
                        s.shuffled_bytes += shuffled;
                        if local {
                            s.local_map_tasks += 1;
                        }
                    }
                }));
            }
        }
        for h in map_handles {
            let _ = h.join();
        }
        stats.lock().map_phase = map_start.elapsed();
        let detach_disks = || {
            for disk in &self.disks {
                disk.unobserve();
                // A split read ahead for a slot that never ran it
                // (stolen tail, failed job) serves no later job.
                disk.cancel_read_ahead();
            }
        };
        if let Some(e) = first_error.lock().take() {
            fabric.shutdown();
            detach_disks();
            return Err(e);
        }

        // --- barrier: wait for every reducer's fetches ----------------
        let mut per_node_chunks = Vec::with_capacity(nodes);
        for h in recv_handles {
            per_node_chunks.push(h.join().expect("receiver thread"));
        }
        fabric.shutdown();

        // --- reduce phase ---------------------------------------------
        let reduce_start = Instant::now();
        let mut reduce_handles = Vec::new();
        for (node, chunk_map) in per_node_chunks.into_iter().enumerate() {
            // Queue of (reducer, chunks) for this node.
            let queue = Arc::new(Mutex::new(chunk_map));
            for slot in 0..self.config.reduce_slots {
                let queue = Arc::clone(&queue);
                let conf = Arc::clone(&conf_arc);
                let dfs = self.dfs.clone();
                let stats = Arc::clone(&stats);
                let first_error = Arc::clone(&first_error);
                let startup = self.config.startup;
                let tracer = obs.tracer.clone();
                let active = active_gauges[node].clone();
                reduce_handles.push(std::thread::spawn(move || loop {
                    if first_error.lock().is_some() {
                        return;
                    }
                    let Some((r, chunks)) = queue.lock().pop_front() else {
                        return;
                    };
                    if !startup.task.is_zero() {
                        std::thread::sleep(startup.task);
                    }
                    active.add(1);
                    tracer.emit(
                        node as u32,
                        slot as u32,
                        EventKind::TaskStart {
                            task: TaskKind::MrReduce,
                            flowlet: 1,
                            span: NO_SPAN,
                        },
                    );
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        run_reduce_task(&conf, r, node, chunks, &dfs)
                    }));
                    active.sub(1);
                    match run {
                        Ok(Ok(res)) => {
                            tracer.emit(
                                node as u32,
                                slot as u32,
                                EventKind::TaskEnd {
                                    task: TaskKind::MrReduce,
                                    flowlet: 1,
                                    records_in: res.records_in,
                                    records_out: res.records_out,
                                },
                            );
                            let mut s = stats.lock();
                            s.reduce_records_in += res.records_in;
                            s.reduce_records_out += res.records_out;
                            s.groups += res.groups;
                            s.output_bytes += res.output_bytes;
                        }
                        Ok(Err(e)) => {
                            first_error.lock().get_or_insert(e.into());
                        }
                        Err(p) => {
                            first_error
                                .lock()
                                .get_or_insert(MrError::TaskPanic(panic_msg(p)));
                        }
                    }
                }));
            }
        }
        for h in reduce_handles {
            let _ = h.join();
        }
        detach_disks();
        if let Some(e) = first_error.lock().take() {
            return Err(e);
        }
        let mut final_stats = stats.lock().clone();
        final_stats.reduce_phase = reduce_start.elapsed();
        final_stats.elapsed = start.elapsed();
        if let Some(reg) = &obs.registry {
            final_stats.publish(reg, obs.engine);
        }
        Ok(final_stats)
    }
}

/// Receive `expected` shuffle chunks, bucketed per local reducer.
fn collect_chunks(
    rx: Receiver<Envelope<ShuffleMsg>>,
    local_reducers: &[usize],
    expected: usize,
    node: usize,
    obs: &Observe,
) -> VecDeque<(usize, Vec<Arc<Vec<u8>>>)> {
    let mut buckets: std::collections::HashMap<usize, Vec<Arc<Vec<u8>>>> =
        local_reducers.iter().map(|&r| (r, Vec::new())).collect();
    let mut received = 0;
    while received < expected {
        let Ok(env) = rx.recv() else {
            break; // fabric shut down early (error path)
        };
        obs.tracer.emit(
            node as u32,
            WORKER_RUNTIME,
            EventKind::BinIngress {
                flowlet: 1,
                edge: 0,
                from: env.from as u32,
                span: env.msg.span,
            },
        );
        if let Some(bucket) = buckets.get_mut(&env.msg.reducer) {
            obs.audit.record(
                AuditStage::Consume,
                0,
                node as u32,
                0,
                env.msg.data.len() as u64,
            );
            bucket.push(env.msg.data);
            received += 1;
        }
    }
    local_reducers
        .iter()
        .map(|&r| (r, buckets.remove(&r).unwrap_or_default()))
        .collect()
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}
