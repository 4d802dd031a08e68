//! The cluster driver: owns the substrates, launches node runtimes,
//! and collects results.
//!
//! A [`Cluster`] persists across jobs: its disks, DFS namespace and
//! key-value store survive `run` calls, which is exactly how iterative
//! workloads (PageRank, K-Means) keep intermediate state in memory
//! between jobs instead of round-tripping through the file system.

use crate::config::ClusterConfig;
use crate::error::{ConfigError, RunError};
use crate::flowlet::TaskContext;
use crate::graph::{FlowletId, JobGraph};
use crate::introspect::{Health, Introspect, LiveRun, DOCTOR_KEEP_LAST};
use crate::metrics::JobMetrics;
use crate::node::{NetMsg, NodeRuntime};
use crate::plan::ExecPlan;
use crate::record::Record;
use crate::resident::ResidentStore;
use crate::watchdog::{Watchdog, WatchdogAction, WatchdogConfig, WatchdogEvent};
use hamr_codec::Codec;
use hamr_dfs::Dfs;
use hamr_kvstore::KvStore;
use hamr_simdisk::Disk;
use hamr_simnet::Fabric;
use hamr_trace::{
    Audit, AuditReport, FlightRecord, Journal, JournalConfig, JournalRecord, Labels,
    MetricsRegistry, Observe, RecordedEvent, RingSink, StatsPlane, Tracer, WatchdogClass,
    WatchdogTrip,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How one job is run: where its trace events go and whether the
/// self-verification layer supervises it. The default is an untraced,
/// unsupervised run in which every emit site is a single branch on a
/// `None`. Counters and gauges are not an option: every run publishes
/// them into the cluster's [`registry`](Cluster::registry).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Where trace events go.
    pub tracer: Tracer,
    /// `Some` runs the job under the self-verification layer: every bin
    /// is tallied through the emit → ship → deliver → consume custody
    /// chain, a watchdog monitors liveness, and a trip or failure dumps
    /// a `doctor_<job>.json` flight record. The conservation proof is
    /// read back with [`Cluster::last_audit`] — call
    /// [`AuditReport::check`] on it — and the incidents with
    /// [`Cluster::watchdog_events`].
    ///
    /// A disabled `tracer` is replaced by the flight recorder's bounded
    /// ring; the watchdog reads the registry's gauges, which are live
    /// whatever the caller traces.
    pub supervision: Option<Supervision>,
}

/// Settings for a supervised run: the watchdog, and the flight
/// recorder that turns a trip or failure into a `doctor_<job>.json`
/// post-mortem dump for `hamr doctor`.
#[derive(Debug, Clone)]
pub struct Supervision {
    pub watchdog: WatchdogConfig,
    /// Where `doctor_<job>.json` is written on a watchdog trip or job
    /// failure. `None` disables dumping.
    pub doctor_dir: Option<PathBuf>,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            watchdog: WatchdogConfig::from_env(),
            doctor_dir: Some(PathBuf::from(".")),
        }
    }
}

/// Per-lane capacity of a supervised run's flight-recorder event ring
/// (one lane per node).
const FLIGHT_RING_EVENTS: usize = 128;

/// Hang an opened journal off the introspection plane: byte/record
/// counters into the registry, sealed segments mirrored into node 0's
/// simulated disk (so the journal is "written through simdisk" in the
/// cluster's own model of durable storage, while the host-FS copy is
/// what `hamr timeline` reads offline).
fn wire_journal(introspect: &Arc<Introspect>, disks: &[Disk], journal: Journal) -> Arc<Journal> {
    journal.set_metrics(
        introspect
            .registry
            .counter("journal_bytes_total", Labels::new().engine("hamr")),
        introspect
            .registry
            .counter("journal_records_total", Labels::new().engine("hamr")),
    );
    if let Some(disk) = disks.first() {
        let disk = disk.clone();
        journal.set_segment_mirror(Some(Box::new(move |name, data| {
            let _ = disk.write_all(&format!("journal/{name}"), data);
        })));
    }
    let journal = Arc::new(journal);
    introspect.set_journal(Some(Arc::clone(&journal)));
    journal
}

/// Make a job name safe as a file-name fragment.
fn file_slug(name: &str) -> String {
    let slug: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if slug.is_empty() {
        "job".into()
    } else {
        slug
    }
}

/// A simulated HAMR cluster: N node runtimes over shared substrates.
pub struct Cluster {
    config: ClusterConfig,
    disks: Vec<Disk>,
    dfs: Dfs,
    kv: KvStore,
    /// What plain [`run`](Cluster::run) calls run with. Lets harnesses
    /// profile or self-verify code paths that only hand them a
    /// `&Cluster` (the `Benchmark` trait) without threading options
    /// through every workload signature.
    options: Mutex<RunOptions>,
    /// Audit report of the most recent supervised run.
    last_audit: Mutex<Option<AuditReport>>,
    /// Watchdog incidents of the most recent supervised run.
    wd_events: Mutex<Vec<WatchdogEvent>>,
    /// The introspection plane: unified metrics registry, run health,
    /// and the (optional, `HAMR_HTTP`-gated) embedded HTTP endpoint.
    introspect: Arc<Introspect>,
    /// Partition-resident frame cache, shared by every job this
    /// cluster runs (the cross-iteration reuse layer — see
    /// [`crate::resident`]).
    resident: Arc<ResidentStore>,
}

impl Cluster {
    /// Build a cluster (disks, DFS, KV store) from a configuration.
    ///
    /// # Panics
    /// Panics on an invalid configuration (zero nodes, zero worker
    /// threads, …). Use [`try_new`] to get a typed [`ConfigError`]
    /// instead.
    ///
    /// [`try_new`]: Cluster::try_new
    pub fn new(config: ClusterConfig) -> Self {
        match Cluster::try_new(config) {
            Ok(cluster) => cluster,
            Err(err) => panic!("invalid cluster config: {err}"),
        }
    }

    /// Build a cluster, rejecting invalid configurations with a typed
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(config: ClusterConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let disks: Vec<Disk> = (0..config.nodes)
            .map(|_| Disk::new(config.disk.clone()))
            .collect();
        let dfs = Dfs::new(disks.clone(), config.dfs.clone());
        Cluster::try_with_substrates(config, disks, dfs)
    }

    /// Build a cluster over *existing* substrates — used by the
    /// benchmark harness so HAMR and the Hadoop baseline read the same
    /// disks and DFS namespace.
    ///
    /// # Panics
    /// Panics on an invalid configuration; see
    /// [`try_with_substrates`](Cluster::try_with_substrates).
    pub fn with_substrates(config: ClusterConfig, disks: Vec<Disk>, dfs: Dfs) -> Self {
        match Cluster::try_with_substrates(config, disks, dfs) {
            Ok(cluster) => cluster,
            Err(err) => panic!("invalid cluster config: {err}"),
        }
    }

    /// Fallible form of [`with_substrates`](Cluster::with_substrates):
    /// validates the configuration and returns a [`ConfigError`]
    /// instead of panicking.
    pub fn try_with_substrates(
        config: ClusterConfig,
        disks: Vec<Disk>,
        dfs: Dfs,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        assert_eq!(disks.len(), config.nodes, "one disk per node");
        let kv = KvStore::new(config.nodes);
        let introspect = Arc::new(Introspect::new());
        introspect.serve_from_env();
        // `HAMR_JOURNAL=auto|<dir>` turns the durable flight journal on
        // for the cluster's whole lifetime; a broken directory degrades
        // to "no journal" with one stderr line, never a failed run.
        match Journal::from_env() {
            Ok(Some(journal)) => {
                wire_journal(&introspect, &disks, journal);
            }
            Ok(None) => {}
            Err(err) => eprintln!("hamr: journal disabled: {err}"),
        }
        let resident = Arc::new(ResidentStore::new());
        // Evictions spill to node 0's disk; counters accumulate into
        // the cluster registry across every job in a chain.
        resident.set_spill(disks[0].clone());
        resident.bind_registry(&introspect.registry, "hamr");
        Ok(Cluster {
            config,
            disks,
            dfs,
            kv,
            options: Mutex::new(RunOptions::default()),
            last_audit: Mutex::new(None),
            wd_events: Mutex::new(Vec::new()),
            introspect,
            resident,
        })
    }

    /// The cluster's unified metrics registry. Every run publishes
    /// into it: net/disk counters and the engine's gauges (workers,
    /// queue depths, deferred bins, …) live on the hot path, job totals
    /// at completion, and one epoch snapshot per job so iterative
    /// workloads get per-iteration deltas via
    /// [`MetricsRegistry::epoch_deltas`].
    pub fn registry(&self) -> &MetricsRegistry {
        &self.introspect.registry
    }

    /// Current run-state as served by `/healthz`.
    pub fn health(&self) -> Health {
        self.introspect
            .health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Turn the durable flight journal on for this cluster, writing
    /// into `dir` (created if needed; an existing journal is recovered
    /// and appended to). Equivalent to launching under
    /// `HAMR_JOURNAL=<dir>`. Returns the journal directory.
    pub fn enable_journal(&self, dir: impl Into<PathBuf>) -> std::io::Result<PathBuf> {
        let journal = Journal::open(JournalConfig::new(dir))?;
        let journal = wire_journal(&self.introspect, &self.disks, journal);
        Ok(journal.dir())
    }

    /// Directory of the active journal, if one is attached.
    pub fn journal_dir(&self) -> Option<PathBuf> {
        self.introspect.journal().map(|j| j.dir())
    }

    /// Start the embedded introspection endpoint on
    /// `127.0.0.1:port` (0 picks an ephemeral port), regardless of
    /// `HAMR_HTTP`. Returns the bound address.
    pub fn serve_introspection(&self, port: u16) -> std::io::Result<SocketAddr> {
        self.introspect.serve(port)
    }

    /// Address of the introspection endpoint, if one is running.
    pub fn introspection_addr(&self) -> Option<SocketAddr> {
        self.introspect.addr()
    }

    /// Stop the introspection endpoint (idempotent).
    pub fn stop_introspection(&self) {
        self.introspect.stop();
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// The cluster's distributed file system.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The cluster's distributed key-value store (persists across jobs).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The partition-resident frame cache (persists across jobs).
    pub fn resident(&self) -> &ResidentStore {
        &self.resident
    }

    /// Open a [`Session`]: the chain-of-jobs view of this cluster,
    /// under which the KV store and resident frame cache deliberately
    /// survive from one job to the next (M3R-style reuse).
    pub fn session(&self) -> Session<'_> {
        Session { cluster: self }
    }

    /// A node's local disk.
    pub fn disk(&self, node: usize) -> &Disk {
        &self.disks[node]
    }

    /// Run one job to completion under the options last given to
    /// [`set_run_options`](Cluster::set_run_options) (initially the
    /// default: unobserved, unsupervised).
    pub fn run(&self, graph: JobGraph) -> Result<JobResult, RunError> {
        let opts = self
            .options
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        self.run_with(graph, &opts)
    }

    /// Replace the options every plain [`run`](Cluster::run) uses from
    /// now on; `RunOptions::default()` detaches everything.
    pub fn set_run_options(&self, opts: RunOptions) {
        *self.options.lock().unwrap_or_else(|p| p.into_inner()) = opts;
    }

    /// Audit report of the most recent supervised run, if any.
    pub fn last_audit(&self) -> Option<AuditReport> {
        self.last_audit
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Watchdog incidents classified during the most recent supervised
    /// run (empty for a healthy run).
    pub fn watchdog_events(&self) -> Vec<WatchdogEvent> {
        self.wd_events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Run one job to completion under `opts`. The one run path:
    /// [`run`](Cluster::run) is this with the cluster's stored options.
    pub fn run_with(&self, graph: JobGraph, opts: &RunOptions) -> Result<JobResult, RunError> {
        let graph = Arc::new(graph);
        let n = self.config.nodes;
        let registry = &self.introspect.registry;
        let health = Arc::clone(&self.introspect.health);
        // Every per-edge and per-flowlet fact of this job, decided here,
        // once, before any node spawns: every node must agree on what
        // is served from the cache, what fills it, and what combines.
        let plan = ExecPlan::compile(&graph, &self.config.runtime, n, &self.resident);
        // Per-job data-plane statistics: one sketch set per (edge,
        // destination node), folded by every node as bins close and
        // merged into one snapshot at teardown.
        let mut obs = Observe {
            tracer: opts.tracer.clone(),
            audit: Audit::disabled(),
            stats: self.config.runtime.stats.enabled().then(|| {
                let shuffle_edges = plan.edges.iter().map(|e| e.sampled).collect();
                Arc::new(StatsPlane::new(shuffle_edges, n, self.config.runtime.stats))
            }),
            registry: Some(registry.clone()),
            engine: "hamr",
        };
        // Supervision decides here, once, what the flight recorder
        // reads: the caller's tracer where it is live, otherwise a
        // bounded ring of the last-K events. `ring` is that sink,
        // exposed to the live `/doctor` endpoint for the duration of
        // the run.
        let mut ring = None;
        if opts.supervision.is_some() {
            obs.audit = Audit::new(graph.edges.len() as u32, n as u32);
            if !obs.tracer.enabled() {
                let sink = Arc::new(RingSink::new(n, FLIGHT_RING_EVENTS));
                // Overflowed flight-ring drops are visible in `/metrics`
                // while the run is still going, not only in the
                // post-mortem dump.
                sink.mirror_drops(
                    registry.counter("trace_dropped_events_total", Labels::new().engine("hamr")),
                );
                obs.tracer = Tracer::new(sink.clone());
                ring = Some(sink);
            }
        }
        let obs = obs;
        *self
            .introspect
            .live
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = LiveRun {
            job: graph.name.clone(),
            ring: ring.clone(),
            obs: obs.clone(),
        };
        health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .running_jobs += 1;
        // Durable journal: mark the job boundary, and tap the flight
        // ring so events about to be overwritten are persisted instead
        // of lost — the journal keeps history the bounded ring cannot.
        let journal = self.introspect.journal();
        if let Some(j) = &journal {
            j.append(&JournalRecord::JobStart {
                job: graph.name.clone(),
                engine: "hamr".into(),
                t_us: j.now_us(),
            });
            if let Some(ring) = &ring {
                let tap = Arc::clone(j);
                ring.set_overflow_tap(Some(Arc::new(move |ev| {
                    tap.append(&JournalRecord::Event(RecordedEvent::from_event(ev)));
                })));
            }
        }
        let fabric = Fabric::<NetMsg>::new_observed(n, self.config.net.clone(), &obs);
        // The disks are long-lived substrates shared across jobs; bind
        // them to this run's sinks only for its duration.
        for (node, disk) in self.disks.iter().enumerate() {
            disk.observe(&obs, node as u32);
        }
        let start = Instant::now();
        let mut handles = Vec::with_capacity(n);
        // Each runtime registers its gauges — zeroing what an earlier,
        // aborted job left in them — as it is built, on its own thread.
        // Nothing is ever sent: the channel closes when the last
        // runtime has been built (or died trying).
        let (building, all_built) = std::sync::mpsc::channel::<()>();
        for node in 0..n {
            let inbox = fabric.receiver(node).expect("one receiver per node");
            let endpoint = fabric.endpoint(node).expect("node id in range");
            let plan = Arc::clone(&plan);
            let cfg = self.config.runtime.clone();
            let threads = self.config.threads_per_node;
            let obs = obs.clone();
            let building = building.clone();
            let ctx = TaskContext {
                node,
                nodes: n,
                disk: self.disks[node].clone(),
                dfs: self.dfs.clone(),
                kv: self.kv.shard(node),
                kv_store: self.kv.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("hamr-node-{node}"))
                .spawn(move || {
                    let runtime = NodeRuntime::new(plan, cfg, threads, ctx, endpoint, inbox, &obs);
                    drop(building);
                    runtime.run()
                })
                .expect("spawn node runtime");
            handles.push(handle);
        }
        // Supervision: the watchdog aborts a wedged job by broadcasting
        // through a spare endpoint (control traffic, not audited).
        let watching = opts
            .supervision
            .as_ref()
            .filter(|sup| sup.watchdog.action != WatchdogAction::Off);
        let watchdog = watching.map(|sup| {
            // It starts reading gauges once they are all this job's own.
            drop(building);
            let _ = all_built.recv();
            let abort_ep = fabric.endpoint(0).expect("fresh fabric has node 0");
            let abort = Box::new(move |event: &WatchdogEvent| {
                let reason = Arc::new(format!(
                    "watchdog {} at epoch {}: {}",
                    event.class.name(),
                    event.epoch,
                    event.detail
                ));
                let _ = abort_ep.broadcast(|_| NetMsg::Abort {
                    reason: Arc::clone(&reason),
                });
            });
            // Post incidents into /healthz as they are classified —
            // a wedged job reports itself while still wedged — and
            // persist each one to the journal so a killed run still
            // carries its diagnosis.
            let notify_health = Arc::clone(&health);
            let notify_intro = Arc::clone(&self.introspect);
            let notify_journal = journal.clone();
            let notify_job = graph.name.clone();
            let notify = Box::new(move |event: &WatchdogEvent| {
                {
                    let mut h = notify_health.lock().unwrap_or_else(|p| p.into_inner());
                    if event.class == WatchdogClass::Straggler {
                        h.warnings += 1;
                    } else {
                        h.incident = Some(format!(
                            "watchdog {} at epoch {}: {}",
                            event.class.name(),
                            event.epoch,
                            event.detail
                        ));
                        if h.incident_since_us.is_none() {
                            h.incident_since_us = Some(notify_intro.now_us());
                        }
                    }
                }
                if event.class != WatchdogClass::Straggler {
                    if let Some(j) = &notify_journal {
                        j.append(&JournalRecord::Incident {
                            job: notify_job.clone(),
                            class: event.class.name().to_string(),
                            epoch: event.epoch,
                            detail: event.detail.clone(),
                        });
                    }
                }
            });
            Watchdog::spawn(sup.watchdog.clone(), obs.clone(), n, notify, abort)
        });
        let mut outputs: HashMap<FlowletId, Vec<Record>> = HashMap::new();
        let mut metrics = JobMetrics::default();
        let mut first_error: Option<RunError> = None;
        let mut fill_frames: Vec<(usize, usize, hamr_codec::Frame)> = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(outcome) => {
                    if let Some(msg) = outcome.error {
                        first_error.get_or_insert(RunError::NodePanic {
                            node: outcome.node,
                            message: msg,
                        });
                    }
                    fill_frames.extend(outcome.fill);
                    for (f, recs) in outcome.captured {
                        outputs.entry(f).or_default().extend(recs);
                    }
                    for (f, fm) in outcome.flowlets.into_iter().enumerate() {
                        let agg = metrics.flowlets.entry(f).or_default();
                        if agg.name.is_empty() {
                            agg.name = fm.name.clone();
                            agg.kind = fm.kind;
                        }
                        agg.tasks += fm.tasks;
                        agg.records_in += fm.records_in;
                        agg.records_out += fm.records_out;
                        agg.bins_out += fm.bins_out;
                        agg.flow_control_stalls += fm.flow_control_stalls;
                        agg.stall_time += fm.stall_time;
                        agg.spilled_bytes += fm.spilled_bytes;
                        agg.combined_records += fm.combined_records;
                        agg.busy += fm.busy;
                        agg.task_latency.merge(&fm.task_latency);
                    }
                    metrics.nodes.push(outcome.node_metrics);
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "node runtime panicked".to_string());
                    first_error.get_or_insert(RunError::NodePanic {
                        node: usize::MAX,
                        message: msg,
                    });
                }
            }
        }
        // Every node has joined: stop the watchdog before tearing the
        // sinks down so it never reads a dead fabric's state.
        let (wd_events, wd_trip) = match watchdog {
            Some(wd) => wd.stop(),
            None => (Vec::new(), None),
        };
        // Pin captured fill frames under their tags — only for a clean
        // run (a failed job may have emitted a partial partition set).
        if first_error.is_none() {
            let mut per_flowlet: HashMap<usize, Vec<Vec<Vec<hamr_codec::Frame>>>> = plan
                .flowlets
                .iter()
                .enumerate()
                .filter(|(_, fp)| fp.fill)
                .map(|(f, fp)| (f, vec![vec![Vec::new(); n]; fp.ports.len()]))
                .collect();
            for (edge, dst, frame) in fill_frames {
                let src = graph.edges[edge].src;
                let port = graph.edges[edge].src_port;
                if let Some(ports) = per_flowlet.get_mut(&src) {
                    ports[port][dst].push(frame);
                }
            }
            for (f, ports) in per_flowlet {
                let spec = graph.flowlets[f].cache.as_ref().expect("fills have a spec");
                self.resident.insert(&spec.tag, spec.fingerprint, n, ports);
            }
        }
        let net = fabric.metrics();
        metrics.shuffled_bytes = net.remote_bytes();
        metrics.shuffled_messages = net.remote_messages();
        // Merge every node's per-destination sketches into one job
        // snapshot.
        if let Some(plane) = &obs.stats {
            let snap = plane.snapshot(&graph.name, "hamr");
            // Per-destination gauges for the live console: node N's
            // series describe the keys routed *to* N on each shuffle
            // edge (`hamr top`'s keys column).
            for (e, edge) in plan.edges.iter().enumerate() {
                if !edge.sampled {
                    continue;
                }
                for dst in 0..n {
                    let Some((_, distinct, hot)) = plane.slot_stats(e as u32, dst as u32) else {
                        continue;
                    };
                    let labels = || {
                        Labels::new()
                            .engine("hamr")
                            .job(graph.name.clone())
                            .node(dst as u32)
                            .edge(e as u32)
                    };
                    self.introspect
                        .registry
                        .gauge("stats_node_distinct_keys", labels())
                        .set(distinct.min(i64::MAX as u64) as i64);
                    self.introspect
                        .registry
                        .gauge("stats_node_hot_key_permille", labels())
                        .set((hot * 1000.0).round() as i64);
                }
            }
            *self
                .introspect
                .stats
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = Some(snap.clone());
            metrics.stats = Some(snap);
        }
        fabric.shutdown();
        for disk in &self.disks {
            disk.unobserve();
            // A split prepared but never loaded (abort, loader panic)
            // must not serve the next job's read for free.
            disk.cancel_read_ahead();
        }
        // Publish job totals and record one epoch per completed job —
        // iterative workloads (one job per iteration) thereby get
        // per-iteration deltas from `registry.epoch_deltas()` for free.
        metrics.publish(&self.introspect.registry, &graph.name, "hamr");
        let epoch_snap = self.introspect.registry.epoch_snapshot(&graph.name);
        if let Some(j) = &journal {
            // The epoch snapshot gives the offline timeline its per-job
            // deltas (shuffled bytes, cache hits, latency histograms);
            // the audit ledger names any still-stuck edge.
            j.append(&JournalRecord::Epoch(epoch_snap));
            if obs.audit.enabled() {
                j.append(&JournalRecord::AuditEpoch {
                    job: graph.name.clone(),
                    report_json: obs.audit.report().to_json(),
                });
            }
            if let Some(snap) = &metrics.stats {
                // Sketches and lineage samples outlive the run: `hamr
                // explain` and the timeline read them back from here.
                j.append(&JournalRecord::Stats(snap.clone()));
            }
            if first_error.is_some() || wd_trip.is_some() {
                // A failed run's freshest evidence is still in the
                // flight ring — persist the tail before it is dropped
                // with the run.
                if let Some(ring) = &ring {
                    for ev in ring.peek() {
                        j.append(&JournalRecord::Event(RecordedEvent::from_event(&ev)));
                    }
                }
            }
            j.append(&JournalRecord::JobEnd {
                job: graph.name.clone(),
                ok: first_error.is_none(),
                t_us: j.now_us(),
                elapsed_us: start.elapsed().as_micros() as u64,
                shuffled_bytes: metrics.shuffled_bytes,
            });
        }
        if let Some(ring) = &ring {
            ring.set_overflow_tap(None);
        }
        // Make everything appended so far durable.
        if let Some(j) = &journal {
            j.flush();
        }
        {
            let mut h = health.lock().unwrap_or_else(|p| p.into_inner());
            h.running_jobs = h.running_jobs.saturating_sub(1);
            if first_error.is_some() {
                h.jobs_failed += 1;
            } else {
                h.jobs_completed += 1;
                // A cleanly completing job resolves any outstanding
                // liveness incident.
                h.incident = None;
                h.incident_since_us = None;
                h.last_clean_completion_us = Some(self.introspect.now_us());
            }
        }
        let result = match first_error {
            Some(err) => Err(err),
            None => Ok(JobResult {
                outputs,
                metrics,
                elapsed: start.elapsed(),
            }),
        };
        let Some(sup) = &opts.supervision else {
            return result;
        };
        *self.last_audit.lock().unwrap_or_else(|p| p.into_inner()) = Some(obs.audit.report());
        *self.wd_events.lock().unwrap_or_else(|p| p.into_inner()) = wd_events;
        if wd_trip.is_some() || result.is_err() {
            if let Some(dir) = &sup.doctor_dir {
                let record = FlightRecord::capture(
                    &graph.name,
                    wd_trip.clone().map(|e| WatchdogTrip {
                        class: e.class,
                        epoch: e.epoch,
                        detail: e.detail,
                    }),
                    result.as_ref().err().map(|e| e.to_string()),
                    ring.as_deref(),
                    DOCTOR_KEEP_LAST,
                    &obs,
                );
                let path = dir.join(format!("doctor_{}.json", file_slug(&graph.name)));
                let _ = std::fs::write(&path, record.to_json());
            }
        }
        match (result, wd_trip) {
            // An abort-action trip caused the failure: surface the
            // watchdog's diagnosis, not the secondary abort error.
            (Err(_), Some(t)) => Err(RunError::Watchdog {
                class: t.class,
                epoch: t.epoch,
                detail: t.detail,
            }),
            (result, _) => result,
        }
    }
}

/// A chain-of-jobs view of a [`Cluster`]: the M3R-style session under
/// which node state, the KV store, and the resident frame cache
/// deliberately survive from one job to the next.
///
/// A `Session` is how iterative workloads express "these jobs belong
/// together": annotate the invariant source with
/// [`JobBuilder::resident`](crate::JobBuilder::resident), run the
/// iterations through [`run_chain`](Session::run_chain) (or repeated
/// [`run`](Session::run) calls), and from the second job on the
/// pinned partitions are served locally instead of re-loaded,
/// re-encoded, and re-shuffled. [`reset_namespace`](Session::reset_namespace)
/// gives reruns a clean slate without nuking unrelated tenants.
pub struct Session<'a> {
    cluster: &'a Cluster,
}

impl<'a> Session<'a> {
    /// The underlying cluster.
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// Run one job in this session (under the cluster's stored
    /// [`RunOptions`], exactly like [`Cluster::run`]).
    pub fn run(&self, graph: JobGraph) -> Result<JobResult, RunError> {
        self.cluster.run(graph)
    }

    /// Run a chain of jobs in order, stopping at the first failure.
    /// Residency annotations connect the links: a `cache_as`/missed
    /// `resident` source in job *k* fills the store, and a matching
    /// `resident` source in job *k+1…* is served from it.
    pub fn run_chain(
        &self,
        graphs: impl IntoIterator<Item = JobGraph>,
    ) -> Result<Vec<JobResult>, RunError> {
        let mut results = Vec::new();
        for graph in graphs {
            results.push(self.cluster.run(graph)?);
        }
        Ok(results)
    }

    /// Reset one workload namespace for a rerun: drop every KV key and
    /// every resident cache tag starting with `ns`. Returns the number
    /// of KV entries removed. Convention: workloads prefix their keys
    /// and tags `"<wl>/"` (e.g. `"pr/"`), so reruns are isolated
    /// without clearing other tenants' state.
    pub fn reset_namespace(&self, ns: &str) -> usize {
        self.cluster.resident.invalidate_prefix(ns);
        self.cluster.kv.remove_prefix(ns.as_bytes())
    }

    /// Fingerprint a DFS input for cache invalidation: hashes the
    /// path plus the block layout (ids and lengths), so rewriting or
    /// appending to the file yields a different fingerprint and
    /// `resident(tag, fp)` recomputes instead of serving stale frames.
    pub fn fingerprint(&self, path: &str) -> u64 {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(path.as_bytes());
        if let Ok(blocks) = self.cluster.dfs.blocks(path) {
            for b in &blocks {
                buf.extend_from_slice(&b.id.to_le_bytes());
                buf.extend_from_slice(&(b.len as u64).to_le_bytes());
            }
        }
        hamr_codec::stable_hash(&buf)
    }
}

/// A completed job's captured outputs and metrics.
#[derive(Debug)]
pub struct JobResult {
    /// Captured `Emitter::output` records per flowlet, merged across
    /// nodes (unordered).
    pub outputs: HashMap<FlowletId, Vec<Record>>,
    pub metrics: JobMetrics,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl JobResult {
    /// Raw captured records for a flowlet (empty slice if none).
    pub fn output(&self, flowlet: FlowletId) -> &[Record] {
        self.outputs
            .get(&flowlet)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Decode a flowlet's captured output with [`Codec`].
    ///
    /// # Panics
    /// Panics if the records do not decode as `(K, V)` — a type error
    /// in the job wiring, not a data condition.
    pub fn typed_output<K: Codec, V: Codec>(&self, flowlet: FlowletId) -> Vec<(K, V)> {
        self.output(flowlet)
            .iter()
            .map(|rec| {
                (
                    K::from_bytes(&rec.key).expect("output key decodes"),
                    V::from_bytes(&rec.value).expect("output value decodes"),
                )
            })
            .collect()
    }
}
