//! One job's run path: the options it runs under, the five stages of
//! [`Cluster::run_with`], and what it hands back.

use super::Cluster;
use crate::error::{panic_message, RunError};
use crate::flowlet::TaskContext;
use crate::graph::{Exchange, FlowletId, JobGraph};
use crate::introspect::{LiveRun, DOCTOR_KEEP_LAST};
use crate::metrics::JobMetrics;
use crate::node::{NetMsg, NodeOutcome, NodeRuntime};
use crate::plan::ExecPlan;
use crate::record::Captured;
use crate::watchdog::{Watchdog, WatchdogAction, WatchdogConfig};
use hamr_codec::Codec;
use hamr_simnet::Fabric;
use hamr_trace::{
    Audit, FlightRecord, JobRow, Journal, JournalRecord, Labels, Log2Hist, Observe, RingSink,
    StatsPlane, StuckEdge, Tracer, WatchdogClass, WatchdogTrip,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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
            watchdog: WatchdogConfig::default(),
            doctor_dir: Some(PathBuf::from(".")),
        }
    }
}

/// Per-lane capacity of a supervised run's flight-recorder event ring.
/// The ring has one lane per node and files an event under its node,
/// so a dump holds every node's own last events — a chatty node
/// evicts only its own history.
const FLIGHT_RING_EVENTS: usize = 128;

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

impl Cluster {
    /// Run one job to completion under `opts`. The one run path:
    /// [`run`](Cluster::run) is this with the cluster's stored options.
    pub fn run_with(&self, graph: JobGraph, opts: &RunOptions) -> Result<JobResult, RunError> {
        let run = self.observe(Arc::new(graph), opts);
        let (handles, all_built) = self.spawn_nodes(&run);
        let watchdog = self.supervise(&run, opts, all_built);
        let done = self.collect(&run, handles, watchdog);
        self.publish(run, opts, done)
    }

    /// Stage 1: compile the plan and bind every sink the job reports
    /// into — tracer or flight ring, ledger, statistics plane, `/doctor`,
    /// `/healthz`, the journal, the fabric and the disks.
    fn observe(&self, graph: Arc<JobGraph>, opts: &RunOptions) -> Run {
        let n = self.config.nodes;
        let registry = &self.introspect.registry;
        // Every per-edge and per-flowlet fact of this job, decided here,
        // once, before any node spawns: every node must agree on what
        // is served from the cache, what fills it, and what combines.
        let plan = ExecPlan::compile(&graph, &self.config.runtime, n, &self.resident);
        // Per-job data-plane statistics: one sketch set per (sketched
        // edge, destination node), folded by every node as bins close
        // and merged into one snapshot at teardown.
        let stats = self.config.runtime.stats;
        let mut obs = Observe {
            tracer: opts.tracer.clone(),
            audit: Audit::disabled(),
            stats: stats
                .enabled()
                .then(|| Arc::new(StatsPlane::new(plan.sketched_edges(), n, stats))),
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
                // Overflowed flight-ring drops are visible in `/metrics`
                // while the run is still going, not only in the
                // post-mortem dump.
                let drops =
                    registry.counter("trace_dropped_events_total", Labels::new().engine("hamr"));
                let sink = Arc::new(RingSink::new(n, FLIGHT_RING_EVENTS).with_drop_counter(drops));
                obs.tracer = Tracer::new(sink.clone());
                ring = Some(sink);
            }
        }
        *self.introspect.live.lock() = LiveRun {
            job: graph.name.clone(),
            ring: ring.clone(),
            obs: obs.clone(),
        };
        self.introspect.health.lock().running_jobs += 1;
        // Durable journal: mark the job boundary.
        let journal = self.introspect.journal.get();
        if let Some(j) = &journal {
            j.append(&JournalRecord::JobStart {
                job: graph.name.clone(),
                engine: "hamr".into(),
                t_us: j.now_us(),
            });
        }
        let fabric = Fabric::<NetMsg>::new_observed(n, self.config.net.clone(), &obs);
        // The disks are long-lived substrates shared across jobs; bind
        // them to this run's sinks only for its duration.
        for (node, disk) in self.disks.iter().enumerate() {
            disk.observe(&obs, node as u32);
        }
        Run {
            graph,
            plan,
            obs,
            ring,
            journal,
            fabric,
            start: Instant::now(),
        }
    }

    /// Stage 2: one runtime per node, each on its own thread. The
    /// receiver closes when the last runtime has been built.
    fn spawn_nodes(&self, run: &Run) -> (Vec<JoinHandle<NodeOutcome>>, Receiver<()>) {
        let n = self.config.nodes;
        // Each runtime registers its gauges — zeroing what an earlier,
        // aborted job left in them — as it is built, on its own thread.
        // Nothing is ever sent: the channel closes when the last
        // runtime has been built (or died trying).
        let (building, all_built) = std::sync::mpsc::channel::<()>();
        let spawn = |node| {
            let inbox = run.fabric.receiver(node).expect("one receiver per node");
            let endpoint = run.fabric.endpoint(node).expect("node id in range");
            let plan = Arc::clone(&run.plan);
            let cfg = self.config.runtime.clone();
            let threads = self.config.threads_per_node;
            let obs = run.obs.clone();
            let building = building.clone();
            let ctx = TaskContext {
                node,
                nodes: n,
                disk: self.disks[node].clone(),
                dfs: self.dfs.clone(),
                kv: self.kv.shard(node),
            };
            std::thread::Builder::new()
                .name(format!("hamr-node-{node}"))
                .spawn(move || {
                    let runtime = NodeRuntime::new(plan, cfg, threads, ctx, endpoint, inbox, &obs);
                    drop(building);
                    runtime.run()
                })
                .expect("spawn node runtime")
        };
        ((0..n).map(spawn).collect(), all_built)
    }

    /// Stage 3: under supervision, the watchdog. It aborts a wedged job
    /// by broadcasting through a spare endpoint (control traffic, not
    /// audited).
    fn supervise(&self, run: &Run, opts: &RunOptions, all_built: Receiver<()>) -> Option<Watchdog> {
        let sup = opts.supervision.as_ref()?;
        if sup.watchdog.action == WatchdogAction::Off {
            return None;
        }
        // It starts reading gauges once they are all this job's own.
        let _ = all_built.recv();
        let abort_ep = run.fabric.endpoint(0).expect("fresh fabric has node 0");
        let abort = Box::new(move |trip: &WatchdogTrip| {
            let error = Arc::new(RunError::Watchdog(trip.clone()));
            let _ = abort_ep.broadcast(|_| NetMsg::Abort {
                error: Arc::clone(&error),
            });
        });
        // Post incidents into /healthz as they are classified —
        // a wedged job reports itself while still wedged — and
        // persist each one to the journal so a killed run still
        // carries its diagnosis.
        let intro = Arc::clone(&self.introspect);
        let journal = run.journal.clone();
        let job = run.graph.name.clone();
        let notify = Box::new(move |trip: &WatchdogTrip| {
            if trip.class == WatchdogClass::Straggler {
                intro.health.lock().warnings += 1;
                return;
            }
            {
                let mut h = intro.health.lock();
                h.incident = Some(trip.clone());
                if h.incident_since_us.is_none() {
                    h.incident_since_us = Some(intro.now_us());
                }
            }
            if let Some(j) = &journal {
                j.append(&JournalRecord::Incident {
                    job: job.clone(),
                    trip: trip.clone(),
                });
            }
        });
        let n = self.config.nodes;
        Some(Watchdog::spawn(
            sup.watchdog.clone(),
            run.obs.clone(),
            n,
            notify,
            abort,
        ))
    }

    /// Stage 4: join the nodes and merge what they hand back; stop the
    /// watchdog; pin a clean run's fill frames; read the fabric's
    /// totals and the statistics snapshot.
    fn collect(
        &self,
        run: &Run,
        handles: Vec<JoinHandle<NodeOutcome>>,
        watchdog: Option<Watchdog>,
    ) -> Collected {
        let n = self.config.nodes;
        let (graph, plan) = (&run.graph, &run.plan);
        let mut outputs: HashMap<FlowletId, Captured> = HashMap::new();
        let mut metrics = JobMetrics::default();
        let mut first_error: Option<RunError> = None;
        let mut fill_frames: Vec<(usize, usize, hamr_codec::Frame)> = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(outcome) => {
                    if let Some(error) = outcome.error {
                        first_error.get_or_insert(error);
                    }
                    fill_frames.extend(outcome.fill);
                    for (f, captured) in outcome.captured {
                        outputs.entry(f).or_default().append(captured.frames);
                    }
                    for (f, fm) in outcome.flowlets.into_iter().enumerate() {
                        metrics.flowlets.entry(f).or_default().merge(fm);
                    }
                    metrics.nodes.push(outcome.node_metrics);
                }
                Err(panic) => {
                    first_error.get_or_insert(RunError::NodePanic {
                        node: usize::MAX,
                        message: panic_message(panic.as_ref(), "node runtime panicked"),
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
        let net = run.fabric.metrics();
        metrics.shuffled_bytes = net.remote_bytes();
        metrics.shuffled_messages = net.remote_messages();
        // Merge every node's per-destination sketches into one job
        // snapshot.
        if let Some(plane) = &run.obs.stats {
            // Per-destination gauges for the live console: node N's
            // series describe the keys routed *to* N on each shuffle
            // edge (`hamr top`'s keys column).
            for (edge, dst, distinct, hot) in plane.dst_stats() {
                let labels = || {
                    Labels::new()
                        .engine("hamr")
                        .job(graph.name.clone())
                        .node(dst)
                        .edge(edge)
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
            metrics.stats = Some(plane.snapshot(&graph.name, "hamr"));
        }
        Collected {
            outputs,
            metrics,
            first_error,
            wd_events,
            wd_trip,
        }
    }

    /// Stage 5: tear the run's sinks down and say how it went — to the
    /// registry, the journal, `/healthz`, and under supervision the
    /// ledger, the incident list and the `doctor_<job>.json` dump.
    fn publish(&self, run: Run, opts: &RunOptions, done: Collected) -> Result<JobResult, RunError> {
        run.fabric.shutdown();
        for disk in &self.disks {
            disk.unobserve();
            // A split prepared but never loaded (abort, loader panic)
            // must not serve the next job's read for free.
            disk.cancel_read_ahead();
        }
        done.metrics
            .publish(&self.introspect.registry, &run.graph.name, "hamr");
        let row = row(&run, &done);
        if let Some(j) = &run.journal {
            if let Some(snap) = &done.metrics.stats {
                // Sketches and lineage samples outlive the run: `hamr
                // explain` and the timeline read them back from here.
                j.append(&JournalRecord::Stats(snap.clone()));
            }
            j.append(&JournalRecord::JobEnd {
                t_us: j.now_us(),
                row: row.clone(),
            });
        }
        {
            let mut h = self.introspect.health.lock();
            h.running_jobs = h.running_jobs.saturating_sub(1);
            if done.first_error.is_some() {
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
        let result = match done.first_error {
            Some(err) => Err(err),
            None => Ok(JobResult {
                outputs: done.outputs,
                metrics: done.metrics,
                row,
            }),
        };
        let Some(sup) = &opts.supervision else {
            return result;
        };
        *self.last_audit.lock() = Some(run.obs.audit.report());
        *self.wd_events.lock() = done.wd_events;
        if done.wd_trip.is_some() || result.is_err() {
            if let Some(dir) = &sup.doctor_dir {
                let record = FlightRecord::capture(
                    &run.graph.name,
                    done.wd_trip.clone(),
                    result.as_ref().err().map(|e| e.to_string()),
                    run.ring.as_deref(),
                    DOCTOR_KEEP_LAST,
                    &run.obs,
                );
                let path = dir.join(format!("doctor_{}.json", file_slug(&run.graph.name)));
                let _ = std::fs::write(&path, record.to_json().to_string());
            }
        }
        match (result, done.wd_trip) {
            // An abort-action trip caused the failure: surface the
            // watchdog's diagnosis, not the secondary abort error.
            (Err(_), Some(trip)) => Err(RunError::Watchdog(trip)),
            (result, _) => result,
        }
    }
}

/// One run's state, handed from stage to stage of
/// [`Cluster::run_with`].
struct Run {
    graph: Arc<JobGraph>,
    plan: Arc<ExecPlan>,
    /// The job's sinks.
    obs: Observe,
    /// The flight recorder's ring, where supervision supplied the
    /// tracer.
    ring: Option<Arc<RingSink>>,
    journal: Option<Arc<Journal>>,
    fabric: Fabric<NetMsg>,
    start: Instant,
}

/// What the nodes and the watchdog handed back, merged.
struct Collected {
    outputs: HashMap<FlowletId, Captured>,
    metrics: JobMetrics,
    first_error: Option<RunError>,
    wd_events: Vec<WatchdogTrip>,
    wd_trip: Option<WatchdogTrip>,
}

/// The job's [`JobRow`], counted once from what the run holds: the
/// fabric's remote bytes; the records the flowlets feeding an exchange
/// emitted (pre-combiner: a combiner restores what it folds into its
/// producer's `records_out`); the widest sketched edge's distinct keys;
/// the flowlets the plan served from the resident store (each one hit
/// in `ResidentStore::lookup`); the stall time and task latencies the
/// nodes handed back (what `JobMetrics::publish` adds to the registry);
/// and under supervision the custody rows still holding bins.
fn row(run: &Run, done: &Collected) -> JobRow {
    let metrics = &done.metrics;
    let mut latency = Log2Hist::new();
    for fm in metrics.flowlets.values() {
        latency.merge(&fm.task_latency);
    }
    let edges = &run.graph.edges;
    let feeds_exchange =
        |f: usize| (edges.iter()).any(|e| e.src == f && e.exchange != Exchange::Local);
    // An unsupervised run's ledger is disabled and reports no rows.
    let report = run.obs.audit.report();
    let stuck = report
        .stuck_rows()
        .into_iter()
        .map(|(row, bins)| StuckEdge {
            edge: row.edge,
            dst: row.dst,
            bins,
        });
    JobRow {
        job: run.graph.name.clone(),
        ok: done.first_error.is_none(),
        elapsed_us: run.start.elapsed().as_micros() as u64,
        shuffled_bytes: metrics.shuffled_bytes,
        shuffle_records: Some(
            (metrics.flowlets.iter())
                .filter(|(&f, _)| feeds_exchange(f))
                .map(|(_, fm)| fm.records_out)
                .sum(),
        ),
        distinct_keys: metrics.stats.as_ref().map(|s| s.shuffle_distinct()),
        cache_hits: Some(
            run.plan
                .flowlets
                .iter()
                .filter(|f| f.serve.is_some())
                .count() as u64,
        ),
        stall_us: Some(
            (metrics.flowlets.values())
                .map(|fm| fm.stall_time.as_micros() as u64)
                .sum(),
        ),
        task_p99_us: (latency.count() > 0).then(|| latency.quantile(0.99)),
        stuck: stuck.collect(),
    }
}

/// A completed job's captured outputs and metrics.
#[derive(Debug)]
pub struct JobResult {
    /// Captured `Emitter::output` records per flowlet, merged across
    /// nodes (unordered): the frames the tasks wrote them to.
    pub outputs: HashMap<FlowletId, Captured>,
    pub metrics: JobMetrics,
    /// The job's row: what its journal `JobEnd` carries, wall time
    /// included.
    pub row: JobRow,
}

impl JobResult {
    /// A flowlet's captured output (empty if it captured nothing).
    pub fn output(&self, flowlet: FlowletId) -> &Captured {
        static NONE: Captured = Captured {
            frames: Vec::new(),
            entries: 0,
        };
        self.outputs.get(&flowlet).unwrap_or(&NONE)
    }

    /// Decode a flowlet's captured output with [`Codec`].
    ///
    /// # Panics
    /// Panics if the records do not decode as `(K, V)` — a type error
    /// in the job wiring, not a data condition.
    pub fn typed_output<K: Codec, V: Codec>(&self, flowlet: FlowletId) -> Vec<(K, V)> {
        let captured = self.output(flowlet);
        let mut out = Vec::with_capacity(captured.len());
        out.extend(captured.iter().map(|(k, v)| {
            (
                K::from_bytes(k).expect("output key decodes"),
                V::from_bytes(v).expect("output value decodes"),
            )
        }));
        out
    }
}
