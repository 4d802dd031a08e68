//! The cluster driver: owns the substrates, launches node runtimes,
//! and collects results.
//!
//! A [`Cluster`] persists across jobs: its disks, DFS namespace and
//! key-value store survive `run` calls, which is exactly how iterative
//! workloads (PageRank, K-Means) keep intermediate state in memory
//! between jobs instead of round-tripping through the file system.

mod run;

pub use run::{JobResult, RunOptions, Supervision};

use crate::config::ClusterConfig;
use crate::error::{ConfigError, RunError};
use crate::graph::JobGraph;
use crate::introspect::{Health, Introspect};
use crate::resident::ResidentStore;
use hamr_dfs::Dfs;
use hamr_kvstore::KvStore;
use hamr_simdisk::Disk;
use hamr_trace::{
    AuditReport, Journal, JournalConfig, JournalSlot, Labels, MetricsRegistry, WatchdogTrip,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// Hang an opened journal off the introspection plane, its byte and
/// record counters in the registry. Nothing is written until a job
/// starts: each job's `JobEnd` carries its own numbers.
fn wire_journal(introspect: &Arc<Introspect>, journal: Journal) -> Arc<Journal> {
    journal.set_metrics(
        introspect
            .registry
            .counter("journal_bytes_total", Labels::new().engine("hamr")),
        introspect
            .registry
            .counter("journal_records_total", Labels::new().engine("hamr")),
    );
    let journal = Arc::new(journal);
    introspect.journal.set(Some(Arc::clone(&journal)));
    journal
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
    wd_events: Mutex<Vec<WatchdogTrip>>,
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
                wire_journal(&introspect, journal);
            }
            Ok(None) => {}
            Err(err) => eprintln!("hamr: journal disabled: {err}"),
        }
        // Its counters accumulate into the cluster registry across
        // every job in a chain.
        let resident = Arc::new(ResidentStore::new(&introspect.registry));
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
    /// at completion. A job's own numbers are the difference of two
    /// [`snapshot`](MetricsRegistry::snapshot)s taken around it, or its
    /// [`JobResult::metrics`]; with a journal attached, `hamr timeline`
    /// reads them per job.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.introspect.registry
    }

    /// Current run-state as served by `/healthz`.
    pub fn health(&self) -> Health {
        self.introspect.health.lock().clone()
    }

    /// Turn the durable flight journal on for this cluster, writing
    /// into `dir` (created if needed; an existing journal is recovered
    /// and appended to). Equivalent to launching under
    /// `HAMR_JOURNAL=<dir>`. Returns the journal directory.
    pub fn enable_journal(&self, dir: impl Into<PathBuf>) -> std::io::Result<PathBuf> {
        let journal = Journal::open(JournalConfig::new(dir))?;
        let journal = wire_journal(&self.introspect, journal);
        Ok(journal.dir())
    }

    /// Directory of the active journal, if one is attached.
    pub fn journal_dir(&self) -> Option<PathBuf> {
        self.introspect.journal.get().map(|j| j.dir())
    }

    /// The slot this cluster's journal hangs in, shared: an engine
    /// holding a clone (the `mapred` baseline over the same substrates)
    /// journals into whatever journal the cluster has at the time, one
    /// attached later by [`enable_journal`](Cluster::enable_journal)
    /// included.
    pub fn journal_slot(&self) -> JournalSlot {
        self.introspect.journal.clone()
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

    /// Reset one workload namespace for a rerun: drop every KV key and
    /// every resident cache tag starting with `ns`. Returns the number
    /// of KV entries removed. Convention: workloads prefix their keys
    /// and tags `"<wl>/"` (e.g. `"pr/"`), so reruns are isolated
    /// without clearing other tenants' state.
    pub fn reset_namespace(&self, ns: &str) -> usize {
        self.resident.invalidate_prefix(ns);
        self.kv.remove_prefix(ns.as_bytes())
    }

    /// Fingerprint a DFS input for cache invalidation: hashes the
    /// path plus the block layout (ids and lengths), so rewriting or
    /// appending to the file yields a different fingerprint and
    /// `resident(tag, fp)` recomputes instead of serving stale frames.
    pub fn fingerprint(&self, path: &str) -> u64 {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(path.as_bytes());
        if let Ok(blocks) = self.dfs.blocks(path) {
            for b in &blocks {
                buf.extend_from_slice(&b.id.to_le_bytes());
                buf.extend_from_slice(&(b.len as u64).to_le_bytes());
            }
        }
        hamr_codec::stable_hash(&buf)
    }

    /// A node's local disk.
    pub fn disk(&self, node: usize) -> &Disk {
        &self.disks[node]
    }

    /// Run one job to completion under the options last given to
    /// [`set_run_options`](Cluster::set_run_options) (initially the
    /// default: unobserved, unsupervised).
    pub fn run(&self, graph: JobGraph) -> Result<JobResult, RunError> {
        let opts = self.options.lock().clone();
        self.run_with(graph, &opts)
    }

    /// Replace the options every plain [`run`](Cluster::run) uses from
    /// now on; `RunOptions::default()` detaches everything.
    pub fn set_run_options(&self, opts: RunOptions) {
        *self.options.lock() = opts;
    }

    /// Audit report of the most recent supervised run, if any.
    pub fn last_audit(&self) -> Option<AuditReport> {
        self.last_audit.lock().clone()
    }

    /// Watchdog incidents classified during the most recent supervised
    /// run (empty for a healthy run).
    pub fn watchdog_events(&self) -> Vec<WatchdogTrip> {
        self.wd_events.lock().clone()
    }
}
