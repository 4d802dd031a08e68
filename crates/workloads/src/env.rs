//! The shared benchmark environment: both engines over one substrate
//! and one introspection plane (registry and journal), and what a
//! benchmark run hands back.
//!
//! A run's per-job numbers are its [`BenchOutput::jobs`]: one
//! [`JobRow`] per job, built by the engine that ran it (HAMR's
//! `JobResult::row`, `mapred`'s `JobStats::row`) — the same rows the
//! journal holds. No workload adds per-job numbers up. Five fields wait
//! for the next `[benchmark]` PR, which reads `jobs` instead:
//! `shuffle_records`, `combined_records`, `park_seconds`,
//! `splits_triggered` and `iters`; [`BenchOutput::hamr`] and
//! [`BenchOutput::mapred`] fill them, once per engine.

use hamr_core::{Cluster, ClusterConfig, JobMetrics, JobResult, JobRow};
use hamr_dfs::Dfs;
use hamr_mapred::{JobStats, MrCluster, MrConfig, StartupModel};
use hamr_simdisk::{Disk, DiskConfig};
use hamr_simnet::NetConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Simulation parameters for one benchmark environment.
#[derive(Debug, Clone)]
pub struct SimParams {
    pub nodes: usize,
    pub threads_per_node: usize,
    pub net: NetConfig,
    pub disk: DiskConfig,
    pub dfs_block_size: usize,
    /// Hadoop job/task startup cost model.
    pub startup: StartupModel,
    /// Hadoop map-side sort buffer per task.
    pub sort_buffer: usize,
    /// Input scale factor applied by each benchmark's generator: 1.0
    /// means the harness default size (already ~1/4096 of the paper's).
    pub scale: f64,
    /// RNG seed so runs are reproducible.
    pub seed: u64,
}

impl SimParams {
    /// Untimed small environment for correctness tests.
    pub fn test(nodes: usize, threads: usize) -> Self {
        SimParams {
            nodes,
            threads_per_node: threads,
            net: NetConfig::instant(),
            disk: DiskConfig::instant(),
            dfs_block_size: 64 << 10,
            startup: StartupModel::instant(),
            sort_buffer: 1 << 20,
            scale: 0.05,
            seed: 42,
        }
    }

    /// The scaled stand-in for the paper's testbed (see DESIGN.md):
    /// modeled network/disk/startup costs sized so cost *ratios* match
    /// the scaled-down inputs.
    pub fn paper_scaled() -> Self {
        SimParams {
            nodes: 8,
            threads_per_node: 4,
            // Bandwidths scaled down with the data (~1/4096 of the
            // testbed) so data-proportional costs keep their weight;
            // startup costs scaled the same way (Hadoop job submission
            // ~tens of seconds at full scale -> tens of ms here).
            net: NetConfig::modeled(Duration::from_micros(100), 2 << 20),
            disk: DiskConfig::modeled(6 << 20, Duration::from_micros(150)),
            dfs_block_size: 256 << 10,
            startup: StartupModel::modeled(Duration::from_millis(120), Duration::from_millis(2)),
            sort_buffer: 1 << 20,
            scale: 1.0,
            seed: 2015,
        }
    }

    /// Scale every generator's input size by `s`.
    pub fn with_scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }
}

/// Both engines bound to one set of disks and one DFS namespace.
pub struct Env {
    pub params: SimParams,
    pub disks: Vec<Disk>,
    pub dfs: Dfs,
    pub hamr: Cluster,
    pub mr: MrCluster,
    /// Paths handed out by [`Env::unique_path`].
    paths: AtomicU64,
}

impl Env {
    pub fn new(params: SimParams) -> Self {
        let disks: Vec<Disk> = (0..params.nodes)
            .map(|_| Disk::new(params.disk.clone()))
            .collect();
        let dfs = Dfs::new(
            disks.clone(),
            hamr_dfs::DfsConfig {
                block_size: params.dfs_block_size,
                replication: 2.min(params.nodes),
            },
        );
        let hamr_config = ClusterConfig {
            nodes: params.nodes,
            threads_per_node: params.threads_per_node,
            net: params.net.clone(),
            disk: params.disk.clone(),
            dfs: hamr_dfs::DfsConfig {
                block_size: params.dfs_block_size,
                replication: 2.min(params.nodes),
            },
            runtime: Default::default(),
        };
        let hamr = Cluster::with_substrates(hamr_config, disks.clone(), dfs.clone());
        let mr_config = MrConfig {
            nodes: params.nodes,
            map_slots: params.threads_per_node,
            reduce_slots: params.threads_per_node,
            sort_buffer: params.sort_buffer,
            net: params.net.clone(),
            startup: params.startup,
        };
        let mr = MrCluster::new(mr_config, disks.clone(), dfs.clone());
        // One introspection plane for the whole environment: the
        // baseline publishes into the HAMR cluster's registry under
        // engine="mapred", so a single /metrics scrape covers both, and
        // journals its jobs into whatever journal the cluster has.
        mr.set_plane(hamr.registry().clone(), hamr.journal_slot());
        Env {
            params,
            disks,
            dfs,
            hamr,
            mr,
            paths: AtomicU64::new(0),
        }
    }

    /// Fresh untimed test environment.
    pub fn test(nodes: usize, threads: usize) -> Self {
        Env::new(SimParams::test(nodes, threads))
    }

    /// Build an Env whose HAMR runtime config is customized (ablations).
    pub fn with_hamr_runtime(params: SimParams, runtime: hamr_core::RuntimeConfig) -> Self {
        let mut env = Env::new(params.clone());
        let mut config = env.hamr.config().clone();
        config.runtime = runtime;
        env.hamr = Cluster::with_substrates(config, env.disks.clone(), env.dfs.clone());
        // The replacement cluster brings a fresh plane; re-point the
        // baseline at it so both engines stay on one.
        env.mr
            .set_plane(env.hamr.registry().clone(), env.hamr.journal_slot());
        env
    }

    /// Build an Env whose HAMR cluster runs under a specific scheduler
    /// (overrides the `HAMR_SCHED` environment default).
    pub fn with_hamr_sched(params: SimParams, sched: hamr_core::SchedMode) -> Self {
        let runtime = hamr_core::RuntimeConfig {
            sched,
            ..Default::default()
        };
        Env::with_hamr_runtime(params, runtime)
    }
}

impl Env {
    /// Reset one workload's rerun state: every KV key and every
    /// resident cache tag prefixed `ns` (convention: `"<wl>/"`, e.g.
    /// `"pr/"`). Centralizes the cleanup each iterative workload used
    /// to hand-roll with `kv().clear()` — which nuked *every* tenant's
    /// state, not just its own. Returns the number of KV entries
    /// dropped.
    pub fn reset_namespace(&self, ns: &str) -> usize {
        self.hamr.reset_namespace(ns)
    }

    /// A DFS path no earlier call on this `Env` returned: MapReduce jobs
    /// refuse to overwrite outputs, like Hadoop, and every `Env` has its
    /// own DFS.
    pub fn unique_path(&self, prefix: &str) -> String {
        format!("{prefix}-{}", self.paths.fetch_add(1, Ordering::Relaxed))
    }

    /// Idempotently write a text file into the DFS.
    pub fn seed_text(&self, path: &str, lines: &[String]) -> Result<(), String> {
        if self.dfs.exists(path) {
            return Ok(());
        }
        let mut w = self.dfs.create(path).map_err(|e| e.to_string())?;
        for line in lines {
            w.write_line(line);
        }
        w.seal().map_err(|e| e.to_string())
    }
}

/// Apply the environment's input scale factor to a base size.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// One iteration of a chained HAMR workload (iteration 0 is the
/// setup/build iteration). Read by `benchmark/` only; the next
/// `[benchmark]` PR replaces it with `BenchOutput::jobs`.
#[derive(Debug, Clone, Default)]
pub struct IterStats {
    /// Wall-clock time of this iteration's job(s).
    pub elapsed: Duration,
}

/// One engine's result on one benchmark: the answer, and the row of
/// every job the engine ran for it. The rest is derived from those rows
/// and metrics here, in one constructor per engine, for `benchmark/`.
#[derive(Debug, Clone, Default)]
pub struct BenchOutput {
    /// Wall-clock execution time (the paper's Table 2 metric).
    pub elapsed: Duration,
    /// Order-independent checksum of the semantic output, for
    /// cross-engine equivalence checks.
    pub checksum: u64,
    /// Number of semantic output records.
    pub records: u64,
    /// Each job's row, in run order, as its engine built it.
    pub jobs: Vec<JobRow>,
    /// Records emitted into the shuffles, summed over `jobs`. Read by
    /// `benchmark/` only; the next `[benchmark]` PR replaces it with
    /// `jobs`.
    pub shuffle_records: u64,
    /// Records HAMR's in-node combiners folded away; 0 on `mapred`.
    /// Read by `benchmark/` only; the next `[benchmark]` PR replaces it
    /// with `jobs`.
    pub combined_records: u64,
    /// Worker time parked waiting for work, in seconds; 0 on `mapred`.
    /// Read by `benchmark/` only; the next `[benchmark]` PR replaces it
    /// with `jobs`.
    pub park_seconds: f64,
    /// Always 0: hot-key splitting is gone. Read by `benchmark/` only;
    /// the next `[benchmark]` PR replaces it with `jobs`.
    pub splits_triggered: u64,
    /// A chain's iterations; empty for single-job workloads and on
    /// `mapred`. Read by `benchmark/` only; the next `[benchmark]` PR
    /// replaces it with `jobs`.
    pub iters: Vec<IterStats>,
}

impl BenchOutput {
    /// A HAMR run whose jobs, in run order, returned `jobs`.
    pub fn hamr(elapsed: Duration, checksum: u64, records: u64, jobs: &[JobResult]) -> Self {
        let metrics = || jobs.iter().map(|j| &j.metrics);
        BenchOutput {
            combined_records: metrics().map(JobMetrics::total_combined).sum(),
            park_seconds: metrics().map(|m| m.total_park_time().as_secs_f64()).sum(),
            ..Self::of_rows(elapsed, checksum, records, jobs.iter().map(|j| j.row.clone()))
        }
    }

    /// A `mapred` run whose jobs, in run order, returned `jobs`.
    pub fn mapred(elapsed: Duration, checksum: u64, records: u64, jobs: &[JobStats]) -> Self {
        Self::of_rows(elapsed, checksum, records, jobs.iter().map(JobStats::row))
    }

    fn of_rows(
        elapsed: Duration,
        checksum: u64,
        records: u64,
        rows: impl Iterator<Item = JobRow>,
    ) -> Self {
        let jobs: Vec<JobRow> = rows.collect();
        BenchOutput {
            elapsed,
            checksum,
            records,
            shuffle_records: jobs.iter().filter_map(|r| r.shuffle_records).sum(),
            jobs,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shares_dfs_between_engines() {
        let env = Env::test(2, 2);
        let mut w = env.dfs.create("shared.txt").unwrap();
        w.write_line("hello");
        w.seal().unwrap();
        // Visible through both engines' handles.
        assert!(env.hamr.dfs().exists("shared.txt"));
        assert!(env.mr.dfs().exists("shared.txt"));
    }

    #[test]
    fn paper_scaled_params_are_timed() {
        let p = SimParams::paper_scaled();
        assert!(!p.net.is_instant());
        assert!(!p.disk.is_instant());
        assert!(p.startup.job > Duration::ZERO);
    }
}
