//! A chain of jobs on one cluster.

use crate::cluster::{Cluster, JobResult};
use crate::error::RunError;
use crate::graph::JobGraph;

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
    pub(crate) cluster: &'a Cluster,
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
    /// Residency annotations connect the links: a missed `resident`
    /// source in job *k* fills the store, and a matching `resident`
    /// source in job *k+1…* is served from it.
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
        self.cluster.resident().invalidate_prefix(ns);
        self.cluster.kv().remove_prefix(ns.as_bytes())
    }

    /// Fingerprint a DFS input for cache invalidation: hashes the
    /// path plus the block layout (ids and lengths), so rewriting or
    /// appending to the file yields a different fingerprint and
    /// `resident(tag, fp)` recomputes instead of serving stale frames.
    pub fn fingerprint(&self, path: &str) -> u64 {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(path.as_bytes());
        if let Ok(blocks) = self.cluster.dfs().blocks(path) {
            for b in &blocks {
                buf.extend_from_slice(&b.id.to_le_bytes());
                buf.extend_from_slice(&(b.len as u64).to_le_bytes());
            }
        }
        hamr_codec::stable_hash(&buf)
    }
}
