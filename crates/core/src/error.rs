//! Error types for graph construction and job execution.

use crate::graph::FlowletId;
use std::fmt;

/// The message of a caught panic: its `&str` or `String` payload, or
/// `fallback` for anything else.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send), fallback: &str) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| fallback.to_string())
}

/// Errors detected while validating a flowlet graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no flowlets.
    Empty,
    /// The edge set contains a cycle (flowlet graphs must be DAGs).
    Cycle,
    /// A non-loader flowlet has no incoming edge, so it could never fire.
    Unreachable(FlowletId),
    /// A loader has an incoming edge; loaders are pure sources.
    LoaderWithInput(FlowletId),
    /// An edge references a flowlet id that does not exist.
    UnknownFlowlet(FlowletId),
    /// Duplicate edge between the same pair of flowlets.
    DuplicateEdge { src: FlowletId, dst: FlowletId },
    /// A full `Reduce` is downstream of a stream source; reduce needs
    /// total input completion, which a stream never provides.
    ReduceOnStream(FlowletId),
    /// `capture_output` named a flowlet that does not exist.
    UnknownOutput(FlowletId),
    /// `connect_combined` was used on an edge that is not a `Hash`
    /// exchange into a `Reduce`/`PartialReduce` — pre-merging values
    /// anywhere else would change the job's result.
    InvalidCombinerEdge { src: FlowletId, dst: FlowletId },
    /// A residency annotation that cannot work: `resident` on a
    /// non-loader (serving replaces loader splits), an empty cache
    /// tag, or a cache annotation on a stream source (streams never
    /// complete, so their frames can never be pinned whole).
    InvalidCacheAnnotation {
        flowlet: FlowletId,
        reason: &'static str,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "flowlet graph is empty"),
            GraphError::Cycle => write!(f, "flowlet graph contains a cycle"),
            GraphError::Unreachable(id) => {
                write!(f, "flowlet {id} has no input edge and is not a loader")
            }
            GraphError::LoaderWithInput(id) => write!(f, "loader flowlet {id} has an input edge"),
            GraphError::UnknownFlowlet(id) => write!(f, "edge references unknown flowlet {id}"),
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge {src} -> {dst}")
            }
            GraphError::ReduceOnStream(id) => write!(
                f,
                "reduce flowlet {id} is downstream of a stream source; use a partial reduce"
            ),
            GraphError::UnknownOutput(id) => {
                write!(f, "capture_output names unknown flowlet {id}")
            }
            GraphError::InvalidCombinerEdge { src, dst } => write!(
                f,
                "combiner on edge {src} -> {dst}: combiners require a Hash \
                 exchange into a reduce or partial-reduce flowlet"
            ),
            GraphError::InvalidCacheAnnotation { flowlet, reason } => {
                write!(f, "cache annotation on flowlet {flowlet}: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Errors detected while validating a [`crate::ClusterConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes == 0`: a cluster needs at least one node.
    ZeroNodes,
    /// `threads_per_node == 0`: every node needs at least one worker.
    ZeroThreads,
    /// `runtime.bin_capacity == 0`: bins could never fill or ship.
    ZeroBinCapacity,
    /// `runtime.out_window_bins == 0`: flow control would deadlock
    /// every producer immediately.
    ZeroWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "cluster config has zero nodes"),
            ConfigError::ZeroThreads => {
                write!(f, "cluster config has zero worker threads per node")
            }
            ConfigError::ZeroBinCapacity => write!(f, "runtime config has zero bin capacity"),
            ConfigError::ZeroWindow => {
                write!(f, "runtime config has a zero flow-control window")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors surfaced while running a job.
#[derive(Debug, Clone)]
pub enum RunError {
    /// A node runtime panicked; the message carries the panic payload.
    NodePanic { node: usize, message: String },
    /// A substrate disk failed: a reduce spill could not be written, or
    /// a spilled run read back short.
    Disk(hamr_simdisk::DiskError),
    /// The watchdog classified the run as unhealthy and aborted it
    /// instead of hanging forever. The trip's `detail` names the stuck
    /// edge/node; the matching flight-recorder dump carries the full
    /// post-mortem.
    Watchdog(hamr_trace::WatchdogTrip),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NodePanic { node, message } => {
                write!(f, "node {node} runtime panicked: {message}")
            }
            RunError::Disk(e) => write!(f, "disk error: {e}"),
            RunError::Watchdog(hamr_trace::WatchdogTrip {
                class,
                epoch,
                detail,
            }) => write!(
                f,
                "watchdog aborted the job at epoch {epoch} ({}): {detail}",
                class.name()
            ),
        }
    }
}

impl std::error::Error for RunError {}
