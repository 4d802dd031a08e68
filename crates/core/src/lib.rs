//! HAMR core: a dataflow-based, in-memory cluster computing engine.
//!
//! This is the reproduction of the PMAM'15 paper's contribution. A job
//! is a DAG of **flowlets**:
//!
//! * [`Loader`] — pulls records from a data source (DFS splits, local
//!   disk, generators) at the start of the workflow;
//! * [`MapFn`] — transforms key-value pairs, may connect to *any*
//!   flowlet type (unlike MapReduce's fixed map→reduce shape);
//! * [`ReduceFn`] — groups all pairs by key; semantically requires all
//!   upstream data, so it is the only place a barrier exists;
//! * [`PartialReduceFn`] — folds commutative+associative updates into
//!   per-key accumulators *immediately* as bins arrive, overlapping
//!   network latency and compressing memory.
//!
//! Each cluster node runs the **whole** flowlet graph (per the paper,
//! unlike Dryad's per-node subgraphs); records are hash-partitioned so
//! every node owns a slice of the key space. Data moves between
//! flowlets as **bins** — the minimum schedulable unit — and a
//! fine-grain scheduler fires a flowlet task as soon as a bin and a
//! pool thread are available. Completion messages propagate from
//! loaders downstream; flow control suspends producers when a
//! destination's inbound queue fills.
//!
//! ```
//! use hamr_core::{Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, typed};
//!
//! // WordCount: loader -> map(split words) -> partial reduce(sum).
//! let cluster = Cluster::new(ClusterConfig::local(2, 2));
//! let mut job = JobBuilder::new("wordcount");
//! let lines = vec!["a b a".to_string(), "b a".to_string()];
//! let loader = job.add_loader("lines", typed::vec_loader(lines));
//! let words = job.add_map(
//!     "split",
//!     typed::map_fn(|_line_no: u64, line: String, out: &mut Emitter| {
//!         for w in line.split_whitespace() {
//!             out.emit_t(0, &w.to_string(), &1u64);
//!         }
//!     }),
//! );
//! let counts = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
//! job.connect(loader, words, Exchange::Local);
//! job.connect(words, counts, Exchange::Hash);
//! job.capture_output(counts);
//! let result = cluster.run(job.build().unwrap()).unwrap();
//! let mut out = result.typed_output::<String, u64>(counts);
//! out.sort();
//! assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2)]);
//! ```

mod cluster;
mod config;
mod error;
mod flowlet;
mod graph;
mod introspect;
mod metrics;
mod node;
mod outbuf;
mod plan;
mod record;
mod reduce_state;
pub mod resident;
mod sched;
mod spill;
pub mod stream;
pub mod typed;
mod watchdog;

pub use cluster::{Cluster, JobResult, RunOptions, Supervision};
pub use config::{ClusterConfig, FaultInjection, RuntimeConfig, SchedMode, SkewConfig};
pub use error::{ConfigError, GraphError, RunError};
pub use flowlet::{Emitter, Loader, MapFn, PartialReduceFn, ReduceFn, StreamSource, TaskContext};
pub use graph::{Exchange, FlowletId, FlowletKind, JobBuilder, JobGraph};
/// The type of [`JobResult::row`], shared with the `mapred` baseline.
pub use hamr_trace::JobRow;
pub use introspect::{Health, HttpMode};
pub use metrics::{FlowletMetrics, JobMetrics, NodeMetrics};
pub use outbuf::{Combiner, Partials};
pub use record::{Captured, FrameBin};
pub use resident::{CacheSpec, ResidentStats, ResidentStore};
pub use watchdog::{WatchdogAction, WatchdogConfig};

/// Node index within a cluster, shared with the substrates.
pub type NodeId = usize;
