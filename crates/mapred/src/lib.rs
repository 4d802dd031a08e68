//! A miniature disk-based MapReduce engine — the evaluation baseline.
//!
//! This is the stand-in for Hadoop / Intel Distribution for Hadoop 3.0
//! that the paper compares HAMR against. It deliberately implements the
//! cost structure the paper attributes to Hadoop:
//!
//! * **Disk-based**: map output goes through an in-memory sort buffer,
//!   shaped like Hadoop's `MapOutputBuffer`: one byte array (`kvbuffer`)
//!   holding the records and a metadata array (`kvmeta`) sorted in
//!   place. It spills *sorted runs* to the node's local disk; spills are
//!   merged into per-reducer partition files; reducers write final
//!   output back to the DFS. Chained jobs round-trip through the DFS.
//! * **Barrier between map and reduce**: reducers *fetch* map output as
//!   soon as each map task finishes (shuffle overlaps computation,
//!   hiding network latency), but reduce *computation* starts only
//!   after every map task has completed and all fetches are in.
//! * **Per-job and per-task startup costs** model job submission and
//!   JVM forking — the overhead the paper's multi-job applications pay
//!   on every chained job.
//! * **Locality-aware map scheduling**: map tasks prefer the node
//!   holding their split's primary replica, like Hadoop's scheduler.
//! * **Combiner** support: an optional reducer run over map-side runs
//!   at spill time, shrinking intermediate data (Table 3's knob).
//! * **One task-slot loop** runs both phases: `MrConfig::slots` scoped
//!   threads per node take map tasks, then reduce tasks, each paying
//!   the task start-up, bracketed by `TaskStart` / `TaskEnd`, and the
//!   first failure of any task stops every slot and fails the job.
//!
//! It runs on the same `simdisk`/`simnet`/`dfs` substrates as the HAMR
//! engine, so head-to-head comparisons are apples-to-apples.

mod api;
mod job;
mod maptask;
mod reducetask;
mod sortbuf;

pub use api::{
    line_map_fn, map_fn, reduce_fn, LineMapper, MapOutput, Mapper, ReduceOutput, Reducer,
    TypedMapper, TypedReducer,
};
pub use job::{JobStats, MrCluster, MrConfig, MrError, MrRunOptions, StartupModel};

use std::sync::Arc;

/// How a job interprets its DFS input records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Records are text lines (trailing `\n`); the mapper sees
    /// `(byte offset: u64, line bytes)` like Hadoop's TextInputFormat.
    TextLines,
    /// Records are frame entries (`hamr_codec::write_entry`), the
    /// format reducers write — used for chained jobs' intermediates.
    KeyValue,
}

/// One MapReduce job description.
#[derive(Clone)]
pub struct JobConf {
    pub name: String,
    /// DFS input paths (all splits of all paths become map tasks).
    pub input: Vec<String>,
    /// DFS output path prefix; reducer `r` writes `<output>/part-r-<r>`.
    pub output: String,
    pub input_format: InputFormat,
    pub mapper: Arc<dyn Mapper>,
    pub reducer: Arc<dyn Reducer>,
    /// Optional map-side combiner (a reducer over map-local runs).
    pub combiner: Option<Arc<dyn Reducer>>,
    /// Number of reduce tasks (round-robin over nodes).
    pub reducers: usize,
}

impl JobConf {
    pub fn new(
        name: impl Into<String>,
        input: Vec<String>,
        output: impl Into<String>,
        mapper: Arc<dyn Mapper>,
        reducer: Arc<dyn Reducer>,
    ) -> Self {
        JobConf {
            name: name.into(),
            input,
            output: output.into(),
            input_format: InputFormat::TextLines,
            mapper,
            reducer,
            combiner: None,
            reducers: 0, // 0 = one per node
        }
    }

    pub fn with_combiner(mut self, c: Arc<dyn Reducer>) -> Self {
        self.combiner = Some(c);
        self
    }

    pub fn with_input_format(mut self, f: InputFormat) -> Self {
        self.input_format = f;
        self
    }

    pub fn with_reducers(mut self, r: usize) -> Self {
        self.reducers = r;
        self
    }
}
