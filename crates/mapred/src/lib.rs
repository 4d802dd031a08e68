//! A miniature disk-based MapReduce engine — the evaluation baseline.
//!
//! This is the stand-in for Hadoop / Intel Distribution for Hadoop 3.0
//! that the paper compares HAMR against. It deliberately implements the
//! cost structure the paper attributes to Hadoop:
//!
//! * **Disk-based**: map output goes through an in-memory sort buffer
//!   that spills *sorted runs* to the node's local disk; spills are
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
//!
//! It runs on the same `simdisk`/`simnet`/`dfs` substrates as the HAMR
//! engine, so head-to-head comparisons are apples-to-apples.

mod api;
mod chain;
mod job;
mod maptask;
mod reducetask;
mod sortbuf;

pub use api::{
    line_map_fn, map_fn, reduce_fn, LineMapper, MapOutput, Mapper, ReduceOutput, Reducer,
    TypedMapper, TypedReducer,
};
pub use chain::JobChain;
pub use job::{JobStats, MrCluster, MrConfig, MrError, MrRunOptions, StartupModel};

use std::sync::Arc;

/// How a job interprets its DFS input records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Records are text lines (trailing `\n`); the mapper sees
    /// `(byte offset: u64, line bytes)` like Hadoop's TextInputFormat.
    TextLines,
    /// Records are length-prefixed `(key, value)` pairs, the format
    /// reducers write — used for chained jobs' intermediates.
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

/// Encode one `(key, value)` pair in the engine's KV record format.
pub fn encode_kv(key: &[u8], value: &[u8], buf: &mut Vec<u8>) {
    hamr_codec::write_varint(key.len() as u64, buf);
    buf.extend_from_slice(key);
    hamr_codec::write_varint(value.len() as u64, buf);
    buf.extend_from_slice(value);
}

/// Decode one KV record from the front of `input`; `None` at end.
pub fn decode_kv(input: &mut &[u8]) -> Option<(bytes::Bytes, bytes::Bytes)> {
    if input.is_empty() {
        return None;
    }
    let klen = hamr_codec::read_varint(input).ok()? as usize;
    if input.len() < klen {
        return None;
    }
    let key = bytes::Bytes::copy_from_slice(&input[..klen]);
    *input = &input[klen..];
    let vlen = hamr_codec::read_varint(input).ok()? as usize;
    if input.len() < vlen {
        return None;
    }
    let value = bytes::Bytes::copy_from_slice(&input[..vlen]);
    *input = &input[vlen..];
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_roundtrip() {
        let mut buf = Vec::new();
        encode_kv(b"key", b"value", &mut buf);
        encode_kv(b"", b"", &mut buf);
        encode_kv(b"x", &[0xff, 0x00], &mut buf);
        let mut input = buf.as_slice();
        assert_eq!(
            decode_kv(&mut input).unwrap(),
            (
                bytes::Bytes::from_static(b"key"),
                bytes::Bytes::from_static(b"value")
            )
        );
        assert_eq!(
            decode_kv(&mut input).unwrap(),
            (bytes::Bytes::new(), bytes::Bytes::new())
        );
        assert_eq!(
            decode_kv(&mut input).unwrap(),
            (
                bytes::Bytes::from_static(b"x"),
                bytes::Bytes::from_static(&[0xff, 0x00])
            )
        );
        assert!(decode_kv(&mut input).is_none());
    }

    #[test]
    fn decode_kv_tolerates_truncation() {
        let mut buf = Vec::new();
        encode_kv(b"key", b"value", &mut buf);
        buf.truncate(buf.len() - 2);
        let mut input = buf.as_slice();
        assert!(decode_kv(&mut input).is_none());
    }
}
