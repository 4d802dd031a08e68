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

use hamr_codec::CodecError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// A `(key, value)` record borrowed from the buffer it was read from.
pub(crate) type Kv<'a, K = &'a [u8]> = (K, &'a [u8]);

/// Decode one KV record from the front of `input`: `Ok(None)` at a
/// clean end, an error when `input` ends inside the record (a torn
/// write), with `input` left where the record started. The key and
/// value are borrowed from `input`.
pub fn decode_kv<'a>(input: &mut &'a [u8]) -> Result<Option<Kv<'a>>, CodecError> {
    if input.is_empty() {
        return Ok(None);
    }
    let mut rest = *input;
    let key = take_field(&mut rest)?;
    let value = take_field(&mut rest)?;
    *input = rest;
    Ok(Some((key, value)))
}

/// One `varint(len) ++ bytes` field off the front of `input`.
fn take_field<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = hamr_codec::read_varint(input)? as usize;
    if input.len() < len {
        return Err(CodecError::Truncated);
    }
    let (field, rest) = input.split_at(len);
    *input = rest;
    Ok(field)
}

/// K-way merge of key-sorted sources, the map side's spill merge and
/// the reduce side's: `next` reads one record off the front of a
/// source, and `group` gets each key with its values, borrowed, source
/// by source and in each source's order. A source that ends inside a
/// record fails the merge with its index and the record's offset.
pub(crate) fn merge<'a, K: Ord + Copy>(
    sources: &[&'a [u8]],
    next: impl Fn(&mut &'a [u8]) -> Result<Option<Kv<'a, K>>, CodecError>,
    mut group: impl FnMut(K, &[&'a [u8]]),
) -> Result<(), (usize, u64)> {
    let mut rests = sources.to_vec();
    let mut pull = |i: usize, heap: &mut BinaryHeap<_>| {
        let rest = &mut rests[i];
        let record = next(rest).map_err(|_| (i, (sources[i].len() - rest.len()) as u64))?;
        if let Some((k, v)) = record {
            heap.push(Reverse((k, i, v)));
        }
        Ok(())
    };
    let mut heap = BinaryHeap::new();
    for i in 0..sources.len() {
        pull(i, &mut heap)?;
    }
    let mut values = Vec::new();
    while let Some(Reverse((key, i, v))) = heap.pop() {
        pull(i, &mut heap)?;
        values.clear();
        values.push(v);
        while let Some(Reverse((k2, _, _))) = heap.peek() {
            if *k2 != key {
                break;
            }
            let Reverse((_, j, v2)) = heap.pop().expect("peeked");
            values.push(v2);
            pull(j, &mut heap)?;
        }
        group(key, &values);
    }
    Ok(())
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
        let mut next = || decode_kv(&mut input).unwrap();
        assert_eq!(next(), Some((&b"key"[..], &b"value"[..])));
        assert_eq!(next(), Some((&b""[..], &b""[..])));
        assert_eq!(next(), Some((&b"x"[..], &[0xff, 0x00][..])));
        assert_eq!(next(), None);
    }

    /// Every cut inside a record is a torn entry, not the end of the
    /// input: the reader errs and stays put on the record.
    #[test]
    fn decode_kv_refuses_a_torn_entry() {
        let mut buf = Vec::new();
        encode_kv(b"key", b"value", &mut buf);
        let whole = buf.len();
        encode_kv(b"k2", b"v2", &mut buf);
        for cut in whole + 1..buf.len() {
            let mut input = &buf[..cut];
            assert!(decode_kv(&mut input).unwrap().is_some(), "cut {cut}");
            let before = input;
            assert_eq!(
                decode_kv(&mut input),
                Err(CodecError::Truncated),
                "cut {cut}"
            );
            assert_eq!(input, before, "cut {cut}");
        }
    }
}
