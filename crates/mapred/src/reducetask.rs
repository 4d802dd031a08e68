//! One reduce task: merge the fetched, key-sorted map-output chunks,
//! group by key, run the reducer, and write `part-r-<n>` to the DFS.

use crate::api::ReduceOutput;
use crate::job::MrError;
use crate::{encode_kv, take_field, JobConf};
use bytes::Bytes;
use hamr_dfs::Dfs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

pub(crate) struct ReduceTaskResult {
    pub records_in: u64,
    pub records_out: u64,
    pub groups: u64,
    pub output_bytes: u64,
}

/// Execute reduce task `r` over its fetched chunks on `node`. A chunk
/// that ends inside an entry fails the task: the rest of it is lost.
pub(crate) fn run_reduce_task(
    conf: &JobConf,
    r: usize,
    node: usize,
    chunks: Vec<Arc<Vec<u8>>>,
    dfs: &Dfs,
) -> Result<ReduceTaskResult, MrError> {
    let torn = |offset| MrError::TruncatedChunk { reducer: r, offset };
    // The map side dropped its reference after sending, so each chunk
    // unwraps into a shared buffer without copying; keys and values are
    // then sliced out of it zero-copy instead of allocated per record.
    let mut sources: Vec<ChunkIter> = chunks
        .into_iter()
        .map(|c| {
            let data = Arc::try_unwrap(c)
                .map(Bytes::from)
                .unwrap_or_else(|shared| Bytes::copy_from_slice(&shared));
            ChunkIter::new(data)
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(Bytes, usize, Bytes)>> = BinaryHeap::new();
    for (i, src) in sources.iter_mut().enumerate() {
        if let Some((k, v)) = src.next().map_err(torn)? {
            heap.push(Reverse((k, i, v)));
        }
    }
    let path = format!("{}/part-r-{r}", conf.output);
    let mut writer = dfs.create_from(&path, Some(node))?;
    let mut records_in = 0u64;
    let mut records_out = 0u64;
    let mut groups = 0u64;
    let mut output_bytes = 0u64;
    while let Some(Reverse((key, i, v))) = heap.pop() {
        if let Some((k2, v2)) = sources[i].next().map_err(torn)? {
            heap.push(Reverse((k2, i, v2)));
        }
        let mut values = vec![v];
        while let Some(Reverse((k2, _, _))) = heap.peek() {
            if *k2 != key {
                break;
            }
            let Reverse((_, j, v2)) = heap.pop().expect("peeked");
            values.push(v2);
            if let Some((k3, v3)) = sources[j].next().map_err(torn)? {
                heap.push(Reverse((k3, j, v3)));
            }
        }
        records_in += values.len() as u64;
        groups += 1;
        let mut sink = |k: Bytes, v: Bytes| {
            records_out += 1;
            let mut rec = Vec::with_capacity(k.len() + v.len() + 8);
            encode_kv(&k, &v, &mut rec);
            output_bytes += rec.len() as u64;
            writer.write_record(&rec);
        };
        let mut out = ReduceOutput::new(&mut sink);
        let mut iter = values.into_iter();
        conf.reducer.reduce(&key, &mut iter, &mut out);
    }
    writer.seal()?;
    Ok(ReduceTaskResult {
        records_in,
        records_out,
        groups,
        output_bytes,
    })
}

/// Iterator over one chunk's KV records, slicing each key and value
/// zero-copy out of the chunk's shared buffer.
struct ChunkIter {
    chunk: Bytes,
    pos: usize,
}

impl ChunkIter {
    fn new(chunk: Bytes) -> Self {
        ChunkIter { chunk, pos: 0 }
    }

    /// The next record: `Ok(None)` at the chunk's end, `Err(offset)`
    /// when the chunk ends inside the entry starting at `offset`.
    fn next(&mut self) -> Result<Option<(Bytes, Bytes)>, u64> {
        let (start, end) = (self.pos, self.chunk.len());
        let mut input = &self.chunk[start..];
        if input.is_empty() {
            return Ok(None);
        }
        let field = |input: &mut &[u8]| -> Result<std::ops::Range<usize>, u64> {
            let field = take_field(input).map_err(|_| start as u64)?;
            let at = end - input.len() - field.len();
            Ok(at..at + field.len())
        };
        let key = field(&mut input)?;
        let value = field(&mut input)?;
        self.pos = value.end;
        Ok(Some((self.chunk.slice(key), self.chunk.slice(value))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{line_map_fn, reduce_fn};
    use crate::decode_kv;
    use hamr_codec::Codec;
    use hamr_dfs::DfsConfig;
    use hamr_simdisk::Disk;
    use std::sync::Arc;

    fn sorted_chunk(pairs: &[(&str, u64)]) -> Vec<u8> {
        let mut sorted: Vec<_> = pairs.to_vec();
        sorted.sort();
        let mut buf = Vec::new();
        for (k, v) in sorted {
            encode_kv(&k.to_string().to_bytes(), &v.to_bytes(), &mut buf);
        }
        buf
    }

    #[test]
    fn reduce_merges_chunks_and_writes_output() {
        let disks: Vec<Disk> = (0..2).map(|_| Disk::new(Default::default())).collect();
        let dfs = Dfs::new(disks, DfsConfig::default());
        let conf = JobConf::new(
            "t",
            vec![],
            "out",
            Arc::new(line_map_fn(|_, _, _| {})),
            Arc::new(reduce_fn(
                |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                    out.emit_t(&k, &vs.iter().sum::<u64>());
                },
            )),
        );
        let chunks = vec![
            Arc::new(sorted_chunk(&[("a", 1), ("b", 2)])),
            Arc::new(sorted_chunk(&[("a", 10), ("c", 3)])),
            Arc::new(Vec::new()),
        ];
        let res = run_reduce_task(&conf, 0, 0, chunks, &dfs).unwrap();
        assert_eq!(res.groups, 3);
        assert_eq!(res.records_in, 4);
        assert_eq!(res.records_out, 3);
        let raw = dfs.read_all("out/part-r-0").unwrap();
        let mut input = raw.as_slice();
        let mut got = Vec::new();
        while let Some((k, v)) = decode_kv(&mut input).unwrap() {
            got.push((
                String::from_bytes(&k).unwrap(),
                u64::from_bytes(&v).unwrap(),
            ));
        }
        got.sort();
        assert_eq!(
            got,
            vec![("a".into(), 11), ("b".into(), 2), ("c".into(), 3)]
        );
    }

    /// A chunk cut inside its last entry fails the task, naming the
    /// reducer and where the torn entry starts; it does not reduce the
    /// records before the cut and drop the rest.
    #[test]
    fn a_truncated_chunk_fails_the_reduce_task() {
        let disks: Vec<Disk> = (0..1).map(|_| Disk::new(Default::default())).collect();
        let dfs = Dfs::new(disks, DfsConfig::default());
        let conf = JobConf::new(
            "t",
            vec![],
            "out3",
            Arc::new(line_map_fn(|_, _, _| {})),
            Arc::new(reduce_fn(
                |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                    out.emit_t(&k, &vs.iter().sum::<u64>());
                },
            )),
        );
        let whole = sorted_chunk(&[("a", 1), ("b", 2)]);
        let last = sorted_chunk(&[("a", 1)]).len() as u64;
        let cut = whole[..whole.len() - 1].to_vec();
        let chunks = vec![Arc::new(sorted_chunk(&[("c", 3)])), Arc::new(cut)];
        match run_reduce_task(&conf, 2, 0, chunks, &dfs) {
            Err(MrError::TruncatedChunk { reducer, offset }) => {
                assert_eq!((reducer, offset), (2, last));
            }
            other => panic!("a torn chunk must fail the task: {:?}", other.map(|r| r.groups)),
        }
    }

    #[test]
    fn reduce_with_no_chunks_writes_empty_part() {
        let disks: Vec<Disk> = (0..1).map(|_| Disk::new(Default::default())).collect();
        let dfs = Dfs::new(disks, DfsConfig::default());
        let conf = JobConf::new(
            "t",
            vec![],
            "out2",
            Arc::new(line_map_fn(|_, _, _| {})),
            Arc::new(reduce_fn(
                |_k: String, _vs: Vec<u64>, _out: &mut ReduceOutput| {},
            )),
        );
        let res = run_reduce_task(&conf, 3, 0, vec![], &dfs).unwrap();
        assert_eq!(res.groups, 0);
        assert!(dfs.exists("out2/part-r-3"));
        assert_eq!(dfs.len("out2/part-r-3").unwrap(), 0);
    }
}
