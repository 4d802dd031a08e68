//! One reduce task: merge the fetched, key-sorted map-output chunks,
//! group by key, run the reducer, and write `part-r-<n>` to the DFS.

use crate::api::ReduceOutput;
use crate::job::MrError;
use crate::{decode_kv, encode_kv, merge, JobConf};
use hamr_dfs::Dfs;
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
    let path = format!("{}/part-r-{r}", conf.output);
    let mut writer = dfs.create_from(&path, Some(node))?;
    let (mut records_in, mut records_out, mut groups, mut output_bytes) = (0u64, 0u64, 0u64, 0u64);
    // One output record buffer serves the whole task; keys and values
    // are borrowed from the chunks.
    let mut rec = Vec::new();
    let mut sink = |k: &[u8], v: &[u8]| {
        records_out += 1;
        rec.clear();
        encode_kv(k, v, &mut rec);
        output_bytes += rec.len() as u64;
        writer.write_record(&rec);
    };
    let mut out = ReduceOutput::new(&mut sink);
    let sources: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    merge(&sources, decode_kv, |key, values| {
        records_in += values.len() as u64;
        groups += 1;
        conf.reducer
            .reduce(key, &mut values.iter().copied(), &mut out);
    })
    .map_err(|(_, offset)| MrError::TruncatedChunk { reducer: r, offset })?;
    drop(out);
    writer.seal()?;
    Ok(ReduceTaskResult {
        records_in,
        records_out,
        groups,
        output_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{line_map_fn, reduce_fn};
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

    /// A DFS over `nodes` disks and a summing job writing to `output`.
    fn summing(nodes: usize, output: &str) -> (Dfs, JobConf) {
        let disks: Vec<Disk> = (0..nodes).map(|_| Disk::new(Default::default())).collect();
        let sum = reduce_fn(|k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        });
        let conf = JobConf::new(
            "t",
            vec![],
            output,
            Arc::new(line_map_fn(|_, _, _| {})),
            Arc::new(sum),
        );
        (Dfs::new(disks, DfsConfig::default()), conf)
    }

    #[test]
    fn reduce_merges_chunks_and_writes_output() {
        let (dfs, conf) = summing(2, "out");
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
            got.push((String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()));
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
        let (dfs, conf) = summing(1, "out3");
        let whole = sorted_chunk(&[("a", 1), ("b", 2)]);
        let last = sorted_chunk(&[("a", 1)]).len() as u64;
        let cut = whole[..whole.len() - 1].to_vec();
        let chunks = vec![Arc::new(sorted_chunk(&[("c", 3)])), Arc::new(cut)];
        match run_reduce_task(&conf, 2, 0, chunks, &dfs) {
            Err(MrError::TruncatedChunk { reducer, offset }) => {
                assert_eq!((reducer, offset), (2, last));
            }
            other => panic!(
                "a torn chunk must fail the task: {:?}",
                other.map(|r| r.groups)
            ),
        }
    }

    #[test]
    fn reduce_with_no_chunks_writes_empty_part() {
        let (dfs, conf) = summing(1, "out2");
        let res = run_reduce_task(&conf, 3, 0, vec![], &dfs).unwrap();
        assert_eq!(res.groups, 0);
        assert!(dfs.exists("out2/part-r-3"));
        assert_eq!(dfs.len("out2/part-r-3").unwrap(), 0);
    }
}
