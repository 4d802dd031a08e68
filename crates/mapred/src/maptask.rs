//! One map task: read a split, run the mapper through the sort buffer,
//! and leave per-reducer partition files on the node's local disk.

use crate::api::MapOutput;
use crate::job::MrError;
use crate::sortbuf::SortBuffer;
use crate::{decode_kv, InputFormat, JobConf};
use hamr_codec::Codec;
use hamr_dfs::{Dfs, Split};
use hamr_simdisk::{Disk, DiskError};

/// Where a finished map task left its output for one reducer.
#[derive(Debug, Clone)]
pub(crate) struct MapOutputFile {
    pub partition: usize,
    pub file: String,
    pub bytes: usize,
}

pub(crate) struct MapTaskResult {
    pub outputs: Vec<MapOutputFile>,
    pub spilled_bytes: u64,
    pub spills: usize,
    pub records_in: u64,
    pub records_out: u64,
}

/// Execute map task `task_id` over `split` on `node`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_map_task(
    conf: &JobConf,
    job_id: u64,
    task_id: usize,
    split: &Split,
    node: usize,
    dfs: &Dfs,
    disk: &Disk,
    reducers: usize,
    sort_buffer_bytes: usize,
) -> Result<MapTaskResult, MrError> {
    let payload = dfs.read_block(&split.path, split.block_index, Some(node))?;
    let mut buffer = SortBuffer::new(sort_buffer_bytes, reducers);
    let mut records_in = 0u64;
    let mut records_out = 0u64;
    let combiner = conf.combiner.as_deref();
    let tag = format!("j{job_id}.m{task_id}");
    // The sink pushes straight into the sort buffer (spilling inline,
    // as Hadoop's collector does).
    let mut push_err: Option<MrError> = None;
    {
        let mut sink = |k: &[u8], v: &[u8]| {
            records_out += 1;
            if push_err.is_none() {
                if let Err(e) = buffer.push(disk, &tag, k, v, combiner) {
                    push_err = Some(e.into());
                }
            }
        };
        let mut out = MapOutput::new(&mut sink);
        match conf.input_format {
            InputFormat::TextLines => {
                let (mut offset, mut key) = (0u64, Vec::new());
                for line in payload.split(|&b| b == b'\n') {
                    let advance = line.len() as u64 + 1;
                    if !line.is_empty() {
                        records_in += 1;
                        key.clear();
                        offset.encode(&mut key);
                        conf.mapper.map(&key, line, &mut out);
                    }
                    offset += advance;
                }
            }
            InputFormat::KeyValue => {
                let mut input = payload.as_slice();
                let torn = |input: &[u8]| DiskError::Truncated {
                    file: format!("{}#{}", split.path, split.block_index),
                    offset: (payload.len() - input.len()) as u64,
                };
                while let Some((k, v)) = decode_kv(&mut input).map_err(|_| torn(input))? {
                    records_in += 1;
                    conf.mapper.map(k, v, &mut out);
                }
            }
        }
    }
    if let Some(e) = push_err {
        return Err(e);
    }
    let spills = buffer.spill_count();
    let spilled_bytes = buffer.spilled_bytes;
    let partitions = buffer.finalize(disk, combiner)?;
    // Persist each non-empty partition for the shuffle to serve. Empty
    // partitions are still recorded (zero-length) so reducers can count
    // one chunk per (map task, partition).
    let mut outputs = Vec::with_capacity(reducers);
    for (r, blob) in partitions.into_iter().enumerate() {
        let file = format!("mr.out.j{job_id}.m{task_id}.r{r}");
        disk.write_all(&file, &blob)?;
        outputs.push(MapOutputFile {
            partition: r,
            file,
            bytes: blob.len(),
        });
    }
    Ok(MapTaskResult {
        outputs,
        spilled_bytes,
        spills,
        records_in,
        records_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{line_map_fn, reduce_fn, ReduceOutput};
    use crate::JobConf;
    use hamr_dfs::DfsConfig;
    use std::sync::Arc;

    fn setup() -> (Dfs, Vec<Disk>) {
        let disks: Vec<Disk> = (0..2).map(|_| Disk::new(Default::default())).collect();
        let dfs = Dfs::new(
            disks.clone(),
            DfsConfig {
                block_size: 1 << 16,
                replication: 1,
            },
        );
        (dfs, disks)
    }

    fn wordcount_conf(input: &str) -> JobConf {
        JobConf::new(
            "wc",
            vec![input.to_string()],
            "out",
            Arc::new(line_map_fn(|_off, line, out| {
                for w in line.split_whitespace() {
                    out.emit_t(&w.to_string(), &1u64);
                }
            })),
            Arc::new(reduce_fn(
                |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                    out.emit_t(&k, &vs.iter().sum::<u64>());
                },
            )),
        )
    }

    #[test]
    fn map_task_produces_partition_files() {
        let (dfs, disks) = setup();
        let mut w = dfs.create("in.txt").unwrap();
        w.write_line("a b a");
        w.write_line("c a");
        w.seal().unwrap();
        let splits = dfs.splits("in.txt").unwrap();
        assert_eq!(splits.len(), 1);
        let node = splits[0].locations[0];
        let conf = wordcount_conf("in.txt");
        let res = run_map_task(
            &conf,
            1,
            0,
            &splits[0],
            node,
            &dfs,
            &disks[node],
            2,
            1 << 20,
        )
        .unwrap();
        assert_eq!(res.records_in, 2);
        assert_eq!(res.records_out, 5);
        assert_eq!(res.outputs.len(), 2);
        let total: usize = res.outputs.iter().map(|o| o.bytes).sum();
        assert!(total > 0);
        for o in &res.outputs {
            assert!(disks[node].exists(&o.file));
        }
    }

    #[test]
    fn map_task_with_combiner_emits_fewer_records() {
        let (dfs, disks) = setup();
        let mut w = dfs.create("in2.txt").unwrap();
        for _ in 0..50 {
            w.write_line("x x x");
        }
        w.seal().unwrap();
        let splits = dfs.splits("in2.txt").unwrap();
        let node = splits[0].locations[0];
        let conf = wordcount_conf("in2.txt");
        let conf = conf.clone().with_combiner(conf.reducer);
        let res = run_map_task(
            &conf,
            1,
            0,
            &splits[0],
            node,
            &dfs,
            &disks[node],
            1,
            1 << 20,
        )
        .unwrap();
        // 150 'x' collapse into one pair in the single partition.
        let blob = disks[node].read_all(&res.outputs[0].file).unwrap();
        let mut input = blob.as_slice();
        let mut pairs = 0;
        while decode_kv(&mut input).unwrap().is_some() {
            pairs += 1;
        }
        assert_eq!(pairs, 1);
    }
}
