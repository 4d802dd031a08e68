//! The map-side sort buffer: Hadoop's `io.sort.mb` machinery.
//!
//! Map emissions accumulate in memory tagged with their reduce
//! partition. When the buffer exceeds its budget it is sorted by
//! `(partition, key)`, optionally combined, and spilled to the local
//! disk as one run per spill. At task end all runs are merged into one
//! sorted byte-blob per partition (applying the combiner again across
//! runs), ready for reducers to fetch.

use crate::api::{ReduceOutput, Reducer};
use crate::{decode_kv, encode_kv};
use bytes::Bytes;
use hamr_codec::partition;
use hamr_simdisk::{Disk, DiskError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) struct SortBuffer {
    entries: Vec<(u32, Bytes, Bytes)>,
    bytes: usize,
    budget: usize,
    partitions: usize,
    /// Spill run files, each sorted by (partition, key).
    runs: Vec<String>,
    pub(crate) spilled_bytes: u64,
}

impl SortBuffer {
    pub(crate) fn new(budget: usize, partitions: usize) -> Self {
        assert!(partitions > 0);
        SortBuffer {
            entries: Vec::new(),
            bytes: 0,
            budget: budget.max(1024),
            partitions,
            runs: Vec::new(),
            spilled_bytes: 0,
        }
    }

    /// Add one map emission; spill if over budget.
    pub(crate) fn push(
        &mut self,
        disk: &Disk,
        task_tag: &str,
        key: Bytes,
        value: Bytes,
        combiner: Option<&dyn Reducer>,
    ) -> Result<(), DiskError> {
        let p = partition(&key, self.partitions) as u32;
        self.bytes += key.len() + value.len() + 24;
        self.entries.push((p, key, value));
        if self.bytes > self.budget {
            self.spill(disk, task_tag, combiner)?;
        }
        Ok(())
    }

    fn sort_and_combine(&mut self, combiner: Option<&dyn Reducer>) -> Vec<(u32, Bytes, Bytes)> {
        let mut entries = std::mem::take(&mut self.entries);
        self.bytes = 0;
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        match combiner {
            None => entries,
            Some(c) => combine_sorted(entries, c),
        }
    }

    /// Sort, combine, and write the current buffer as one run.
    fn spill(
        &mut self,
        disk: &Disk,
        task_tag: &str,
        combiner: Option<&dyn Reducer>,
    ) -> Result<(), DiskError> {
        let entries = self.sort_and_combine(combiner);
        if entries.is_empty() {
            return Ok(());
        }
        let name = disk.temp_name(&format!("mr.spill.{task_tag}"));
        let mut writer = disk.create(&name)?;
        let mut buf = Vec::with_capacity(64 << 10);
        for (p, k, v) in &entries {
            hamr_codec::write_varint(u64::from(*p), &mut buf);
            encode_kv(k, v, &mut buf);
            if buf.len() >= (64 << 10) {
                writer.write(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            writer.write(&buf);
        }
        self.spilled_bytes += writer.seal() as u64;
        self.runs.push(name);
        Ok(())
    }

    /// Number of spills so far (diagnostics).
    pub(crate) fn spill_count(&self) -> usize {
        self.runs.len()
    }

    /// Finish the task: merge memory + runs into one sorted KV blob per
    /// partition. Spill files are deleted afterwards.
    pub(crate) fn finalize(
        mut self,
        disk: &Disk,
        combiner: Option<&dyn Reducer>,
    ) -> Result<Vec<Vec<u8>>, DiskError> {
        let mem = self.sort_and_combine(combiner);
        let mut outputs: Vec<Vec<u8>> = (0..self.partitions).map(|_| Vec::new()).collect();
        if self.runs.is_empty() {
            // Fast path: everything stayed in memory.
            for (p, k, v) in mem {
                encode_kv(&k, &v, &mut outputs[p as usize]);
            }
            return Ok(outputs);
        }
        // K-way merge of runs + memory, combine across sources, split
        // into partitions. Read the runs back (charging disk time); a
        // run that ends inside an entry fails the task.
        let mut sources: Vec<std::vec::IntoIter<(u32, Bytes, Bytes)>> = Vec::new();
        for run in &self.runs {
            let raw = disk.read_all(run)?;
            let mut input = raw.as_slice();
            let mut entries = Vec::new();
            while !input.is_empty() {
                let torn = || DiskError::Truncated {
                    file: run.clone(),
                    offset: (raw.len() - input.len()) as u64,
                };
                let mut entry = input;
                let p = hamr_codec::read_varint(&mut entry).map_err(|_| torn())?;
                let Ok(Some((k, v))) = decode_kv(&mut entry) else {
                    return Err(torn());
                };
                input = entry;
                entries.push((p as u32, k, v));
            }
            sources.push(entries.into_iter());
        }
        sources.push(mem.into_iter());
        let mut heap: BinaryHeap<Reverse<(u32, Bytes, usize, Bytes)>> = BinaryHeap::new();
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some((p, k, v)) = src.next() {
                heap.push(Reverse((p, k, i, v)));
            }
        }
        // Stream groups in (partition, key) order, applying the
        // combiner across whole groups.
        while let Some(Reverse((p, key, i, v))) = heap.pop() {
            if let Some((p2, k2, v2)) = sources[i].next() {
                heap.push(Reverse((p2, k2, i, v2)));
            }
            let mut group = vec![v];
            while let Some(Reverse((p2, k2, _, _))) = heap.peek() {
                if *p2 != p || *k2 != key {
                    break;
                }
                let Reverse((_, _, j, v2)) = heap.pop().expect("peeked");
                group.push(v2);
                if let Some(n) = sources[j].next() {
                    heap.push(Reverse((n.0, n.1, j, n.2)));
                }
            }
            let out = &mut outputs[p as usize];
            match combiner {
                Some(c) if group.len() > 1 => {
                    let mut sink = |k: Bytes, v: Bytes| encode_kv(&k, &v, out);
                    let mut ro = ReduceOutput::new(&mut sink);
                    let mut iter = group.into_iter();
                    c.reduce(&key, &mut iter, &mut ro);
                }
                _ => {
                    for v in group {
                        encode_kv(&key, &v, out);
                    }
                }
            }
        }
        for run in &self.runs {
            disk.delete(run);
        }
        Ok(outputs)
    }
}

/// Apply a combiner over a (partition, key)-sorted entry list.
fn combine_sorted(
    entries: Vec<(u32, Bytes, Bytes)>,
    combiner: &dyn Reducer,
) -> Vec<(u32, Bytes, Bytes)> {
    let mut out: Vec<(u32, Bytes, Bytes)> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let (p, key) = (entries[i].0, entries[i].1.clone());
        let mut j = i + 1;
        while j < entries.len() && entries[j].0 == p && entries[j].1 == key {
            j += 1;
        }
        if j - i == 1 {
            out.push(entries[i].clone());
        } else {
            let group: Vec<Bytes> = entries[i..j].iter().map(|e| e.2.clone()).collect();
            let mut sink = |k: Bytes, v: Bytes| out.push((p, k, v));
            let mut ro = ReduceOutput::new(&mut sink);
            let mut iter = group.into_iter();
            combiner.reduce(&key, &mut iter, &mut ro);
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::reduce_fn;
    use hamr_codec::Codec;
    use hamr_simdisk::DiskConfig;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn decode_partition(blob: &[u8]) -> Vec<(Bytes, Bytes)> {
        let mut input = blob;
        let mut out = Vec::new();
        while let Some(kv) = decode_kv(&mut input).unwrap() {
            out.push(kv);
        }
        out
    }

    /// A spill run cut inside its last entry fails the merge with the
    /// run's name and the torn entry's offset, where it used to merge
    /// the entries before the cut and drop the rest.
    #[test]
    fn a_truncated_spill_run_is_an_error_not_an_end() {
        let disk = Disk::new(DiskConfig::instant());
        let mut buf = SortBuffer::new(1024, 2);
        for i in 0..200u64 {
            buf.push(&disk, "t", Bytes::from(format!("key{i:03}")), b("v"), None)
                .unwrap();
        }
        assert!(buf.spill_count() >= 1);
        let run = buf.runs[0].clone();
        let whole = disk.read_all(&run).unwrap();
        disk.delete(&run);
        disk.write_all(&run, &whole[..whole.len() - 1]).unwrap();
        match buf.finalize(&disk, None) {
            Err(DiskError::Truncated { file, offset }) => {
                assert_eq!(file, run);
                assert!(offset < whole.len() as u64 - 1, "offset {offset}");
            }
            other => panic!("a torn run must fail the merge: {:?}", other.map(|p| p.len())),
        }
    }

    #[test]
    fn in_memory_path_partitions_and_sorts() {
        let disk = Disk::new(DiskConfig::instant());
        let mut buf = SortBuffer::new(1 << 20, 4);
        for i in (0..20u64).rev() {
            buf.push(&disk, "t", Bytes::from(format!("k{i:02}")), b("v"), None)
                .unwrap();
        }
        assert_eq!(buf.spill_count(), 0);
        let parts = buf.finalize(&disk, None).unwrap();
        assert_eq!(parts.len(), 4);
        let mut total = 0;
        for (p, blob) in parts.iter().enumerate() {
            let entries = decode_partition(blob);
            total += entries.len();
            // Sorted within each partition, and on the right partition.
            for w in entries.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
            for (k, _) in &entries {
                assert_eq!(partition(k, 4), p);
            }
        }
        assert_eq!(total, 20);
    }

    #[test]
    fn tiny_budget_spills_and_merge_recovers_everything() {
        let disk = Disk::new(DiskConfig::instant());
        let mut buf = SortBuffer::new(1024, 2);
        for i in 0..500u64 {
            buf.push(
                &disk,
                "t",
                Bytes::from(format!("key{:03}", i % 40)),
                i.to_bytes(),
                None,
            )
            .unwrap();
        }
        assert!(buf.spill_count() > 1, "expected multiple spills");
        assert!(buf.spilled_bytes > 0);
        let parts = buf.finalize(&disk, None).unwrap();
        let total: usize = parts.iter().map(|p| decode_partition(p).len()).sum();
        assert_eq!(total, 500);
        // Spill files cleaned up.
        assert!(disk.list().iter().all(|n| !n.contains("mr.spill")));
    }

    #[test]
    fn combiner_shrinks_intermediate_data() {
        let disk = Disk::new(DiskConfig::instant());
        let combiner = reduce_fn(|k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        });
        let mut buf = SortBuffer::new(1 << 20, 1);
        for _ in 0..100 {
            buf.push(
                &disk,
                "t",
                "word".to_string().to_bytes(),
                1u64.to_bytes(),
                Some(&combiner),
            )
            .unwrap();
        }
        let parts = buf.finalize(&disk, Some(&combiner)).unwrap();
        let entries = decode_partition(&parts[0]);
        assert_eq!(entries.len(), 1, "combiner should collapse to one pair");
        assert_eq!(u64::from_bytes(&entries[0].1).unwrap(), 100);
    }

    #[test]
    fn combiner_applies_across_spills_at_merge() {
        let disk = Disk::new(DiskConfig::instant());
        let combiner = reduce_fn(|k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        });
        let mut buf = SortBuffer::new(1024, 1);
        for _ in 0..300 {
            buf.push(
                &disk,
                "t",
                "hot".to_string().to_bytes(),
                1u64.to_bytes(),
                Some(&combiner),
            )
            .unwrap();
        }
        assert!(buf.spill_count() >= 1);
        let parts = buf.finalize(&disk, Some(&combiner)).unwrap();
        let entries = decode_partition(&parts[0]);
        assert_eq!(entries.len(), 1);
        assert_eq!(u64::from_bytes(&entries[0].1).unwrap(), 300);
    }

    #[test]
    fn empty_buffer_finalizes_to_empty_partitions() {
        let disk = Disk::new(DiskConfig::instant());
        let buf = SortBuffer::new(1024, 3);
        let parts = buf.finalize(&disk, None).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.is_empty()));
    }
}
