//! The map-side sort buffer: Hadoop's `io.sort.mb` machinery, shaped
//! like its `MapOutputBuffer`.
//!
//! A map emission is copied once, into one byte array (`kvbuffer`),
//! and gets a fixed-size entry in a metadata array (`kvmeta`): its
//! reduce partition and where its key and value sit. When the buffer
//! exceeds its budget, `kvmeta` is sorted in place by `(partition,
//! key)` — stably, so a group's values keep emission order — and the
//! sorted groups are optionally combined and spilled to the local disk
//! as one run per spill. At task end all runs are merged into one
//! sorted byte-blob per partition (applying the combiner again across
//! runs), ready for reducers to fetch. The combiner and the merge
//! borrow keys and values from the buffers; no record is allocated.

use crate::api::{ReduceOutput, Reducer};
use crate::{decode_kv, encode_kv, merge, Kv};
use hamr_codec::{partition, read_varint, write_varint, CodecError};
use hamr_simdisk::{Disk, DiskError};
use std::cell::Cell;
use std::sync::Arc;

/// One buffered record: its partition, and where its key (followed by
/// its value) starts in `kvbuffer`.
#[derive(Clone, Copy)]
struct Meta {
    p: u32,
    klen: u32,
    vlen: u32,
    at: usize,
}

impl Meta {
    fn key<'a>(&self, kvbuffer: &'a [u8]) -> &'a [u8] {
        &kvbuffer[self.at..self.at + self.klen as usize]
    }

    fn value<'a>(&self, kvbuffer: &'a [u8]) -> &'a [u8] {
        let at = self.at + self.klen as usize;
        &kvbuffer[at..at + self.vlen as usize]
    }
}

pub(crate) struct SortBuffer {
    kvbuffer: Vec<u8>,
    kvmeta: Vec<Meta>,
    /// What the buffered records charge against the budget:
    /// `key + value + 24` bytes each.
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
            kvbuffer: Vec::new(),
            kvmeta: Vec::new(),
            bytes: 0,
            budget: budget.max(1024),
            partitions,
            runs: Vec::new(),
            spilled_bytes: 0,
        }
    }

    /// Copy one map emission into the buffer; spill if over budget.
    pub(crate) fn push(
        &mut self,
        disk: &Disk,
        task_tag: &str,
        key: &[u8],
        value: &[u8],
        combiner: Option<&dyn Reducer>,
    ) -> Result<(), DiskError> {
        let len = |field: &[u8]| u32::try_from(field.len()).expect("a key or value over 4 GiB");
        self.kvmeta.push(Meta {
            p: partition(key, self.partitions) as u32,
            klen: len(key),
            vlen: len(value),
            at: self.kvbuffer.len(),
        });
        self.kvbuffer.extend_from_slice(key);
        self.kvbuffer.extend_from_slice(value);
        self.bytes += key.len() + value.len() + 24;
        if self.bytes > self.budget {
            self.spill(disk, task_tag, combiner)?;
        }
        Ok(())
    }

    /// Sort the buffer and hand its records to `emit(partition, key,
    /// value)` in (partition, key) order, each group of more than one
    /// value through the combiner when there is one. Empties the buffer.
    fn drain(&mut self, combiner: Option<&dyn Reducer>, mut emit: impl FnMut(u32, &[u8], &[u8])) {
        let kvbuffer = &self.kvbuffer;
        self.kvmeta
            .sort_by(|a, b| (a.p, a.key(kvbuffer)).cmp(&(b.p, b.key(kvbuffer))));
        let part = Cell::new(0);
        let mut sink = |k: &[u8], v: &[u8]| emit(part.get(), k, v);
        let mut out = ReduceOutput::new(&mut sink);
        for group in self
            .kvmeta
            .chunk_by(|a, b| a.p == b.p && a.key(kvbuffer) == b.key(kvbuffer))
        {
            part.set(group[0].p);
            let values = group.iter().map(|m| m.value(kvbuffer));
            emit_group(group[0].key(kvbuffer), values, combiner, &mut out);
        }
        self.kvbuffer.clear();
        self.kvmeta.clear();
        self.bytes = 0;
    }

    /// Drain the buffer into one run: `varint(partition) ++ kv` records.
    fn sorted_run(&mut self, combiner: Option<&dyn Reducer>) -> Vec<u8> {
        let mut run = Vec::with_capacity(self.kvbuffer.len() + 8 * self.kvmeta.len());
        self.drain(combiner, |p, k, v| {
            write_varint(u64::from(p), &mut run);
            encode_kv(k, v, &mut run);
        });
        run
    }

    /// Sort, combine, and write the current buffer as one run.
    fn spill(
        &mut self,
        disk: &Disk,
        task_tag: &str,
        combiner: Option<&dyn Reducer>,
    ) -> Result<(), DiskError> {
        let run = self.sorted_run(combiner);
        if run.is_empty() {
            return Ok(());
        }
        let name = disk.temp_name(&format!("mr.spill.{task_tag}"));
        disk.write_all(&name, &run)?;
        self.spilled_bytes += run.len() as u64;
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
        let mut outputs: Vec<Vec<u8>> = vec![Vec::new(); self.partitions];
        if self.runs.is_empty() {
            // Fast path: everything stayed in memory.
            self.drain(combiner, |p, k, v| {
                encode_kv(k, v, &mut outputs[p as usize])
            });
            return Ok(outputs);
        }
        // K-way merge of the runs (read back, charging disk time) and
        // memory, combining across sources and splitting into
        // partitions; a run that ends inside an entry fails the task.
        let mut runs = Vec::with_capacity(self.runs.len() + 1);
        for run in &self.runs {
            runs.push(disk.read_all(run)?);
        }
        runs.push(Arc::new(self.sorted_run(combiner)));
        let sources: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();
        let part = Cell::new(0);
        let mut sink = |k: &[u8], v: &[u8]| encode_kv(k, v, &mut outputs[part.get() as usize]);
        let mut out = ReduceOutput::new(&mut sink);
        merge(&sources, next_entry, |(p, key), values| {
            part.set(p);
            emit_group(key, values.iter().copied(), combiner, &mut out);
        })
        .map_err(|(i, offset)| DiskError::Truncated {
            file: self.runs[i].clone(),
            offset,
        })?;
        drop(out);
        for run in &self.runs {
            disk.delete(run);
        }
        Ok(outputs)
    }
}

/// Emit one group: through the combiner when there is one and the
/// group has more than one value, else value by value.
fn emit_group<'v>(
    key: &[u8],
    mut values: impl ExactSizeIterator<Item = &'v [u8]>,
    combiner: Option<&dyn Reducer>,
    out: &mut ReduceOutput,
) {
    match combiner {
        Some(c) if values.len() > 1 => c.reduce(key, &mut values, out),
        _ => values.for_each(|v| out.emit(key, v)),
    }
}

/// A spill run's record: its merge key is `(partition, key)`.
type Entry<'a> = Kv<'a, (u32, &'a [u8])>;

/// The next entry off the front of a run, borrowed from it; on a torn
/// entry `run` is left where the entry starts.
fn next_entry<'a>(run: &mut &'a [u8]) -> Result<Option<Entry<'a>>, CodecError> {
    if run.is_empty() {
        return Ok(None);
    }
    let mut entry = *run;
    let p = read_varint(&mut entry)?;
    let (k, v) = decode_kv(&mut entry)?.ok_or(CodecError::Truncated)?;
    *run = entry;
    Ok(Some(((p as u32, k), v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::Codec;
    use hamr_simdisk::DiskConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn decode_partition(blob: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut input = blob;
        let mut out = Vec::new();
        while let Some((k, v)) = decode_kv(&mut input).unwrap() {
            out.push((k.to_vec(), v.to_vec()));
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
            buf.push(&disk, "t", format!("key{i:03}").as_bytes(), b"v", None)
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
            other => panic!(
                "a torn run must fail the merge: {:?}",
                other.map(|p| p.len())
            ),
        }
    }

    #[test]
    fn in_memory_path_partitions_and_sorts() {
        let disk = Disk::new(DiskConfig::instant());
        let mut buf = SortBuffer::new(1 << 20, 4);
        for i in (0..20u64).rev() {
            buf.push(&disk, "t", format!("k{i:02}").as_bytes(), b"v", None)
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
            let key = format!("key{:03}", i % 40);
            buf.push(&disk, "t", key.as_bytes(), &i.to_bytes(), None)
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
        let mut buf = SortBuffer::new(1 << 20, 1);
        for _ in 0..100 {
            buf.push(&disk, "t", b"word", &[1], Some(&Sum)).unwrap();
        }
        let parts = buf.finalize(&disk, Some(&Sum)).unwrap();
        let entries = decode_partition(&parts[0]);
        assert_eq!(entries.len(), 1, "combiner should collapse to one pair");
        assert_eq!(u64::from_bytes(&entries[0].1).unwrap(), 100);
    }

    #[test]
    fn combiner_applies_across_spills_at_merge() {
        let disk = Disk::new(DiskConfig::instant());
        let mut buf = SortBuffer::new(1024, 1);
        for _ in 0..300 {
            buf.push(&disk, "t", b"hot", &[1], Some(&Sum)).unwrap();
        }
        assert!(buf.spill_count() >= 1);
        let parts = buf.finalize(&disk, Some(&Sum)).unwrap();
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

    /// Sums a group's `u64` values; keys are raw bytes.
    struct Sum;

    impl Reducer for Sum {
        fn reduce(
            &self,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            out: &mut ReduceOutput,
        ) {
            let sum: u64 = values.map(|v| u64::from_bytes(v).unwrap()).sum();
            out.emit(key, &sum.to_bytes());
        }
    }

    /// Concatenates a group's values in the order it is handed them.
    struct Concat;

    impl Reducer for Concat {
        fn reduce(
            &self,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            out: &mut ReduceOutput,
        ) {
            out.emit(key, &values.flatten().copied().collect::<Vec<u8>>());
        }
    }

    /// Key `id` is one of the 15 strings over `{a, b}` of length 0 to 3:
    /// the empty key and keys that are prefixes of others.
    fn key_of(id: u8) -> Vec<u8> {
        let (mut n, mut len) = (u32::from(id), 0);
        while n >= 1 << len {
            n -= 1 << len;
            len += 1;
        }
        (0..len)
            .map(|bit| if n >> bit & 1 == 0 { b'a' } else { b'b' })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The buffer's partition blobs are byte-identical to a
        /// sequential model: a `BTreeMap<(partition, key), values>` in
        /// emission order, encoded group by group. Budgets from 1 KiB
        /// (many spills) to 1 MiB (none); no combiner, a summing one,
        /// and one that concatenates its values, which catches an
        /// unstable sort or a merge that reorders a group.
        #[test]
        fn partitions_match_a_sequential_model(
            ids in prop::collection::vec(0u8..15, 0..400),
            budget_kib in prop::sample::select(vec![1usize, 2, 3, 8, 1024]),
            partitions in 1usize..4,
            combine in 0u8..3,
        ) {
            let disk = Disk::new(DiskConfig::instant());
            let combiner: Option<&dyn Reducer> = match combine {
                0 => None,
                1 => Some(&Sum),
                _ => Some(&Concat),
            };
            let mut buf = SortBuffer::new(budget_kib << 10, partitions);
            let mut model: BTreeMap<(usize, Vec<u8>), Vec<Vec<u8>>> = BTreeMap::new();
            for (i, &id) in ids.iter().enumerate() {
                let (key, value) = (key_of(id), (i as u64).to_bytes());
                buf.push(&disk, "t", &key, &value, combiner).unwrap();
                model.entry((partition(&key, partitions), key)).or_default().push(value.to_vec());
            }
            let mut want = vec![Vec::new(); partitions];
            for ((p, key), values) in &model {
                let folded = match combine {
                    0 => values.clone(),
                    1 => vec![values.iter().map(|v| u64::from_bytes(v).unwrap()).sum::<u64>().to_bytes().to_vec()],
                    _ => vec![values.concat()],
                };
                for v in folded {
                    encode_kv(key, &v, &mut want[*p]);
                }
            }
            prop_assert_eq!(buf.finalize(&disk, combiner).unwrap(), want);
            prop_assert!(disk.list().is_empty(), "spill runs left behind");
        }
    }
}
